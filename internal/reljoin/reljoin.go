// Package reljoin implements the Joins row of Table 1: natural join
// evaluation as a Boolean-semiring FAQ with all variables free (Example
// A.6), against a classical left-deep binary hash-join baseline.  On cyclic
// queries such as the triangle, InsideOut with worst-case-optimal
// intermediate joins runs within the AGM bound N^{3/2} while any binary
// join plan materializes Θ(N²) intermediate tuples on the skew instance.
package reljoin

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"github.com/faqdb/faq/internal/core"
	"github.com/faqdb/faq/internal/factor"
	"github.com/faqdb/faq/internal/semiring"
)

// Rel is a relation over query variables: Vars names the columns by query
// variable id, Rows holds the tuples.
type Rel struct {
	Name string
	Vars []int
	Rows [][]int
}

// Instance is a natural join query: the output is the set of assignments to
// all variables consistent with every relation.
type Instance struct {
	NumVars  int
	DomSizes []int
	Rels     []Rel
}

// ToQuery compiles the instance to a Boolean FAQ with every variable free.
func (in *Instance) ToQuery() (*core.Query[bool], error) {
	d := semiring.Bool()
	q := &core.Query[bool]{
		D:                d,
		NVars:            in.NumVars,
		DomSizes:         append([]int(nil), in.DomSizes...),
		NumFree:          in.NumVars,
		Aggs:             make([]core.Aggregate[bool], in.NumVars),
		IdempotentInputs: true,
	}
	for i := range q.Aggs {
		q.Aggs[i] = core.Free[bool]()
	}
	for _, r := range in.Rels {
		f, err := relFactor(d, r, in.DomSizes)
		if err != nil {
			return nil, err
		}
		q.Factors = append(q.Factors, f)
	}
	return q, nil
}

func relFactor(d *semiring.Domain[bool], r Rel, domSizes []int) (*factor.Factor[bool], error) {
	vars := append([]int(nil), r.Vars...)
	perm := make([]int, len(vars))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return vars[perm[a]] < vars[perm[b]] })
	sorted := make([]int, len(vars))
	for i, p := range perm {
		sorted[i] = vars[p]
	}
	var tuples [][]int
	values := make([]bool, 0, len(r.Rows))
	for _, row := range r.Rows {
		if len(row) != len(vars) {
			return nil, fmt.Errorf("reljoin: row %v of %s has %d columns, want %d", row, r.Name, len(row), len(vars))
		}
		t := make([]int, len(vars))
		for i, p := range perm {
			t[i] = row[p]
		}
		tuples = append(tuples, t)
		values = append(values, true)
	}
	return factor.New(d, sorted, tuples, values, func(a, b bool) bool { return a })
}

// RunInsideOut evaluates the join on e (worst-case-optimal multiway join +
// Yannakakis-style output filters) and returns the output tuples over
// variables 0..NumVars-1 (sorted ascending).
func (in *Instance) RunInsideOut(e *core.Engine[bool]) ([][]int, error) {
	q, err := in.ToQuery()
	if err != nil {
		return nil, err
	}
	prep, err := e.Prepare(q)
	if err != nil {
		return nil, err
	}
	res, err := prep.Run(context.Background())
	if err != nil {
		return nil, err
	}
	return res.Output.Tuples(), nil
}

// RunHashJoin evaluates the join with a left-deep binary hash-join plan in
// the given relation order, returning the output tuples and the peak
// intermediate result size — the quantity that blows up to Θ(N²) on cyclic
// skew instances.
func (in *Instance) RunHashJoin(order []int) ([][]int, int, error) {
	if len(order) == 0 {
		order = make([]int, len(in.Rels))
		for i := range order {
			order[i] = i
		}
	}
	cur := materialize(in.Rels[order[0]])
	peak := len(cur.Rows)
	for _, ri := range order[1:] {
		cur = hashJoin(cur, materialize(in.Rels[ri]))
		if len(cur.Rows) > peak {
			peak = len(cur.Rows)
		}
	}
	// Project/complete: the binary plan already carries all variables of
	// the joined relations; any instance variable never mentioned would be
	// unconstrained, which ToQuery rejects as well.
	sortRows(cur.Rows)
	out := dedupeRows(cur.Rows)
	return out, peak, nil
}

type table struct {
	Vars []int
	Rows [][]int
}

func materialize(r Rel) table {
	perm := make([]int, len(r.Vars))
	for i := range perm {
		perm[i] = i
	}
	vars := append([]int(nil), r.Vars...)
	sort.Slice(perm, func(a, b int) bool { return vars[perm[a]] < vars[perm[b]] })
	sorted := make([]int, len(vars))
	for i, p := range perm {
		sorted[i] = vars[p]
	}
	rows := make([][]int, len(r.Rows))
	for j, row := range r.Rows {
		t := make([]int, len(row))
		for i, p := range perm {
			t[i] = row[p]
		}
		rows[j] = t
	}
	return table{Vars: sorted, Rows: dedupeRows(rows)}
}

// hashJoin joins two tables on their shared variables.
func hashJoin(a, b table) table {
	shared, aPos, bPos := sharedVars(a.Vars, b.Vars)
	bOnly := make([]int, 0, len(b.Vars))
	bOnlyPos := make([]int, 0, len(b.Vars))
	for i, v := range b.Vars {
		if !containsInt(shared, v) {
			bOnly = append(bOnly, v)
			bOnlyPos = append(bOnlyPos, i)
		}
	}
	index := map[string][][]int{}
	for _, row := range b.Rows {
		k := keyOf(row, bPos)
		index[k] = append(index[k], row)
	}
	outVars := append(append([]int(nil), a.Vars...), bOnly...)
	var rows [][]int
	for _, row := range a.Rows {
		k := keyOf(row, aPos)
		for _, match := range index[k] {
			out := make([]int, 0, len(outVars))
			out = append(out, row...)
			for _, p := range bOnlyPos {
				out = append(out, match[p])
			}
			rows = append(rows, out)
		}
	}
	t := table{Vars: outVars, Rows: rows}
	return t.sorted()
}

// sorted reorders columns so Vars ascend (keeps output comparable).
func (t table) sorted() table {
	perm := make([]int, len(t.Vars))
	for i := range perm {
		perm[i] = i
	}
	vars := append([]int(nil), t.Vars...)
	sort.Slice(perm, func(a, b int) bool { return vars[perm[a]] < vars[perm[b]] })
	outVars := make([]int, len(vars))
	for i, p := range perm {
		outVars[i] = vars[p]
	}
	rows := make([][]int, len(t.Rows))
	for j, row := range t.Rows {
		r := make([]int, len(row))
		for i, p := range perm {
			r[i] = row[p]
		}
		rows[j] = r
	}
	return table{Vars: outVars, Rows: rows}
}

func sharedVars(a, b []int) (shared, aPos, bPos []int) {
	for i, v := range a {
		for j, w := range b {
			if v == w {
				shared = append(shared, v)
				aPos = append(aPos, i)
				bPos = append(bPos, j)
			}
		}
	}
	return
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func keyOf(row []int, pos []int) string {
	b := make([]byte, 0, len(pos)*4)
	for _, p := range pos {
		x := row[p]
		b = append(b, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
	}
	return string(b)
}

func sortRows(rows [][]int) {
	sort.Slice(rows, func(i, j int) bool {
		for k := range rows[i] {
			if rows[i][k] != rows[j][k] {
				return rows[i][k] < rows[j][k]
			}
		}
		return false
	})
}

func dedupeRows(rows [][]int) [][]int {
	sortRows(rows)
	var out [][]int
	for i, r := range rows {
		if i > 0 && equalRow(out[len(out)-1], r) {
			continue
		}
		out = append(out, r)
	}
	return out
}

func equalRow(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Instances.
// ---------------------------------------------------------------------------

// Triangle builds the triangle query R(x0,x1) ⋈ S(x1,x2) ⋈ T(x0,x2) from
// an edge list interpreted three ways.
func Triangle(dom int, edges [][]int) *Instance {
	return &Instance{
		NumVars:  3,
		DomSizes: []int{dom, dom, dom},
		Rels: []Rel{
			{Name: "R", Vars: []int{0, 1}, Rows: edges},
			{Name: "S", Vars: []int{1, 2}, Rows: edges},
			{Name: "T", Vars: []int{0, 2}, Rows: edges},
		},
	}
}

// SkewTriangleEdges builds the classic hard instance for binary join plans:
// the star edge set {0}×[k] ∪ [k]×{0} with k = n/2.  Every pairwise join
// has Θ(k²) = Θ(n²) tuples while the triangle output has Θ(n) tuples, and a
// worst-case optimal join touches only Θ(n).
func SkewTriangleEdges(n int) (edges [][]int, dom int) {
	k := n / 2
	if k < 1 {
		k = 1
	}
	for i := 1; i <= k; i++ {
		edges = append(edges, []int{0, i}, []int{i, 0})
	}
	edges = append(edges, []int{0, 0})
	return edges, k + 1
}

// RandomEdges draws n random pairs over [dom]².
func RandomEdges(rng *rand.Rand, n, dom int) [][]int {
	seen := map[[2]int]bool{}
	var edges [][]int
	for len(edges) < n && len(seen) < dom*dom {
		e := [2]int{rng.Intn(dom), rng.Intn(dom)}
		if seen[e] {
			continue
		}
		seen[e] = true
		edges = append(edges, []int{e[0], e[1]})
	}
	return edges
}

// BruteForceJoin enumerates the full assignment box (testing oracle).
func (in *Instance) BruteForceJoin() [][]int {
	var out [][]int
	assignment := make([]int, in.NumVars)
	var rec func(i int)
	rec = func(i int) {
		if i == in.NumVars {
			for _, r := range in.Rels {
				if !relContains(r, assignment) {
					return
				}
			}
			out = append(out, append([]int(nil), assignment...))
			return
		}
		for x := 0; x < in.DomSizes[i]; x++ {
			assignment[i] = x
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

func relContains(r Rel, assignment []int) bool {
	for _, row := range r.Rows {
		ok := true
		for i, v := range r.Vars {
			if row[i] != assignment[v] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}
