package faq

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// solve plans q and runs it with opts on an engine of its own (pool width
// GOMAXPROCS), closed before it returns: Prepare + Run in one call.
func solve[V any](q *Query[V], opts Options) (*Result[V], *Plan, error) {
	eng := NewEngine[V](EngineOptions{})
	defer eng.Close()
	prep, err := eng.PrepareCtx(context.Background(), q, opts)
	if err != nil {
		return nil, nil, err
	}
	res, err := prep.Run(context.Background())
	return res, prep.Plan(), err
}

// TestAppendixA2KColorability: k-colorability (Example A.2) as a Boolean
// FAQ: ψ_{uv}(c1, c2) = (c1 ≠ c2) for every edge.
func TestAppendixA2KColorability(t *testing.T) {
	d := Bool()
	neq := func(k, n, u, v int) *Factor[bool] {
		doms := make([]int, n)
		for i := range doms {
			doms[i] = k
		}
		return FromFunc(d, []int{u, v}, doms, func(tup []int) bool {
			return tup[0] != tup[1]
		})
	}
	color := func(k int, edges [][2]int, n int) bool {
		q := &Query[bool]{
			D: d, NVars: n, DomSizes: make([]int, n), NumFree: 0,
			Aggs:             make([]Aggregate[bool], n),
			IdempotentInputs: true,
		}
		for i := 0; i < n; i++ {
			q.DomSizes[i] = k
			q.Aggs[i] = SemiringAgg(OpOr())
		}
		for _, e := range edges {
			q.Factors = append(q.Factors, neq(k, n, e[0], e[1]))
		}
		res, _, err := solve(q, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return res.Scalar()
	}
	triangle := [][2]int{{0, 1}, {1, 2}, {0, 2}}
	if color(2, triangle, 3) {
		t.Fatal("triangle is not 2-colorable")
	}
	if !color(3, triangle, 3) {
		t.Fatal("triangle is 3-colorable")
	}
	// K4 needs 4 colors.
	k4 := [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	if color(3, k4, 4) {
		t.Fatal("K4 is not 3-colorable")
	}
	if !color(4, k4, 4) {
		t.Fatal("K4 is 4-colorable")
	}
}

// TestAppendixA11Permanent: the permanent (Example A.11) as a sum-product
// FAQ with singleton factors ψ_i(j) = a_ij and inequality factors between
// all column variables.
func TestAppendixA11Permanent(t *testing.T) {
	d := Float()
	a := [][]float64{
		{1, 2, 3},
		{4, 5, 6},
		{7, 8, 10},
	}
	n := len(a)
	doms := []int{n, n, n}
	q := &Query[float64]{
		D: d, NVars: n, DomSizes: doms, NumFree: 0,
		Aggs: make([]Aggregate[float64], n),
	}
	for i := 0; i < n; i++ {
		q.Aggs[i] = SemiringAgg(OpFloatSum())
		row := a[i]
		q.Factors = append(q.Factors, FromFunc(d, []int{i}, doms, func(tup []int) float64 {
			return row[tup[0]]
		}))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			q.Factors = append(q.Factors, FromFunc(d, []int{i, j}, doms, func(tup []int) float64 {
				if tup[0] == tup[1] {
					return 0
				}
				return 1
			}))
		}
	}
	res, _, err := solve(q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// perm = Σ_π Π a_{iπ(i)} over the 6 permutations:
	// 1·5·10 + 2·6·7 + 3·4·8 + 1·6·8 + 2·4·10 + 3·5·7 = 50+84+96+48+80+105 = 463.
	if got := res.Scalar(); math.Abs(got-463) > 1e-9 {
		t.Fatalf("permanent = %v, want 463", got)
	}
}

// TestAppendixA1SATAsFAQ: a CNF formula as a Boolean FAQ where each clause
// is a factor (Example A.1) — expanded to listing representation.
func TestAppendixA1SATAsFAQ(t *testing.T) {
	d := Bool()
	doms := []int{2, 2, 2}
	clause := func(vars []int, f func([]int) bool) *Factor[bool] {
		return FromFunc(d, vars, doms, f)
	}
	// (x0 ∨ ¬x1) ∧ (x1 ∨ x2) ∧ (¬x0 ∨ ¬x2)
	q := &Query[bool]{
		D: d, NVars: 3, DomSizes: doms, NumFree: 0,
		Aggs: []Aggregate[bool]{
			SemiringAgg(OpOr()), SemiringAgg(OpOr()), SemiringAgg(OpOr()),
		},
		Factors: []*Factor[bool]{
			clause([]int{0, 1}, func(tup []int) bool { return tup[0] == 1 || tup[1] == 0 }),
			clause([]int{1, 2}, func(tup []int) bool { return tup[0] == 1 || tup[1] == 1 }),
			clause([]int{0, 2}, func(tup []int) bool { return tup[0] == 0 || tup[1] == 0 }),
		},
		IdempotentInputs: true,
	}
	res, _, err := solve(q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Scalar() {
		t.Fatal("formula is satisfiable (e.g. x0=1, x1=1, x2=0)")
	}
}

// TestSetSemiringProvenance: variable elimination over the set semiring
// (∪, ∩) — Yannakakis as InsideOut (Section 3.1).  Each tuple carries a
// bitmask of source ids; the query result is the intersection-of-unions
// provenance of the join.
func TestSetSemiringProvenance(t *testing.T) {
	d := Set()
	r, err := NewFactor(d, []int{0, 1},
		[][]int{{0, 0}, {0, 1}, {1, 1}},
		[]uint64{1 << 0, 1 << 1, 1 << 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewFactor(d, []int{1, 2},
		[][]int{{0, 0}, {1, 0}},
		[]uint64{1 << 3, 1 << 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := &Query[uint64]{
		D: d, NVars: 3, DomSizes: []int{2, 2, 2}, NumFree: 1,
		Aggs: []Aggregate[uint64]{
			Free[uint64](),
			SemiringAgg(OpUnion()),
			SemiringAgg(OpUnion()),
		},
		Factors: []*Factor[uint64]{r, s},
	}
	res, _, err := solve(q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := BruteForce(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Output.Equal(d, want) {
		t.Fatalf("set-semiring output mismatch: %v vs %v", res.Output, want)
	}
	// φ(x0=0): tuples through (0,0,0): r-token 0 ∩ s-token 3, plus through
	// (0,1,0): tokens 1 ∩ 4 — union = {0∩3} ∪ {1∩4}... with bitmask
	// semantics: (1|?)&(8) ∪ (2)&(16) = 0 ∪ 0 = 0?  Intersections of
	// disjoint singleton sets are empty, so the provenance must be empty.
	if v, ok := res.Output.Value([]int{0}); ok && v != 0 {
		t.Fatalf("disjoint token sets must intersect to ∅, got %b", v)
	}
}

// TestTropicalShortestPath: min-plus matrix chain = shortest paths; the
// tropical semiring's ⊗ is +, so a path query computes single-pair
// shortest-path lengths.
func TestTropicalShortestPath(t *testing.T) {
	d := Tropical()
	inf := math.Inf(1)
	// Layered graph with 3 layers of 3 nodes; weights w1[i][j], w2[j][k].
	w1 := [][]float64{{1, 5, inf}, {2, 1, 4}, {inf, 3, 1}}
	w2 := [][]float64{{2, inf, 1}, {1, 2, inf}, {4, 1, 3}}
	doms := []int{3, 3, 3}
	mk := func(vars []int, w [][]float64) *Factor[float64] {
		return FromFunc(d, vars, doms, func(tup []int) float64 {
			return w[tup[0]][tup[1]]
		})
	}
	q := &Query[float64]{
		D: d, NVars: 3, DomSizes: doms, NumFree: 2,
		Aggs: []Aggregate[float64]{
			Free[float64](), Free[float64](), SemiringAgg(OpTropicalMin()),
		},
		// Variables: 0 = source layer, 1 = target layer, 2 = middle layer.
		// Second factor: ψ(x1 = k, x2 = j) = w2[j][k].
		Factors: []*Factor[float64]{
			mk([]int{0, 2}, w1),
			FromFunc(d, []int{1, 2}, doms, func(tup []int) float64 { return w2[tup[1]][tup[0]] }),
		},
	}
	res, _, err := solve(q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// d(i, k) = min_j w1[i][j] + w2[j][k]; check a few entries.
	for i := 0; i < 3; i++ {
		for k := 0; k < 3; k++ {
			want := inf
			for j := 0; j < 3; j++ {
				if c := w1[i][j] + w2[j][k]; c < want {
					want = c
				}
			}
			got := res.Output.ValueOrZero(d, []int{i, k})
			if got != want && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
				t.Fatalf("d(%d,%d) = %v, want %v", i, k, got, want)
			}
		}
	}
}

// TestFacadeSolveMatchesBruteForce is a sanity check for the re-exported
// engine API on a random mixed query.
func TestFacadeSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	d := Float()
	doms := []int{3, 2, 3}
	r := FromFunc(d, []int{0, 1}, doms, func(tup []int) float64 {
		return float64(rng.Intn(3))
	})
	s := FromFunc(d, []int{1, 2}, doms, func(tup []int) float64 {
		return float64(rng.Intn(3))
	})
	q := &Query[float64]{
		D: d, NVars: 3, DomSizes: doms, NumFree: 1,
		Aggs: []Aggregate[float64]{
			Free[float64](), SemiringAgg(OpFloatMax()), SemiringAgg(OpFloatSum()),
		},
		Factors: []*Factor[float64]{r, s},
	}
	res, plan, err := solve(q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := BruteForce(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Output.Equal(d, want) {
		t.Fatalf("planned run (%s) disagrees with brute force", plan.Method)
	}
	if ok, err := InEVO(q.Shape(), plan.Order); err != nil || !ok {
		t.Fatalf("planned order %v not in EVO: %v", plan.Order, err)
	}
}
