// Package logicq implements the logic-side reductions of the paper
// (Examples 1.3, A.3, A.5, A.20 and Table 1 rows 1–3): Boolean conjunctive
// queries, conjunctive query evaluation, counting CQs (#CQ), quantified
// conjunctive queries (QCQ) and counting quantified conjunctive queries
// (#QCQ), all compiled to FAQ instances over {0,1}-valued factors and solved
// by InsideOut.  Naive enumeration baselines are provided for every problem.
package logicq

import (
	"context"
	"fmt"

	"github.com/faqdb/faq/internal/core"
	"github.com/faqdb/faq/internal/factor"
	"github.com/faqdb/faq/internal/semiring"
)

// Relation is a set of tuples over a fixed arity; attribute values are
// small non-negative ints.
type Relation struct {
	Name   string
	Arity  int
	Tuples [][]int
}

// Add appends a tuple (no dedup; duplicates are deduped at compile time).
func (r *Relation) Add(tuple ...int) {
	if len(tuple) != r.Arity {
		panic(fmt.Sprintf("logicq: tuple %v has arity %d, want %d", tuple, len(tuple), r.Arity))
	}
	r.Tuples = append(r.Tuples, append([]int(nil), tuple...))
}

// Atom applies a relation to query variables, e.g. R(x2, x0).
// Repeated variables (R(x, x)) are allowed.
type Atom struct {
	Rel  *Relation
	Vars []int
}

// Quantifier marks a bound variable of a quantified query.
type Quantifier int

const (
	// Exists is ∃ (compiled to the max/∨ aggregate).
	Exists Quantifier = iota
	// ForAll is ∀ (compiled to the product aggregate).
	ForAll
)

func (q Quantifier) String() string {
	if q == ForAll {
		return "∀"
	}
	return "∃"
}

// Query is a (quantified) conjunctive query
//
//	Φ(x_0, ..., x_{f-1}) = Q_f x_f ... Q_{n-1} x_{n-1} ⋀ atoms
//
// over variables 0..NumVars-1 with the first NumFree free; Quants lists the
// quantifiers of the bound variables in prefix order.
type Query struct {
	NumVars  int
	NumFree  int
	DomSizes []int
	Quants   []Quantifier // length NumVars-NumFree
	Atoms    []Atom
}

// Validate checks the query's structure.
func (q *Query) Validate() error {
	if len(q.DomSizes) != q.NumVars {
		return fmt.Errorf("logicq: %d domain sizes for %d variables", len(q.DomSizes), q.NumVars)
	}
	if len(q.Quants) != q.NumVars-q.NumFree {
		return fmt.Errorf("logicq: %d quantifiers for %d bound variables", len(q.Quants), q.NumVars-q.NumFree)
	}
	for _, a := range q.Atoms {
		if len(a.Vars) != a.Rel.Arity {
			return fmt.Errorf("logicq: atom %s%v does not match arity %d", a.Rel.Name, a.Vars, a.Rel.Arity)
		}
		for _, v := range a.Vars {
			if v < 0 || v >= q.NumVars {
				return fmt.Errorf("logicq: atom %s mentions unknown variable %d", a.Rel.Name, v)
			}
		}
	}
	return nil
}

// atomFactor compiles an atom into a {0,1}-valued indicator factor over the
// atom's distinct variables; repeated variables become equality selections.
func atomFactor[V any](d *semiring.Domain[V], a Atom, domSizes []int) (*factor.Factor[V], error) {
	positions := map[int][]int{} // variable -> positions in the atom
	var vars []int
	for i, v := range a.Vars {
		if _, seen := positions[v]; !seen {
			vars = append(vars, v)
		}
		positions[v] = append(positions[v], i)
	}
	sortInts(vars)
	var tuples [][]int
	var values []V
	for _, t := range a.Rel.Tuples {
		ok := true
		row := make([]int, len(vars))
		for i, v := range vars {
			ps := positions[v]
			row[i] = t[ps[0]]
			for _, p := range ps[1:] {
				if t[p] != t[ps[0]] {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
			if row[i] < 0 || row[i] >= domSizes[v] {
				return nil, fmt.Errorf("logicq: relation %s value %d exceeds domain of variable %d",
					a.Rel.Name, row[i], v)
			}
		}
		if ok {
			tuples = append(tuples, row)
			values = append(values, d.One)
		}
	}
	return factor.New(d, vars, tuples, values, func(x, y V) V { return x })
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// ---------------------------------------------------------------------------
// Compilations to FAQ.
// ---------------------------------------------------------------------------

// compile builds a core.Query over the given domain with per-bound-variable
// aggregates produced by agg.
func compile[V any](q *Query, d *semiring.Domain[V],
	agg func(qu Quantifier) core.Aggregate[V]) (*core.Query[V], error) {

	if err := q.Validate(); err != nil {
		return nil, err
	}
	cq := &core.Query[V]{
		D:                d,
		NVars:            q.NumVars,
		DomSizes:         append([]int(nil), q.DomSizes...),
		NumFree:          q.NumFree,
		Aggs:             make([]core.Aggregate[V], q.NumVars),
		IdempotentInputs: true, // all factors are {0,1}-valued
	}
	for i := 0; i < q.NumVars; i++ {
		if i < q.NumFree {
			cq.Aggs[i] = core.Free[V]()
		} else {
			cq.Aggs[i] = agg(q.Quants[i-q.NumFree])
		}
	}
	for _, a := range q.Atoms {
		f, err := atomFactor(d, a, q.DomSizes)
		if err != nil {
			return nil, err
		}
		cq.Factors = append(cq.Factors, f)
	}
	return cq, nil
}

// CompileQCQ compiles Φ to a Boolean FAQ: ∃ becomes ∨ and ∀ becomes ∧ (the
// product of the Boolean semiring).  Table 1, row QCQ.
func CompileQCQ(q *Query) (*core.Query[bool], error) {
	return compile(q, semiring.Bool(), func(qu Quantifier) core.Aggregate[bool] {
		if qu == ForAll {
			return core.ProductAgg[bool]()
		}
		return core.SemiringAgg(semiring.OpOr())
	})
}

// CompileSharpQCQ compiles #QCQ (Example 1.3): count the free-variable
// tuples satisfying Φ.  The query is rewritten with no free variables —
// the former free variables get Σ aggregates over D = N, ∃ becomes max and
// ∀ becomes ×.  Table 1, row #QCQ.
func CompileSharpQCQ(q *Query) (*core.Query[int64], error) {
	cq, err := compile(q, semiring.Int(), func(qu Quantifier) core.Aggregate[int64] {
		if qu == ForAll {
			return core.ProductAgg[int64]()
		}
		return core.SemiringAgg(semiring.OpIntMax())
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < cq.NumFree; i++ {
		cq.Aggs[i] = core.SemiringAgg(semiring.OpIntSum())
	}
	cq.NumFree = 0
	return cq, nil
}

// SolveQCQ evaluates a quantified conjunctive query on e: for NumFree = 0
// the Boolean answer, otherwise the listing of free-variable tuples
// satisfying Φ.  The variable ordering is chosen by the planner, so a sweep
// of shape-identical queries (examples/logic) plans once and hits e's plan
// cache thereafter.
func SolveQCQ(e *core.Engine[bool], q *Query) (*factor.Factor[bool], error) {
	cq, err := CompileQCQ(q)
	if err != nil {
		return nil, err
	}
	prep, err := e.Prepare(cq)
	if err != nil {
		return nil, err
	}
	res, err := prep.Run(context.Background())
	if err != nil {
		return nil, err
	}
	return res.Output, nil
}

// CountQCQ solves #QCQ on e: the number of free-variable assignments
// satisfying the quantified query.
func CountQCQ(e *core.Engine[int64], q *Query) (int64, error) {
	cq, err := CompileSharpQCQ(q)
	if err != nil {
		return 0, err
	}
	prep, err := e.Prepare(cq)
	if err != nil {
		return 0, err
	}
	res, err := prep.Run(context.Background())
	if err != nil {
		return 0, err
	}
	return res.Scalar(), nil
}

// CountCQ solves #CQ (Table 1 row 3): the number of free-variable tuples
// with an extension satisfying all atoms; all bound variables are ∃.
func CountCQ(e *core.Engine[int64], q *Query) (int64, error) {
	for _, qu := range q.Quants {
		if qu != Exists {
			return 0, fmt.Errorf("logicq: #CQ requires all bound quantifiers to be ∃")
		}
	}
	return CountQCQ(e, q)
}

// EvalCQ evaluates a conjunctive query (Example A.5): the listing of free
// variable tuples.  All bound variables must be ∃.
func EvalCQ(e *core.Engine[bool], q *Query) (*factor.Factor[bool], error) {
	for _, qu := range q.Quants {
		if qu != Exists {
			return nil, fmt.Errorf("logicq: CQ evaluation requires all bound quantifiers to be ∃")
		}
	}
	return SolveQCQ(e, q)
}

// BoolCQ answers a Boolean conjunctive query (Example A.3): all variables
// bound by ∃.
func BoolCQ(e *core.Engine[bool], q *Query) (bool, error) {
	if q.NumFree != 0 {
		return false, fmt.Errorf("logicq: BCQ has no free variables")
	}
	out, err := SolveQCQ(e, q)
	if err != nil {
		return false, err
	}
	return out.Size() > 0, nil
}

// ---------------------------------------------------------------------------
// Naive baselines (Table 1 "previous algorithm" column for #QCQ: no
// non-trivial algorithm, i.e. enumeration).
// ---------------------------------------------------------------------------

// NaiveCount evaluates #QCQ by enumerating all assignments; exponential.
func NaiveCount(q *Query) (int64, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	assignment := make([]int, q.NumVars)
	var evalBound func(i int) bool
	evalBound = func(i int) bool {
		if i == q.NumVars {
			return satisfiesAll(q, assignment)
		}
		qu := q.Quants[i-q.NumFree]
		for x := 0; x < q.DomSizes[i]; x++ {
			assignment[i] = x
			v := evalBound(i + 1)
			if qu == Exists && v {
				return true
			}
			if qu == ForAll && !v {
				return false
			}
		}
		return qu == ForAll
	}
	var count int64
	var rec func(i int)
	rec = func(i int) {
		if i == q.NumFree {
			if evalBound(q.NumFree) {
				count++
			}
			return
		}
		for x := 0; x < q.DomSizes[i]; x++ {
			assignment[i] = x
			rec(i + 1)
		}
	}
	rec(0)
	return count, nil
}

// NaiveBool evaluates a sentence (NumFree = 0) by enumeration.
func NaiveBool(q *Query) (bool, error) {
	n, err := NaiveCount(q)
	return n > 0, err
}

func satisfiesAll(q *Query, assignment []int) bool {
	for _, a := range q.Atoms {
		found := false
		for _, t := range a.Rel.Tuples {
			match := true
			for i, v := range a.Vars {
				if t[i] != assignment[v] {
					match = false
					break
				}
			}
			if match {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// ChenDalmau builds the Section 7.2.1 family
// Φ = ∀X_0 ... ∀X_{n-1} ∃X_n (S(X_0,...,X_{n-1}) ∧ ⋀_i R(X_i, X_n))
// over the given relations.
func ChenDalmau(n int, s, r *Relation, dom int) *Query {
	q := &Query{
		NumVars:  n + 1,
		NumFree:  0,
		DomSizes: make([]int, n+1),
	}
	var sVars []int
	for i := 0; i <= n; i++ {
		q.DomSizes[i] = dom
	}
	for i := 0; i < n; i++ {
		q.Quants = append(q.Quants, ForAll)
		sVars = append(sVars, i)
	}
	q.Quants = append(q.Quants, Exists)
	q.Atoms = append(q.Atoms, Atom{Rel: s, Vars: sVars})
	for i := 0; i < n; i++ {
		q.Atoms = append(q.Atoms, Atom{Rel: r, Vars: []int{i, n}})
	}
	return q
}
