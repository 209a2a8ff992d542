package logicq

import (
	"math/rand"
	"testing"

	"github.com/faqdb/faq/internal/core"
)

// pathQuery builds Φ(x0) = Q1 x1 Q2 x2 (R(x0,x1) ∧ S(x1,x2)) over dom.
func pathQuery(r, s *Relation, dom, numFree int, quants ...Quantifier) *Query {
	return &Query{
		NumVars:  3,
		NumFree:  numFree,
		DomSizes: []int{dom, dom, dom},
		Quants:   quants,
		Atoms: []Atom{
			{Rel: r, Vars: []int{0, 1}},
			{Rel: s, Vars: []int{1, 2}},
		},
	}
}

func randomRelation(rng *rand.Rand, name string, arity, dom, size int) *Relation {
	r := &Relation{Name: name, Arity: arity}
	for i := 0; i < size; i++ {
		t := make([]int, arity)
		for j := range t {
			t[j] = rng.Intn(dom)
		}
		r.Add(t...)
	}
	return r
}

func TestBoolCQ(t *testing.T) {
	bools := core.NewEngine[bool](core.EngineOptions{})
	defer bools.Close()
	r := &Relation{Name: "R", Arity: 2}
	r.Add(0, 1)
	s := &Relation{Name: "S", Arity: 2}
	s.Add(1, 0)
	q := pathQuery(r, s, 2, 0, Exists, Exists, Exists)
	q.Quants = []Quantifier{Exists, Exists, Exists}
	got, err := BoolCQ(bools, q)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("R(0,1), S(1,0) satisfies the path query")
	}
	// Remove the join partner.
	s.Tuples = [][]int{{0, 0}}
	got, err = BoolCQ(bools, q)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("no joining tuple exists")
	}
}

func TestEvalCQListsAnswers(t *testing.T) {
	bools := core.NewEngine[bool](core.EngineOptions{})
	defer bools.Close()
	r := &Relation{Name: "R", Arity: 2}
	r.Add(0, 1)
	r.Add(1, 1)
	s := &Relation{Name: "S", Arity: 2}
	s.Add(1, 0)
	q := pathQuery(r, s, 2, 1, Exists, Exists)
	out, err := EvalCQ(bools, q)
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() != 2 {
		t.Fatalf("answers = %d, want 2 (x0 ∈ {0,1})", out.Size())
	}
}

func TestCountCQ(t *testing.T) {
	counts := core.NewEngine[int64](core.EngineOptions{})
	defer counts.Close()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		dom := 2 + rng.Intn(3)
		r := randomRelation(rng, "R", 2, dom, 1+rng.Intn(6))
		s := randomRelation(rng, "S", 2, dom, 1+rng.Intn(6))
		q := pathQuery(r, s, dom, 1, Exists, Exists)
		got, err := CountCQ(counts, q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NaiveCount(q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: #CQ = %d, naive %d", trial, got, want)
		}
	}
}

func TestCountCQRejectsForAll(t *testing.T) {
	counts := core.NewEngine[int64](core.EngineOptions{})
	defer counts.Close()
	r := &Relation{Name: "R", Arity: 2}
	q := pathQuery(r, r, 2, 1, ForAll, Exists)
	if _, err := CountCQ(counts, q); err == nil {
		t.Fatal("#CQ with ∀ should be rejected")
	}
}

func TestQCQAlternation(t *testing.T) {
	bools := core.NewEngine[bool](core.EngineOptions{})
	defer bools.Close()
	// Φ = ∀x0 ∃x1 R(x0, x1): true iff every domain value has an R-successor.
	r := &Relation{Name: "R", Arity: 2}
	r.Add(0, 1)
	r.Add(1, 0)
	q := &Query{
		NumVars: 2, NumFree: 0, DomSizes: []int{2, 2},
		Quants: []Quantifier{ForAll, Exists},
		Atoms:  []Atom{{Rel: r, Vars: []int{0, 1}}},
	}
	out, err := SolveQCQ(bools, q)
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() == 0 {
		t.Fatal("∀∃ should hold")
	}
	r.Tuples = [][]int{{0, 1}} // value 1 now has no successor
	out, err = SolveQCQ(bools, q)
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() != 0 {
		t.Fatal("∀∃ should fail")
	}
}

func TestRepeatedVariableAtom(t *testing.T) {
	bools := core.NewEngine[bool](core.EngineOptions{})
	defer bools.Close()
	// Φ = ∃x0 R(x0, x0): diagonal membership.
	r := &Relation{Name: "R", Arity: 2}
	r.Add(0, 1)
	r.Add(1, 1)
	q := &Query{
		NumVars: 1, NumFree: 0, DomSizes: []int{2},
		Quants: []Quantifier{Exists},
		Atoms:  []Atom{{Rel: r, Vars: []int{0, 0}}},
	}
	got, err := BoolCQ(bools, q)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("R(1,1) witnesses the diagonal")
	}
}

// Property: #QCQ via InsideOut equals naive enumeration on random quantified
// queries with mixed prefixes.
func TestQuickSharpQCQMatchesNaive(t *testing.T) {
	counts := core.NewEngine[int64](core.EngineOptions{})
	defer counts.Close()
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		nv := 2 + rng.Intn(3)
		nf := rng.Intn(nv)
		dom := 2 + rng.Intn(2)
		doms := make([]int, nv)
		for i := range doms {
			doms[i] = dom
		}
		q := &Query{NumVars: nv, NumFree: nf, DomSizes: doms}
		for i := nf; i < nv; i++ {
			if rng.Intn(2) == 0 {
				q.Quants = append(q.Quants, Exists)
			} else {
				q.Quants = append(q.Quants, ForAll)
			}
		}
		// Random binary atoms covering all variables.
		covered := make([]bool, nv)
		for len(q.Atoms) < 2 || !allCovered(covered) {
			a, b := rng.Intn(nv), rng.Intn(nv)
			rel := randomRelation(rng, "R", 2, dom, 1+rng.Intn(dom*dom))
			q.Atoms = append(q.Atoms, Atom{Rel: rel, Vars: []int{a, b}})
			covered[a], covered[b] = true, true
		}
		got, err := CountQCQ(counts, q)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := NaiveCount(q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: #QCQ = %d, naive = %d (quants %v)", trial, got, want, q.Quants)
		}
	}
}

func allCovered(bs []bool) bool {
	for _, b := range bs {
		if !b {
			return false
		}
	}
	return true
}

// TestChenDalmauSemantics checks the Section 7.2.1 family end to end: with R
// the complete relation the sentence holds; removing every successor of one
// tuple breaks it.
func TestChenDalmauSemantics(t *testing.T) {
	bools := core.NewEngine[bool](core.EngineOptions{})
	defer bools.Close()
	n, dom := 3, 2
	s := &Relation{Name: "S", Arity: n}
	var fill func(t []int)
	fill = func(tu []int) {
		if len(tu) == n {
			s.Add(tu...)
			return
		}
		for v := 0; v < dom; v++ {
			fill(append(tu, v))
		}
	}
	fill(nil)
	r := &Relation{Name: "R", Arity: 2}
	for a := 0; a < dom; a++ {
		r.Add(a, 0)
	}
	q := ChenDalmau(n, s, r, dom)
	got, err := NaiveBool(q)
	if err != nil {
		t.Fatal(err)
	}
	out, err := SolveQCQ(bools, q)
	if err != nil {
		t.Fatal(err)
	}
	if (out.Size() > 0) != got {
		t.Fatalf("InsideOut %v, naive %v", out.Size() > 0, got)
	}
	if !got {
		t.Fatal("complete S and total R should satisfy the sentence")
	}
	// Break totality of R for value 1.
	r.Tuples = [][]int{{0, 0}}
	out, err = SolveQCQ(bools, q)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := NaiveBool(q)
	if (out.Size() > 0) != want {
		t.Fatalf("after breaking R: InsideOut %v, naive %v", out.Size() > 0, want)
	}
}

func TestValidationErrors(t *testing.T) {
	r := &Relation{Name: "R", Arity: 2}
	q := &Query{NumVars: 2, NumFree: 0, DomSizes: []int{2},
		Quants: []Quantifier{Exists, Exists},
		Atoms:  []Atom{{Rel: r, Vars: []int{0, 1}}}}
	if err := q.Validate(); err == nil {
		t.Fatal("domain size mismatch should fail")
	}
	q.DomSizes = []int{2, 2}
	q.Atoms[0].Vars = []int{0}
	if err := q.Validate(); err == nil {
		t.Fatal("arity mismatch should fail")
	}
	q.Atoms[0].Vars = []int{0, 7}
	if err := q.Validate(); err == nil {
		t.Fatal("unknown variable should fail")
	}
}
