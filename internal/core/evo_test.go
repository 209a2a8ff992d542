package core

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/faqdb/faq/internal/factor"
	"github.com/faqdb/faq/internal/hypergraph"
	"github.com/faqdb/faq/internal/semiring"
)

// TestEVOExample613 reproduces Example 6.13: for
// φ = Σx0 max_x1 Σx2 ψ01 ψ02 we must get
// EVO(φ) = {(0,1,2), (0,2,1), (2,0,1)} and LinEx(P) = {(0,2,1), (2,0,1)}.
func TestEVOExample613(t *testing.T) {
	tags := []string{"op:sum", "op:max", "op:sum"}
	s := shapeOf(3, 0, tags, [][]int{{0, 1}, {0, 2}}, false)
	tree := BuildExprTree(s)
	if got := tree.Render(); got != "{}free[{0,2}op:sum[{1}op:max]]" {
		t.Fatalf("tree = %s", got)
	}
	p, err := NewPoset(tree, s.N)
	if err != nil {
		t.Fatal(err)
	}
	var linex [][]int
	p.EnumerateLinearExtensions(func(order []int) bool {
		linex = append(linex, append([]int(nil), order...))
		return true
	})
	wantLinex := [][]int{{0, 2, 1}, {2, 0, 1}}
	if !sameOrderSet(linex, wantLinex) {
		t.Fatalf("LinEx = %v, want %v", linex, wantLinex)
	}

	evo, err := EnumerateEVO(s)
	if err != nil {
		t.Fatal(err)
	}
	wantEVO := [][]int{{0, 1, 2}, {0, 2, 1}, {2, 0, 1}}
	if !sameOrderSet(evo, wantEVO) {
		t.Fatalf("EVO = %v, want %v", evo, wantEVO)
	}
	for _, order := range wantEVO {
		if ok, err := InEVO(s, order); err != nil || !ok {
			t.Fatalf("InEVO(%v) = %v, %v; want true", order, ok, err)
		}
	}
	for _, order := range [][]int{{1, 0, 2}, {1, 2, 0}, {2, 1, 0}} {
		if ok, _ := InEVO(s, order); ok {
			t.Fatalf("InEVO(%v) = true; want false", order)
		}
	}
	// Proposition 6.11: all EVO members share the FAQ-width (here 1).
	wc := hypergraph.NewWidthCalc(s.H)
	for _, order := range wantEVO {
		w, _, err := FAQWidth(s, wc, order)
		if err != nil {
			t.Fatal(err)
		}
		if w != 1 {
			t.Fatalf("faqw(%v) = %v, want 1", order, w)
		}
	}
}

// TestEVOBeyondLinEx reproduces the Section 6.1 counterexample: for
// φ = Σx0 Σx1 max_x2 max_x3 Σx4 ψ04 ψ14 ψ02 ψ13, the orderings
// (4,0,2,1,3) and (4,1,3,0,2) are φ-equivalent but not linear extensions.
func TestEVOBeyondLinEx(t *testing.T) {
	tags := []string{"op:sum", "op:sum", "op:max", "op:max", "op:sum"}
	s := shapeOf(5, 0, tags, [][]int{{0, 4}, {1, 4}, {0, 2}, {1, 3}}, false)
	tree := BuildExprTree(s)
	if got := tree.Render(); got != "{}free[{0,1,4}op:sum[{2}op:max {3}op:max]]" {
		t.Fatalf("tree = %s", got)
	}
	p, err := NewPoset(tree, s.N)
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range [][]int{{4, 0, 2, 1, 3}, {4, 1, 3, 0, 2}} {
		if p.IsLinearExtension(order) {
			t.Fatalf("%v should not be a linear extension (2 precedes 1)", order)
		}
		ok, err := InEVO(s, order)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("InEVO(%v) = false; the paper shows it is equivalent", order)
		}
	}
	// An ordering that hoists a max above the Σ block is not equivalent.
	if ok, _ := InEVO(s, []int{2, 0, 1, 4, 3}); ok {
		t.Fatal("(2,0,1,4,3) must not be φ-equivalent")
	}
}

// TestEVOSoundnessBySemantics verifies Theorem 6.8/6.23 end to end: running
// InsideOut under any enumerated EVO ordering yields the same function as
// the expression order, on random inputs.  Odd trials use {0,1}-valued
// factors under the idempotent-inputs promise — the regime where Σ blocks
// must stay anchored outside product scopes.
func TestEVOSoundnessBySemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 80; trial++ {
		nv := 2 + rng.Intn(3)
		nf := rng.Intn(nv)
		q := randomQuery(rng, nv, nf)
		if trial%2 == 1 {
			for _, f := range q.Factors {
				for i := range f.Values {
					f.Values[i] = 1
				}
			}
			q.IdempotentInputs = true
		}
		s := q.Shape()
		want, err := BruteForce(q)
		if err != nil {
			t.Fatal(err)
		}
		evo, err := EnumerateEVO(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(evo) == 0 {
			t.Fatalf("trial %d: EVO is empty (must contain the expression order)", trial)
		}
		foundIdentity := false
		for _, order := range evo {
			if reflect.DeepEqual(order, s.ExpressionOrder()) {
				foundIdentity = true
			}
			res, err := runOrder(q, order, DefaultOptions())
			if err != nil {
				t.Fatalf("trial %d order %v: %v", trial, order, err)
			}
			if !res.Output.Equal(fd, want) {
				t.Fatalf("trial %d: InsideOut under EVO order %v disagrees with brute force\nquery tags %v\n got %v\nwant %v",
					trial, order, s.Tags, res.Output, want)
			}
		}
		if !foundIdentity {
			t.Fatalf("trial %d: expression order missing from EVO (tags %v, edges %v)", trial, s.Tags, s.H)
		}
	}
}

// TestNonEVOOrderingCanDiffer demonstrates the converse of soundness:
// swapping sum past max (a non-EVO ordering) changes the result on the
// witness function of Proposition 6.7.
func TestNonEVOOrderingCanDiffer(t *testing.T) {
	// φ = Σ_x0 max_x1 ψ01 with ψ01 the 2×2 identity matrix:
	// Σ max = 1 + 1 = 2, but max Σ = max(1, 1) = 1.
	f01 := mkFactor(t, []int{0, 1}, [][]int{{0, 0}, {1, 1}}, []float64{1, 1})
	q := &Query[float64]{
		D: fd, NVars: 2, DomSizes: []int{2, 2}, NumFree: 0,
		Aggs: []Aggregate[float64]{
			SemiringAgg(semiring.OpFloatSum()),
			SemiringAgg(semiring.OpFloatMax()),
		},
		Factors: []*factor.Factor[float64]{f01},
	}
	if ok, _ := InEVO(q.Shape(), []int{1, 0}); ok {
		t.Fatal("(1,0) must not be φ-equivalent for Σ max")
	}
	want, err := BruteForceScalar(q)
	if err != nil {
		t.Fatal(err)
	}
	if want != 2 {
		t.Fatalf("brute force = %v, hand computed 2", want)
	}
	res, err := runOrder(q, []int{1, 0}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Scalar(); got != 1 {
		t.Fatalf("swapped ordering computed %v, expected the different value 1", got)
	}
}

// sameOrderSet compares two sets of orderings ignoring sequence.
func sameOrderSet(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(o []int) string {
		s := ""
		for _, v := range o {
			s += string(rune('a' + v))
		}
		return s
	}
	m := map[string]bool{}
	for _, o := range a {
		m[key(o)] = true
	}
	for _, o := range b {
		if !m[key(o)] {
			return false
		}
	}
	return true
}
