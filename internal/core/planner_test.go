package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/faqdb/faq/internal/hypergraph"
)

// TestPlanExactEqualsFHTWForFAQSS verifies Proposition 5.12: when every
// aggregate is the same semiring aggregate (and no free variables), the
// FAQ-width equals the fractional hypertree width of the hypergraph.
func TestPlanExactEqualsFHTWForFAQSS(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(5)
		h := hypergraph.Random(rng, n, 2+rng.Intn(4), 3)
		tags := make([]string, n)
		for i := range tags {
			tags[i] = "op:sum"
		}
		s := &Shape{H: h, N: n, NumFree: 0, Tags: tags}
		wc := hypergraph.NewWidthCalc(h)
		plan, err := PlanExact(s, wc)
		if err != nil {
			t.Fatal(err)
		}
		fhtw, _ := wc.FHTW()
		if math.Abs(plan.Width-fhtw) > 1e-6 {
			t.Fatalf("trial %d: faqw = %v but fhtw = %v on %v", trial, plan.Width, fhtw, h)
		}
	}
}

// TestPlanExactExample56 reproduces Example 5.6: the mixed query
// φ = max x0 max x1 Πx2 Σx3 max x4 max x5  ψ04 ψ14 ψ023 ψ125 has
// faqw(φ) = 2 in general but faqw(φ) = 1 under the {0,1}-range promise,
// realized by the ordering (x5, x1, x2, x3, x4, x6) of the paper.
func TestPlanExactExample56(t *testing.T) {
	tags := []string{"op:max", "op:max", tagProduct, "op:sum", "op:max", "op:max"}
	edges := [][]int{{0, 4}, {1, 4}, {0, 2, 3}, {1, 2, 5}}

	general := shapeOf(6, 0, tags, edges, false)
	wc := hypergraph.NewWidthCalc(general.H)
	plan, err := PlanExact(general, wc)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.Width-2) > 1e-6 {
		t.Fatalf("general faqw = %v, want 2 (paper: O(N²))", plan.Width)
	}

	idem := shapeOf(6, 0, tags, edges, true)
	plan2, err := PlanExact(idem, wc)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan2.Width-1) > 1e-6 {
		t.Fatalf("idempotent faqw = %v, want 1 (paper: O(N))", plan2.Width)
	}
	// The paper's ordering (X5,X1,X2,X3,X4,X6) = (4,0,1,2,3,5) realizes it.
	w, _, err := FAQWidth(idem, wc, []int{4, 0, 1, 2, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w-1) > 1e-6 {
		t.Fatalf("paper ordering has width %v, want 1", w)
	}
}

// TestChenDalmauGap reproduces Section 7.2.1: the QCQ family
// Φ = ∀X_0 ... ∀X_{n-1} ∃X_n (S(X_0..X_{n-1}) ∧ ⋀ R(X_i, X_n))
// has prefix-graph width n+1 (Chen–Dalmau) but faqw = 2.
func TestChenDalmauGap(t *testing.T) {
	for _, n := range []int{3, 5, 8} {
		tags := make([]string, n+1)
		var edges [][]int
		var sEdge []int
		for i := 0; i < n; i++ {
			tags[i] = tagProduct
			sEdge = append(sEdge, i)
			edges = append(edges, []int{i, n})
		}
		tags[n] = "op:max"
		edges = append(edges, sEdge)
		s := shapeOf(n+1, 0, tags, edges, true)
		wc := hypergraph.NewWidthCalc(s.H)
		plan, err := PlanExact(s, wc)
		if err != nil {
			t.Fatal(err)
		}
		// The fractional cover of U = all variables is λ_S = (n-1)/n plus
		// λ_{R_i} = 1/n, so faqw = 2 − 1/n ≤ 2: bounded, as the paper
		// states, while the prefix width grows as n+1.
		want := 2 - 1.0/float64(n)
		if math.Abs(plan.Width-want) > 1e-6 {
			t.Fatalf("n=%d: faqw = %v, want %v", n, plan.Width, want)
		}
		// The prefix-width proxy: |U| when eliminating the ∃ variable first
		// is n+1 (every variable joins the elimination set).
		steps := s.H.EliminationSequence(s.ExpressionOrder(), s.Product)
		if got := steps[n].U.Len(); got != n+1 {
			t.Fatalf("n=%d: |U| for the ∃ variable = %d, want %d", n, got, n+1)
		}
	}
}

// TestPlannersAgreeWithBruteForce is the planner integration test: on random
// mixed queries every planner must emit a φ-equivalent ordering (a linear
// extension of the poset) under which InsideOut reproduces brute force, and
// widths must be ordered exact ≤ expression, exact ≤ greedy, and
// approx ≤ exact + g(exact) with the exact black box (g = identity).
func TestPlannersAgreeWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		nv := 2 + rng.Intn(4)
		nf := rng.Intn(nv)
		q := randomQuery(rng, nv, nf)
		s := q.Shape()
		wc := hypergraph.NewWidthCalc(s.H)
		poset, err := posetOf(s)
		if err != nil {
			t.Fatal(err)
		}
		want, err := BruteForce(q)
		if err != nil {
			t.Fatal(err)
		}

		exact, err := PlanExact(s, wc)
		if err != nil {
			t.Fatal(err)
		}
		greedy, err := PlanGreedy(s, wc)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := PlanApprox(s, wc, ExactDecomp)
		if err != nil {
			t.Fatal(err)
		}
		expr, err := PlanExpression(s, wc)
		if err != nil {
			t.Fatal(err)
		}

		if exact.Width > expr.Width+1e-6 {
			t.Fatalf("trial %d: exact %v worse than expression %v", trial, exact.Width, expr.Width)
		}
		if greedy.Width < exact.Width-1e-6 {
			t.Fatalf("trial %d: greedy %v beat exact %v", trial, greedy.Width, exact.Width)
		}
		if approx.Width > 2*exact.Width+1e-6 {
			t.Fatalf("trial %d: approx %v exceeds opt+g(opt) = %v (tags %v, edges %v)",
				trial, approx.Width, 2*exact.Width, s.Tags, s.H)
		}

		for _, plan := range []*Plan{exact, greedy, approx} {
			if !poset.IsLinearExtension(plan.Order) {
				t.Fatalf("trial %d: %s order %v not a linear extension", trial, plan.Method, plan.Order)
			}
			// Realized width must match the claim.
			w, _, err := FAQWidth(s, wc, plan.Order)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(w-plan.Width) > 1e-6 {
				t.Fatalf("trial %d: %s claims width %v, realizes %v", trial, plan.Method, plan.Width, w)
			}
			res, err := runOrder(q, plan.Order, DefaultOptions())
			if err != nil {
				t.Fatalf("trial %d (%s): %v", trial, plan.Method, err)
			}
			if !res.Output.Equal(fd, want) {
				t.Fatalf("trial %d: InsideOut under %s order %v disagrees with brute force",
					trial, plan.Method, plan.Order)
			}
		}
	}
}

// TestPlanApproxFAQSSMatchesFHTW: for FAQ-SS the Section 7 construction with
// an exact black box achieves g(opt) = opt exactly (the stronger FAQ-SS
// guarantee mentioned in Section 2.3.1).
func TestPlanApproxFAQSSMatchesFHTW(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(4)
		h := hypergraph.Random(rng, n, 2+rng.Intn(4), 3)
		tags := make([]string, n)
		for i := range tags {
			tags[i] = "op:sum"
		}
		s := &Shape{H: h, N: n, NumFree: 0, Tags: tags}
		wc := hypergraph.NewWidthCalc(h)
		approx, err := PlanApprox(s, wc, ExactDecomp)
		if err != nil {
			t.Fatal(err)
		}
		fhtw, _ := wc.FHTW()
		if math.Abs(approx.Width-fhtw) > 1e-6 {
			t.Fatalf("trial %d: approx width %v, fhtw %v", trial, approx.Width, fhtw)
		}
	}
}

func TestSolveEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 20; trial++ {
		q := randomQuery(rng, 2+rng.Intn(4), rng.Intn(3))
		want, err := BruteForce(q)
		if err != nil {
			t.Fatal(err)
		}
		res, plan, err := solve(q, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if plan == nil || len(plan.Order) != q.NVars {
			t.Fatal("solve returned a bogus plan")
		}
		if !res.Output.Equal(fd, want) {
			t.Fatalf("trial %d: planned run output mismatch under %s", trial, plan.Method)
		}
	}
}

func TestChoosePlanPrefersSmallerWidth(t *testing.T) {
	// Triangle with a bad expression order is still planned at fhtw = 1.5.
	tags := []string{"op:sum", "op:sum", "op:sum"}
	s := shapeOf(3, 0, tags, [][]int{{0, 1}, {1, 2}, {0, 2}}, false)
	wc := hypergraph.NewWidthCalc(s.H)
	plan := ChoosePlan(s, wc)
	if math.Abs(plan.Width-1.5) > 1e-6 {
		t.Fatalf("plan width = %v, want 1.5", plan.Width)
	}
}
