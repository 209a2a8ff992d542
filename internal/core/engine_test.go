package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/faqdb/faq/internal/factor"
	"github.com/faqdb/faq/internal/semiring"
)

// triangleQuery builds the triangle-count query over a deterministic edge
// set parameterized by a value shift, so different data shares one shape.
func engineTriangleQuery(t *testing.T, dom int, shift float64) *Query[float64] {
	t.Helper()
	d := semiring.Float()
	var tuples [][]int
	var values []float64
	for a := 0; a < dom; a++ {
		for b := 0; b < dom; b++ {
			if (a*7+b*3)%4 == 0 && a != b {
				tuples = append(tuples, []int{a, b})
				values = append(values, 1+shift)
			}
		}
	}
	mk := func(vars []int) *factor.Factor[float64] {
		f, err := factor.New(d, vars, tuples, values, nil)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	return &Query[float64]{
		D: d, NVars: 3, DomSizes: []int{dom, dom, dom}, NumFree: 0,
		Aggs: []Aggregate[float64]{
			SemiringAgg(semiring.OpFloatSum()),
			SemiringAgg(semiring.OpFloatSum()),
			SemiringAgg(semiring.OpFloatSum()),
		},
		Factors: []*factor.Factor[float64]{mk([]int{0, 1}), mk([]int{1, 2}), mk([]int{0, 2})},
	}
}

func TestShapeKeyDistinguishesShapes(t *testing.T) {
	qa := engineTriangleQuery(t, 8, 0)
	qb := engineTriangleQuery(t, 12, 1) // different data + domain, same shape
	if qa.Shape().Key() != qb.Shape().Key() {
		t.Fatalf("shape keys differ for shape-identical queries:\n%s\n%s",
			qa.Shape().Key(), qb.Shape().Key())
	}
	qc := engineTriangleQuery(t, 8, 0)
	qc.Aggs[2] = SemiringAgg(semiring.OpFloatMax())
	if qa.Shape().Key() == qc.Shape().Key() {
		t.Fatal("shape keys collide across different aggregates")
	}
	qd := engineTriangleQuery(t, 8, 0)
	qd.NumFree = 1
	qd.Aggs[0] = Free[float64]()
	if qa.Shape().Key() == qd.Shape().Key() {
		t.Fatal("shape keys collide across different free prefixes")
	}
}

func TestEnginePlanCacheAccounting(t *testing.T) {
	e := NewEngine[float64](EngineOptions{Workers: 2})
	defer e.Close()

	if _, err := e.Prepare(engineTriangleQuery(t, 8, 0)); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Prepared != 1 || st.PlanCacheMisses != 1 || st.PlanCacheHits != 0 || st.PlansCached != 1 {
		t.Fatalf("after first prepare: %+v", st)
	}
	// Shape-identical query (different data): must hit.
	if _, err := e.Prepare(engineTriangleQuery(t, 16, 2)); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.Prepared != 2 || st.PlanCacheMisses != 1 || st.PlanCacheHits != 1 || st.PlansCached != 1 {
		t.Fatalf("after shape-identical prepare: %+v", st)
	}
	// Different shape: miss again.
	q := engineTriangleQuery(t, 8, 0)
	q.NumFree = 1
	q.Aggs[0] = Free[float64]()
	if _, err := e.Prepare(q); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.PlanCacheMisses != 2 || st.PlansCached != 2 {
		t.Fatalf("after different-shape prepare: %+v", st)
	}
}

func TestEnginePlanCacheLRUEviction(t *testing.T) {
	e := NewEngine[float64](EngineOptions{Workers: 1, PlanCacheSize: 2})
	defer e.Close()
	shapes := []*Query[float64]{engineTriangleQuery(t, 6, 0), nil, nil}
	q1 := engineTriangleQuery(t, 6, 0)
	q1.NumFree = 1
	q1.Aggs[0] = Free[float64]()
	q2 := engineTriangleQuery(t, 6, 0)
	q2.NumFree = 2
	q2.Aggs[0] = Free[float64]()
	q2.Aggs[1] = Free[float64]()
	shapes[1], shapes[2] = q1, q2

	for _, q := range shapes { // 3 distinct shapes through a 2-entry cache
		if _, err := e.Prepare(q); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.PlansCached != 2 || st.PlanCacheMisses != 3 {
		t.Fatalf("after filling: %+v", st)
	}
	// shapes[0] was evicted (LRU): preparing it again must miss.
	if _, err := e.Prepare(shapes[0]); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.PlanCacheMisses != 4 {
		t.Fatalf("evicted shape did not miss: %+v", st)
	}
	// shapes[2] is still resident: hit.
	if _, err := e.Prepare(shapes[2]); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.PlanCacheHits != 1 {
		t.Fatalf("resident shape did not hit: %+v", st)
	}
}

func TestPreparedRunMatchesBruteForce(t *testing.T) {
	e := NewEngine[float64](EngineOptions{Workers: 3})
	defer e.Close()
	q := engineTriangleQuery(t, 10, 0)
	prep, err := e.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := BruteForceScalar(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalar() != want {
		t.Fatalf("prepared run = %v, brute force = %v", res.Scalar(), want)
	}
	if st := e.Stats(); st.Runs != 1 {
		t.Fatalf("runs counter: %+v", st)
	}
}

func TestRunWithFactorsFreshData(t *testing.T) {
	e := NewEngine[float64](EngineOptions{Workers: 2})
	defer e.Close()
	prep, err := e.Prepare(engineTriangleQuery(t, 10, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Mutated data of the same shape: the cached plan must serve it and
	// match the oracle on the new query.
	fresh := engineTriangleQuery(t, 10, 3)
	res, err := prep.RunWithFactors(context.Background(), fresh.Factors)
	if err != nil {
		t.Fatal(err)
	}
	want, err := BruteForceScalar(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalar() != want {
		t.Fatalf("RunWithFactors = %v, brute force = %v", res.Scalar(), want)
	}
	// And the original data still runs unchanged afterwards.
	orig, err := prep.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	origWant, err := BruteForceScalar(engineTriangleQuery(t, 10, 0))
	if err != nil {
		t.Fatal(err)
	}
	if orig.Scalar() != origWant {
		t.Fatalf("original data after RunWithFactors = %v, want %v", orig.Scalar(), origWant)
	}
}

func TestRunWithFactorsRejectsShapeMismatch(t *testing.T) {
	e := NewEngine[float64](EngineOptions{Workers: 1})
	defer e.Close()
	q := engineTriangleQuery(t, 6, 0)
	prep, err := e.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.RunWithFactors(context.Background(), q.Factors[:2]); err == nil {
		t.Fatal("factor-count mismatch not rejected")
	}
	bad := engineTriangleQuery(t, 6, 0).Factors
	bad[0], bad[1] = bad[1], bad[0] // ψ_{12} where ψ_{01} was prepared
	if _, err := prep.RunWithFactors(context.Background(), bad); err == nil ||
		!strings.Contains(err.Error(), "covers") {
		t.Fatalf("support mismatch not rejected: %v", err)
	}
	// Fresh data exceeding the prepared domain must fail validation.
	big := engineTriangleQuery(t, 12, 0)
	if _, err := prep.RunWithFactors(context.Background(), big.Factors); err == nil {
		t.Fatal("out-of-domain fresh data not rejected")
	}
}

func TestPrepareOrderExplicitOrdering(t *testing.T) {
	e := NewEngine[float64](EngineOptions{Workers: 2})
	defer e.Close()
	q := engineTriangleQuery(t, 8, 0)
	prep, err := e.PrepareOrder(q, []int{2, 0, 1}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if prep.Plan().Method != "user" {
		t.Fatalf("method = %q", prep.Plan().Method)
	}
	res, err := prep.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := BruteForceScalar(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalar() != want {
		t.Fatalf("explicit-order run = %v, want %v", res.Scalar(), want)
	}
	if _, err := e.PrepareOrder(q, []int{0, 0, 1}, DefaultOptions()); err == nil {
		t.Fatal("non-permutation ordering not rejected")
	}
}

func TestPrepareCancelledPlanner(t *testing.T) {
	e := NewEngine[float64](EngineOptions{Workers: 1})
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.PrepareCtx(ctx, engineTriangleQuery(t, 6, 0), DefaultOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Prepare returned %v", err)
	}
}

func TestEnginePlannerOption(t *testing.T) {
	for _, planner := range []string{"auto", "exact", "greedy", "approx", "expression"} {
		e := NewEngine[float64](EngineOptions{Workers: 1, Planner: planner})
		prep, err := e.Prepare(engineTriangleQuery(t, 6, 0))
		if err != nil {
			t.Fatalf("planner %q: %v", planner, err)
		}
		res, err := prep.Run(context.Background())
		if err != nil {
			t.Fatalf("planner %q run: %v", planner, err)
		}
		want, _ := BruteForceScalar(engineTriangleQuery(t, 6, 0))
		if res.Scalar() != want {
			t.Fatalf("planner %q: got %v want %v", planner, res.Scalar(), want)
		}
		e.Close()
	}
	e := NewEngine[float64](EngineOptions{Planner: "nonsense"})
	defer e.Close()
	if _, err := e.Prepare(engineTriangleQuery(t, 6, 0)); err == nil {
		t.Fatal("unknown planner not rejected")
	}
}

func TestValidateRejectsNonSemiringAggregate(t *testing.T) {
	// Regression for the OpFloatMin lawfulness quirk surfaced by the PR-1
	// harness: min over (float64, ·) silently violates min(x, 0) = x, so
	// the engine must refuse it and point at the Tropical domain.
	q := engineTriangleQuery(t, 6, 0)
	q.Aggs[1] = SemiringAgg(semiring.OpFloatMin())
	err := q.Validate()
	if err == nil {
		t.Fatal("OpFloatMin aggregate passed Validate")
	}
	if !strings.Contains(err.Error(), "Tropical") {
		t.Fatalf("error does not route users to Tropical: %v", err)
	}
	e := NewEngine[float64](EngineOptions{})
	defer e.Close()
	if _, err := e.Prepare(q); err == nil {
		t.Fatal("Prepare accepted an OpFloatMin aggregate")
	}

	// The lawful formulation: same min-product program in the Tropical
	// domain (Zero = +∞, ⊗ = +), where min(x, Zero) = x holds.
	d := semiring.Tropical()
	mk := func(vars []int) *factor.Factor[float64] {
		return factor.FromFunc(d, vars, []int{4, 4, 4}, func(tup []int) float64 {
			return float64(tup[0] + 2*tup[1])
		})
	}
	tq := &Query[float64]{
		D: d, NVars: 3, DomSizes: []int{4, 4, 4}, NumFree: 0,
		Aggs: []Aggregate[float64]{
			SemiringAgg(semiring.OpTropicalMin()),
			SemiringAgg(semiring.OpTropicalMin()),
			SemiringAgg(semiring.OpTropicalMin()),
		},
		Factors: []*factor.Factor[float64]{mk([]int{0, 1}), mk([]int{1, 2}), mk([]int{0, 2})},
	}
	prep, err := e.Prepare(tq)
	if err != nil {
		t.Fatalf("tropical min-product: %v", err)
	}
	res, err := prep.Run(context.Background())
	if err != nil {
		t.Fatalf("tropical min-product: %v", err)
	}
	want, err := BruteForceScalar(tq)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalar() != want {
		t.Fatalf("tropical min-product = %v, brute force = %v", res.Scalar(), want)
	}
}
