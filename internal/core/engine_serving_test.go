package core

import (
	"sync"
	"testing"

	"github.com/faqdb/faq/internal/factor"
	"github.com/faqdb/faq/internal/semiring"
)

// freeVarsQuery returns the triangle query with its first nfree variables
// freed — nfree ∈ {0, 1, 2} gives three distinct shapes over the same
// hypergraph.
func freeVarsQuery(t *testing.T, nfree int) *Query[float64] {
	t.Helper()
	q := engineTriangleQuery(t, 6, 0)
	q.NumFree = nfree
	for i := 0; i < nfree; i++ {
		q.Aggs[i] = Free[float64]()
	}
	return q
}

// TestEnginePlanCacheEvictionOrder fills a 2-entry cache past capacity and
// checks that a recency touch changes which entry is evicted: after
// A, B, touch-A, C the victim is B, not A.
func TestEnginePlanCacheEvictionOrder(t *testing.T) {
	e := NewEngine[float64](EngineOptions{Workers: 1, PlanCacheSize: 2})
	defer e.Close()
	qa, qb, qc := freeVarsQuery(t, 0), freeVarsQuery(t, 1), freeVarsQuery(t, 2)

	for _, q := range []*Query[float64]{qa, qb} {
		if _, err := e.Prepare(q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Prepare(qa); err != nil { // touch A: B becomes LRU
		t.Fatal(err)
	}
	if st := e.Stats(); st.PlanCacheMisses != 2 || st.PlanCacheHits != 1 || st.PlansCached != 2 {
		t.Fatalf("before overflow: %+v", st)
	}
	if _, err := e.Prepare(qc); err != nil { // overflow: evicts B
		t.Fatal(err)
	}
	if st := e.Stats(); st.PlansCached != 2 || st.PlanCacheMisses != 3 {
		t.Fatalf("after overflow: %+v", st)
	}
	// A survived the overflow (it was touched), B did not.
	if _, err := e.Prepare(qa); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.PlanCacheHits != 2 {
		t.Fatalf("touched entry was evicted: %+v", st)
	}
	if _, err := e.Prepare(qb); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.PlanCacheMisses != 4 {
		t.Fatalf("LRU entry was not evicted: %+v", st)
	}
}

// TestRetypeSharesPlanAcrossValueTypes prepares the same shape through a
// Float handle and an Int handle on one runtime and checks they reuse one
// cached plan: the plan cache is keyed by the untyped shape only.
func TestRetypeSharesPlanAcrossValueTypes(t *testing.T) {
	ef := NewEngine[float64](EngineOptions{Workers: 1})
	defer ef.Close()
	ei := Retype[int64](ef)

	pf, err := ef.Prepare(freeVarsQuery(t, 0))
	if err != nil {
		t.Fatal(err)
	}

	// Same shape over int64 data.
	d := semiring.Int()
	var tuples [][]int
	var values []int64
	for a := 0; a < 6; a++ {
		for b := 0; b < 6; b++ {
			if (a*7+b*3)%4 == 0 && a != b {
				tuples = append(tuples, []int{a, b})
				values = append(values, 1)
			}
		}
	}
	mk := func(vars []int) *factor.Factor[int64] {
		f, err := factor.New(d, vars, tuples, values, nil)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	qi := &Query[int64]{
		D: d, NVars: 3, DomSizes: []int{6, 6, 6}, NumFree: 0,
		Aggs: []Aggregate[int64]{
			SemiringAgg(semiring.OpIntSum()),
			SemiringAgg(semiring.OpIntSum()),
			SemiringAgg(semiring.OpIntSum()),
		},
		Factors: []*factor.Factor[int64]{mk([]int{0, 1}), mk([]int{1, 2}), mk([]int{0, 2})},
	}
	pi, err := ei.Prepare(qi)
	if err != nil {
		t.Fatal(err)
	}
	if pf.Plan() != pi.Plan() {
		t.Fatalf("Float and Int handles cached separate plans for one shape: %p vs %p", pf.Plan(), pi.Plan())
	}
	st := ef.Stats()
	if st.PlanCacheMisses != 1 || st.PlanCacheHits != 1 || st.PlansCached != 1 {
		t.Fatalf("shared runtime stats: %+v", st)
	}
	if ei.Stats() != st {
		t.Fatalf("handles disagree on shared stats: %+v vs %+v", ei.Stats(), st)
	}
}

// TestPrepareSingleflight releases a herd of goroutines at one cold shape
// and checks the Section 6–7 planners ran exactly once: every other prepare
// was either coalesced onto the in-flight pass or answered from the cache
// it filled.
func TestPrepareSingleflight(t *testing.T) {
	const herd = 64
	e := NewEngine[float64](EngineOptions{Workers: 1})
	defer e.Close()

	q := freeVarsQuery(t, 1) // shared: Prepare never mutates its query
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, err := e.Prepare(q)
			errs <- err
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.PlanCacheMisses != 1 {
		t.Fatalf("cold shape planned %d times under the herd, want 1: %+v", st.PlanCacheMisses, st)
	}
	if st.PlanCacheHits+st.PlanCoalesced != herd-1 {
		t.Fatalf("hits %d + coalesced %d != %d: %+v", st.PlanCacheHits, st.PlanCoalesced, herd-1, st)
	}
	if st.Prepared != herd {
		t.Fatalf("prepared %d, want %d", st.Prepared, herd)
	}
}
