package core

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/faqdb/faq/internal/factor"
	"github.com/faqdb/faq/internal/join"
	"github.com/faqdb/faq/internal/semiring"
	"github.com/faqdb/faq/internal/sortx"
)

// cacheTriangle builds a triangle-count query over random edge sets.
func cacheTriangle(seed int64, dom, edges int) *Query[float64] {
	d := semiring.Float()
	rng := rand.New(rand.NewSource(seed))
	mk := func(vars []int) *factor.Factor[float64] {
		var tuples [][]int
		var values []float64
		for i := 0; i < edges; i++ {
			tuples = append(tuples, []int{rng.Intn(dom), rng.Intn(dom)})
			values = append(values, 1)
		}
		f, err := factor.New(d, vars, tuples, values, func(a, b float64) float64 { return a })
		if err != nil {
			panic(err)
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

// TestPreparedRunsWarmTrieCache: repeat Runs of a PreparedQuery must hit its
// trie cache and keep returning the bit-identical scalar, and a
// RunWithFactors interleaved between them must neither read from nor write
// to it (fresh factors are unregistered and bypass the cache).
func TestPreparedRunsWarmTrieCache(t *testing.T) {
	eng := NewEngine[float64](EngineOptions{Workers: 2})
	defer eng.Close()
	q := cacheTriangle(31, 24, 160)
	prep, err := eng.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	first, err := prep.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	coldMisses := eng.Stats().TrieCacheMisses
	if coldMisses == 0 {
		t.Fatal("cold run recorded no cache misses: the cache is not wired in")
	}
	for i := 0; i < 3; i++ {
		res, err := prep.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.Scalar() != first.Scalar() {
			t.Fatalf("warm run %d: %v != %v", i, res.Scalar(), first.Scalar())
		}
	}
	st := eng.Stats()
	if st.TrieCacheHits == 0 {
		t.Fatal("warm runs never hit the trie cache")
	}
	if st.TrieCacheMisses != coldMisses {
		t.Fatalf("warm runs missed the cache (%d -> %d misses): per-run garbage is being keyed",
			coldMisses, st.TrieCacheMisses)
	}

	// Fresh data through RunWithFactors: correct result, cache untouched.
	// (The oracle's own Prepare+Run records misses in the engine counters —
	// snapshot them after it, before the RunWithFactors under test.)
	fresh := cacheTriangle(32, 24, 160)
	wantFresh, err := eng.Prepare(fresh)
	if err != nil {
		t.Fatal(err)
	}
	wf, err := wantFresh.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	s1 := eng.Stats()
	got, err := prep.RunWithFactors(ctx, fresh.Factors)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scalar() != wf.Scalar() {
		t.Fatalf("RunWithFactors = %v, want %v", got.Scalar(), wf.Scalar())
	}
	s2 := eng.Stats()
	if s2.TrieCacheHits != s1.TrieCacheHits || s2.TrieCacheMisses != s1.TrieCacheMisses {
		t.Fatalf("RunWithFactors touched the trie cache (%d/%d -> %d/%d)",
			s1.TrieCacheHits, s1.TrieCacheMisses, s2.TrieCacheHits, s2.TrieCacheMisses)
	}

	// And the prepared data still runs correctly off the warm cache.
	res, err := prep.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalar() != first.Scalar() {
		t.Fatalf("post-refresh run diverged: %v != %v", res.Scalar(), first.Scalar())
	}
}

// TestResidentTriesSurviveOneShotTraffic: a prepared query's tries belong
// to it, so any amount of unrelated Prepare+Run traffic on the same engine
// — here three times the registration cap of the engine-wide cache this
// replaced — leaves them warm: the resident query's next Run only hits,
// never misses, and returns the bit-identical scalar.
func TestResidentTriesSurviveOneShotTraffic(t *testing.T) {
	eng := NewEngine[float64](EngineOptions{Workers: 1})
	defer eng.Close()
	ctx := context.Background()
	resident, err := eng.Prepare(cacheTriangle(41, 24, 160))
	if err != nil {
		t.Fatal(err)
	}
	first, err := resident.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*join.DefaultTrieCacheFactors+1; i++ {
		p, err := eng.Prepare(cacheTriangle(int64(1000+i), 6, 8))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(ctx); err != nil {
			t.Fatal(err)
		}
	}
	before := eng.Stats()
	res, err := resident.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	after := eng.Stats()
	if after.TrieCacheHits <= before.TrieCacheHits {
		t.Fatalf("resident run after one-shot traffic hit nothing (%d -> %d hits)",
			before.TrieCacheHits, after.TrieCacheHits)
	}
	if after.TrieCacheMisses != before.TrieCacheMisses {
		t.Fatalf("resident run rebuilt tries: misses %d -> %d", before.TrieCacheMisses, after.TrieCacheMisses)
	}
	if after.TrieCacheEvictions != 0 {
		t.Fatalf("evictions = %d, want 0", after.TrieCacheEvictions)
	}
	if math.Float64bits(res.Scalar()) != math.Float64bits(first.Scalar()) {
		t.Fatalf("resident scalar %v, first run %v", res.Scalar(), first.Scalar())
	}
}

// TestScalarTriangleTrieBuilds counts the trie work of a scalar triangle.
// Whatever the order, the first elimination joins all three factors over
// {x, y, z}; the factor missing the eliminated variable enters as an
// indicator projection onto all three, a superset of its own variables, so
// it joins through its own trie (the support view) instead of a projected
// copy with a second trie.  The cold run therefore builds exactly one trie
// per factor — three misses, with the support factor's trie hit again by
// the next elimination — and caches no projection; a warm run builds none.
func TestScalarTriangleTrieBuilds(t *testing.T) {
	for _, workers := range []int{1, 2} {
		eng := NewEngine[float64](EngineOptions{Workers: workers})
		prep, err := eng.Prepare(cacheTriangle(51, 24, 160))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		cold, err := prep.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		st := eng.Stats()
		if st.TrieCacheMisses != 3 || st.TrieCacheHits != 1 {
			t.Fatalf("workers=%d: cold run misses=%d hits=%d, want 3 and 1",
				workers, st.TrieCacheMisses, st.TrieCacheHits)
		}
		if tries, projs := prep.tries.Len(); tries != 3 || projs != 0 {
			t.Fatalf("workers=%d: cache holds %d tries and %d projections, want 3 and 0", workers, tries, projs)
		}
		warm, err := prep.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		st2 := eng.Stats()
		if st2.TrieCacheMisses != st.TrieCacheMisses || st2.TrieCacheHits != st.TrieCacheHits+4 {
			t.Fatalf("workers=%d: warm run misses %d -> %d, hits %d -> %d; want no misses and 4 hits",
				workers, st.TrieCacheMisses, st2.TrieCacheMisses, st.TrieCacheHits, st2.TrieCacheHits)
		}
		if math.Float64bits(warm.Scalar()) != math.Float64bits(cold.Scalar()) {
			t.Fatalf("workers=%d: warm %v, cold %v", workers, warm.Scalar(), cold.Scalar())
		}
		want, err := BruteForceScalar(prep.Query())
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(want) != math.Float64bits(cold.Scalar()) {
			t.Fatalf("workers=%d: triangle sum %v, brute force %v", workers, cold.Scalar(), want)
		}
		eng.Close()
	}
}

// TestTriangleBuildsTriesWithoutSorting: the planners break width ties
// toward ascending variable id, the order factors store their columns in,
// so a cold Run of the triangle builds every trie in one pass over the
// stored rows.  A permuted build would re-sort its rows and move one of the
// process-wide sort counters; the counters are read around Prepare and the
// cold Run, so this test must not run in parallel with others.
func TestTriangleBuildsTriesWithoutSorting(t *testing.T) {
	q := cacheTriangle(71, 64, 3000) // ≥ sortx.RadixMinRows rows per factor
	for _, workers := range []int{1, 2} {
		eng := NewEngine[float64](EngineOptions{Workers: workers})
		radix, comparison := sortx.RadixSorts(), sortx.ComparisonSorts()
		prep, err := eng.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := prep.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if dr, dc := sortx.RadixSorts()-radix, sortx.ComparisonSorts()-comparison; dr != 0 || dc != 0 {
			t.Fatalf("workers=%d: plan %v; cold run did %d radix and %d comparison sorts, want 0 and 0",
				workers, prep.Plan().Order, dr, dc)
		}
		want, err := BruteForceScalar(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(want) != math.Float64bits(res.Scalar()) {
			t.Fatalf("workers=%d: triangle sum %v, brute force %v", workers, res.Scalar(), want)
		}
		eng.Close()
	}
}

// TestTrieCacheConcurrentRunsAndDeltas drives one prepared query's cache
// from several goroutines at once: Runs of the prepared factors racing
// ApplyDeltas batches that replace those factors in the cache.  Runs must
// keep returning the prepared answer and every delta result must match a
// recompute of the committed factors; run under -race it checks the
// cache's locking.
func TestTrieCacheConcurrentRunsAndDeltas(t *testing.T) {
	eng := NewEngine[float64](EngineOptions{Workers: 2})
	defer eng.Close()
	ctx := context.Background()
	prep, err := eng.Prepare(cacheTriangle(61, 12, 80))
	if err != nil {
		t.Fatal(err)
	}
	first, err := prep.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				res, err := prep.Run(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Scalar() != first.Scalar() {
					t.Errorf("concurrent run %v, prepared answer %v", res.Scalar(), first.Scalar())
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		row := []int32{int32(i % 12), int32((i * 5) % 12)}
		res, err := prep.ApplyDeltas(ctx, []Delta[float64]{
			{Factor: i % 3, Op: factor.DeltaInsert, Rows: row, Values: []float64{float64(1 + i%4)}},
		})
		if err != nil {
			t.Fatal(err)
		}
		nq := *prep.Query()
		nq.Factors = prep.CurrentFactors()
		want, err := BruteForceScalar(&nq)
		if err != nil {
			t.Fatal(err)
		}
		if res.Scalar() != want {
			t.Fatalf("batch %d: maintained %v, recompute %v", i, res.Scalar(), want)
		}
	}
	close(done)
	wg.Wait()
}
