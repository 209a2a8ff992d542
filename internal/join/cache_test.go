package join

import (
	"math"
	"math/rand"
	"testing"

	"github.com/faqdb/faq/internal/factor"
	"github.com/faqdb/faq/internal/semiring"
)

func TestTrieCacheMemoizesRegisteredFactors(t *testing.T) {
	d := semiring.Float()
	rng := rand.New(rand.NewSource(11))
	f := randomFactor(rng, d, []int{0, 1}, 8, 30)
	g := randomFactor(rng, d, []int{0, 1}, 8, 30) // not registered
	ctr := new(CacheCounters)
	c := NewTrieCache([]*factor.Factor[float64]{f}, ctr)
	pos := map[int]int{0: 0, 1: 1}

	t1, err := c.trieFor(f, pos)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := c.trieFor(f, pos)
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Fatal("registered factor rebuilt its trie on the second call")
	}
	// A different column order is a distinct entry, also memoized.
	rev := map[int]int{0: 1, 1: 0}
	r1, _ := c.trieFor(f, rev)
	r2, _ := c.trieFor(f, rev)
	if r1 == t1 || r1 != r2 {
		t.Fatal("per-order memoization broken")
	}
	// Unregistered factors always build fresh and are never stored.
	u1, _ := c.trieFor(g, pos)
	u2, _ := c.trieFor(g, pos)
	if u1 == u2 {
		t.Fatal("unregistered factor was cached")
	}
	hits, misses := ctr.Hits.Load(), ctr.Misses.Load()
	if hits != 2 || misses != 2 {
		t.Fatalf("counters hits=%d misses=%d, want 2 hits", hits, misses)
	}
}

func TestTrieCacheProjectionIdentityIsStable(t *testing.T) {
	d := semiring.Float()
	f := randomFactor(rand.New(rand.NewSource(12)), d, []int{0, 1, 2}, 6, 40)
	c := NewTrieCache([]*factor.Factor[float64]{f}, nil)

	p1 := c.Projection(d, f, []int{0, 1})
	p2 := c.Projection(d, f, []int{0, 1})
	if p1 != p2 {
		t.Fatal("projection identity changed between calls: its trie could never cache")
	}
	if !p1.Equal(d, f.IndicatorProjection(d, []int{0, 1})) {
		t.Fatal("cached projection differs from a fresh one")
	}
	// The cached projection is itself registered: its trie memoizes too.
	pos := map[int]int{0: 0, 1: 1}
	t1, _ := c.trieFor(p1, pos)
	t2, _ := c.trieFor(p1, pos)
	if t1 != t2 {
		t.Fatal("projection trie not memoized")
	}
	// Projections of unregistered factors are computed but not stored.
	g := randomFactor(rand.New(rand.NewSource(13)), d, []int{0, 1, 2}, 6, 40)
	if c.Projection(d, g, []int{0, 1}) == c.Projection(d, g, []int{0, 1}) {
		t.Fatal("unregistered projection was cached")
	}
}

func TestNilTrieCacheBuildsFresh(t *testing.T) {
	d := semiring.Float()
	f := randomFactor(rand.New(rand.NewSource(14)), d, []int{0, 1}, 8, 20)
	var c *TrieCache[float64]
	if _, err := c.trieFor(f, map[int]int{0: 0, 1: 1}); err != nil {
		t.Fatal(err)
	}
	if got := c.Projection(d, f, []int{0}); got == nil {
		t.Fatal("nil cache projection")
	}
	c.Update(f, f, 0, 8)
	if tries, projs := c.Len(); tries != 0 || projs != 0 {
		t.Fatal("nil cache stored something")
	}
}

// TestCachedScanMatchesUncached asserts the end-to-end invariant the engine
// relies on: the same elimination run answered through a warm cache is
// bit-identical to a cold build.
func TestCachedScanMatchesUncached(t *testing.T) {
	d := semiring.Float()
	op := semiring.OpFloatSum()
	rng := rand.New(rand.NewSource(15))
	fs := []*factor.Factor[float64]{
		randomFactor(rng, d, []int{0, 1}, 10, 50),
		randomFactor(rng, d, []int{1, 2}, 10, 50),
		randomFactor(rng, d, []int{0, 2}, 10, 50),
	}
	vars := []int{2, 0, 1}
	want, err := EliminateInnermost(d, op, fs, vars, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctr := new(CacheCounters)
	c := NewTrieCache(fs, ctr)
	for round := 0; round < 3; round++ {
		got, err := EliminateInnermostOn(nil, nil, 1, c, d, op, fs, nil, vars, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !want.Equal(d, got) {
			t.Fatalf("round %d: cached scan diverged", round)
		}
	}
	if ctr.Hits.Load() == 0 {
		t.Fatal("warm rounds never hit the cache")
	}
}

// TestTrieCacheUpdateInvalidates: swapping a factor for its successor must
// drop every entry derived from the old data — its tries AND the tries of
// projections built from it — and serve the successor's data afterwards.
func TestTrieCacheUpdateInvalidates(t *testing.T) {
	d := semiring.Float()
	rng := rand.New(rand.NewSource(21))
	old := randomFactor(rng, d, []int{0, 1, 2}, 6, 40)
	ctr := new(CacheCounters)
	c := NewTrieCache([]*factor.Factor[float64]{old}, ctr)
	pos := map[int]int{0: 0, 1: 1, 2: 2}

	t1, err := c.trieFor(old, pos)
	if err != nil {
		t.Fatal(err)
	}
	p1 := c.Projection(d, old, []int{0, 1})
	if _, err := c.trieFor(p1, map[int]int{0: 0, 1: 1}); err != nil {
		t.Fatal(err)
	}
	next := randomFactor(rng, d, []int{0, 1, 2}, 6, 40)
	c.Update(old, next, 0, 6)
	// Three entries go: old's trie, its projection, the projection's trie.
	if n := ctr.Invalidations.Load(); n != 3 {
		t.Fatalf("Update recorded %d invalidations, want 3", n)
	}
	if tries, projs := c.Len(); tries != 0 || projs != 0 {
		t.Fatalf("entries survived the update: %d tries, %d projections (the projection cascade leaked)", tries, projs)
	}
	// The old pointer is deregistered: rebuilt fresh, never stored.
	u1, _ := c.trieFor(old, pos)
	u2, _ := c.trieFor(old, pos)
	if u1 == t1 || u1 == u2 {
		t.Fatal("stale entry served for the replaced factor")
	}
	// The successor memoizes like any registered factor.
	n1, _ := c.trieFor(next, pos)
	n2, _ := c.trieFor(next, pos)
	if n1 != n2 {
		t.Fatal("updated factor does not memoize")
	}
}

// TestTrieCacheUpdateCycleBumpsVersion: an update cycle that returns to a
// pointer the cache still holds (old → new → old) must not serve entries
// built before the swap-out, even though the pointer is identical.
func TestTrieCacheUpdateCycleBumpsVersion(t *testing.T) {
	d := semiring.Float()
	rng := rand.New(rand.NewSource(22))
	a := randomFactor(rng, d, []int{0, 1}, 8, 30)
	b := randomFactor(rng, d, []int{0, 1}, 8, 30)
	c := NewTrieCache([]*factor.Factor[float64]{a}, nil)
	pos := map[int]int{0: 0, 1: 1}

	ta1, _ := c.trieFor(a, pos)
	c.Update(a, b, 0, 8)
	c.Update(b, a, 0, 8) // the same pointer re-enters (e.g. a rolled-back state)
	ta2, _ := c.trieFor(a, pos)
	ta3, _ := c.trieFor(a, pos)
	if ta2 == ta1 {
		t.Fatal("entry built before the swap-out served after the pointer re-entered")
	}
	if ta2 != ta3 {
		t.Fatal("re-registered factor does not memoize")
	}

	// And updating INTO a still-registered pointer drops its entries: the
	// memoized trie from before the update may not be served after it.
	c.Update(nil, a, 0, 8)
	ta4, _ := c.trieFor(a, pos)
	if ta4 == ta2 {
		t.Fatal("entry built before the update survived an update onto the same pointer")
	}
}

// TestSupportViewMatchesProjection: a factor passed as support joins exactly
// like its full-arity indicator projection — bit-identical output at every
// worker count — while the cache stores only the factor's own trie.
func TestSupportViewMatchesProjection(t *testing.T) {
	forceBlocks(t)
	d := semiring.Float()
	op := semiring.OpFloatSum()
	rng := rand.New(rand.NewSource(25))
	r := randomFactor(rng, d, []int{0, 1}, 10, 60)
	s := randomFactor(rng, d, []int{1, 2}, 10, 60)
	u := randomFactor(rng, d, []int{0, 2}, 10, 60)
	vars := []int{1, 0, 2}
	proj := u.IndicatorProjection(d, []int{0, 1, 2})
	want, err := EliminateInnermost(d, op, []*factor.Factor[float64]{r, s, proj}, vars, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		pool := NewPool(workers)
		ctr := new(CacheCounters)
		c := NewTrieCache([]*factor.Factor[float64]{r, s, u}, ctr)
		for round := 0; round < 2; round++ {
			got, err := EliminateInnermostOn(nil, pool, 0, c, d, op,
				[]*factor.Factor[float64]{r, s}, []*factor.Factor[float64]{u}, vars, nil)
			if err != nil {
				t.Fatal(err)
			}
			same := want.Equal(d, got)
			for i := 0; same && i < got.Size(); i++ {
				same = math.Float64bits(got.Values[i]) == math.Float64bits(want.Values[i])
			}
			if !same {
				t.Fatalf("workers=%d round %d: support view diverged from the projection", workers, round)
			}
		}
		pool.Close()
		if tries, projs := c.Len(); tries != 3 || projs != 0 {
			t.Fatalf("workers=%d: cache holds %d tries, %d projections; want 3 and 0", workers, tries, projs)
		}
		if m := ctr.Misses.Load(); m != 3 {
			t.Fatalf("workers=%d: %d misses, want one per factor", workers, m)
		}
	}
}
