// TrieCache: per-query memoization of CSR tries and indicator projections
// for the prepare-once-run-many serving path.  Each prepared query owns one
// cache over its own input factors, so the entries live exactly as long as
// the query does: a resident dataset query or a delta session keeps its
// tries warm for its whole life, a one-shot request's tries die with the
// request, and unrelated traffic can never evict anything.  The cache has
// no capacity bounds of its own — the number of live prepared queries is
// bounded by whoever holds them (faqd's -max-sessions), and each query's
// entries are bounded by its factors × the join orders its plan uses.
//
// Entries are keyed by factor identity plus the order/projection
// fingerprint.  Update swaps a factor for its successor (the delta path of
// incremental maintenance), dropping every entry derived from the old data
// — so a cache entry can never serve stale rows even though factors evolve
// in place.  Unregistered factors — intermediates, one-shot fresh data —
// always build fresh and are never stored.
//
// A projection onto a superset of its factor's variables is not cached at
// all: the join reads it as a support view of the factor's own trie (see
// newRunner), so it costs neither a row copy nor a second trie.
package join

import (
	"sync"
	"sync/atomic"

	"github.com/faqdb/faq/internal/factor"
	"github.com/faqdb/faq/internal/semiring"
)

// DefaultTrieCacheFactors was the registered-factor cap of the engine-wide
// cache that per-query caches replaced.  Nothing in this package reads it;
// it stays exported at its old value because faqbench derives its warm-up
// lengths from it.
const DefaultTrieCacheFactors = 1024

// CacheCounters are cumulative lookup counters, shared by every cache built
// on them (an engine shares one set across all its prepared queries):
// Hits/Misses count lookups of registered factors, Invalidations counts
// entries dropped because their factor was updated past them.
type CacheCounters struct {
	Hits, Misses, Invalidations atomic.Int64
}

// TrieCache memoizes per-factor derived structures across the runs of one
// prepared query.  All methods are safe for concurrent use and on a nil
// receiver (nil means "build fresh, cache nothing").
type TrieCache[V any] struct {
	mu    sync.Mutex
	slots map[*factor.Factor[V]]*slot[V]
	ctr   *CacheCounters
}

// slot holds the entries of one registered factor.  Update replaces a slot
// rather than clearing it, so a build that raced an Update finds its slot
// gone and does not store an entry derived from superseded data.
type slot[V any] struct {
	tries map[string]*trie[V]          // by trieOrderKey
	projs map[string]*factor.Factor[V] // by varsKey(onto); each is registered in turn
}

// NewTrieCache returns a cache with the given factors registered, counting
// its lookups in ctr (nil gives the cache private counters).
func NewTrieCache[V any](factors []*factor.Factor[V], ctr *CacheCounters) *TrieCache[V] {
	if ctr == nil {
		ctr = new(CacheCounters)
	}
	c := &TrieCache[V]{slots: make(map[*factor.Factor[V]]*slot[V], len(factors)), ctr: ctr}
	for _, f := range factors {
		if f != nil {
			c.slots[f] = &slot[V]{}
		}
	}
	return c
}

// Update replaces a registered factor with its successor: old's entries
// (and the entries of projections derived from it) are invalidated, and
// new is registered with no entries.  lo/hi report the lead-key range the
// underlying delta touched; invalidation is conservatively whole-factor —
// range granularity lives in the delta executor's per-block dirtiness,
// which re-runs only the blocks intersecting [lo, hi) — so the range here
// is documentation of intent, not a partial-drop instruction.  Updating an
// unregistered old simply registers new; updating onto a factor that is
// still registered (an update cycle returning to a held pointer) drops its
// entries too.
func (c *TrieCache[V]) Update(old, new *factor.Factor[V], lo, hi int32) {
	if c == nil {
		return
	}
	_, _ = lo, hi
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.dropLocked(old)
	if new != nil {
		n += c.dropLocked(new)
		c.slots[new] = &slot[V]{}
	}
	c.ctr.Invalidations.Add(int64(n))
}

// dropLocked deregisters f and its entries, cascading through the
// projections derived from it.  Returns the number of entries removed.
func (c *TrieCache[V]) dropLocked(f *factor.Factor[V]) int {
	s, ok := c.slots[f]
	if !ok {
		return 0
	}
	delete(c.slots, f)
	n := len(s.tries) + len(s.projs)
	for _, p := range s.projs {
		n += c.dropLocked(p)
	}
	return n
}

// Len returns the current populations: cached tries and cached projections.
func (c *TrieCache[V]) Len() (tries, projections int) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.slots {
		tries += len(s.tries)
		projections += len(s.projs)
	}
	return tries, projections
}

// varsKey fingerprints a variable sequence.
func varsKey(vars []int) string {
	b := make([]byte, 0, len(vars)*4)
	for _, v := range vars {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}

// trieOrderKey fingerprints the column permutation a trie would use for f
// under the global position map — the positions within f.Vars sorted by
// global position, exactly the `order` slice buildTrie derives.  The trie's
// contents depend only on this relative permutation, so two join orders
// that visit the factor's columns the same way share one cached trie.
func trieOrderKey[V any](f *factor.Factor[V], pos map[int]int) string {
	order := make([]int, 0, len(f.Vars))
	for i := range f.Vars {
		if _, ok := pos[f.Vars[i]]; !ok {
			return "" // unknown variable: let buildTrie report the error
		}
		order = append(order, i)
	}
	// Insertion sort by global position: factor arities are tiny.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && pos[f.Vars[order[j]]] < pos[f.Vars[order[j-1]]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return varsKey(order)
}

// trieFor returns the CSR trie of f along pos, from the cache when f is a
// registered factor (or a cached projection of one).  Concurrent first
// builds may both construct; both results are identical and the first
// stored one is served from then on.
func (c *TrieCache[V]) trieFor(f *factor.Factor[V], pos map[int]int) (*trie[V], error) {
	if c == nil {
		return buildTrie(f, pos)
	}
	c.mu.Lock()
	s, registered := c.slots[f]
	if !registered {
		// Intermediate factors are fresh every run — expected builds, not
		// cache misses, so they stay out of the counters.
		c.mu.Unlock()
		return buildTrie(f, pos)
	}
	key := trieOrderKey(f, pos)
	if t, ok := s.tries[key]; ok {
		c.mu.Unlock()
		c.ctr.Hits.Add(1)
		return t, nil
	}
	c.mu.Unlock()
	c.ctr.Misses.Add(1)

	t, err := buildTrie(f, pos) // build outside the lock
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.slots[f] != s {
		return t, nil // f was updated while we built: serve but do not store
	}
	if prev, ok := s.tries[key]; ok {
		return prev, nil
	}
	if s.tries == nil {
		s.tries = map[string]*trie[V]{}
	}
	s.tries[key] = t
	return t, nil
}

// Projection returns the indicator projection of f onto the given variable
// set, memoized when f is a registered factor.  Cached projections are
// themselves registered, so their tries are cacheable in turn — on a warm
// cache a repeat Run performs no trie or projection builds at all.
func (c *TrieCache[V]) Projection(d *semiring.Domain[V], f *factor.Factor[V], onto []int) *factor.Factor[V] {
	if c == nil {
		return f.IndicatorProjection(d, onto)
	}
	c.mu.Lock()
	s, registered := c.slots[f]
	if !registered {
		c.mu.Unlock()
		return f.IndicatorProjection(d, onto)
	}
	key := varsKey(onto)
	if p, ok := s.projs[key]; ok {
		c.mu.Unlock()
		c.ctr.Hits.Add(1)
		return p
	}
	c.mu.Unlock()
	c.ctr.Misses.Add(1)

	p := f.IndicatorProjection(d, onto)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.slots[f] != s {
		return p // f was updated while we built: serve but do not store
	}
	if prev, ok := s.projs[key]; ok {
		// Lost a race: keep the stored copy so trie keys stay stable.
		return prev
	}
	if s.projs == nil {
		s.projs = map[string]*factor.Factor[V]{}
	}
	s.projs[key] = p
	c.slots[p] = &slot[V]{}
	return p
}
