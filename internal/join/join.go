// Package join implements OutsideIn (Section 5.1.1 of the paper): a
// backtracking-search evaluation of a multiway join of listing-representation
// factors, in the style of worst-case-optimal join algorithms (generic
// join / LeapFrog TrieJoin).  Variables are bound outermost-first; at each
// level the candidate values are the intersection of the children of every
// factor trie constraining the variable, enumerated from the smallest such
// set.  On AGM-tight instances the number of explored partial assignments is
// within the fractional-edge-cover bound of Theorem 5.1.
//
// Tries are flat CSR structures, not pointer trees: each level is a pair of
// parallel arrays — sorted child keys plus child-offset ranges into the next
// level — built in two O(n) passes (count, then fill exact-size levels) from
// the factor's already-sorted row block (plus one re-sort when the join
// order permutes the factor's columns).  Candidate intersection walks the
// lead trie's key range and locates each key in the other tries.  A probe
// into a trie's first level — one sorted unique key set — is answered by
// that level's rank index when the level is dense (see rankIndex): a
// presence bitmap plus per-word prefix counts give the key's position with
// one word load and a popcount.  Every other probe gallops (exponential
// then binary search), with a moving lower bound per trie so a whole range
// scan stays O(k log gap).  Both answer exactly the same position, so
// results and probe counts do not depend on which one ran.
package join

import (
	"context"
	"fmt"
	"math/bits"
	"sort"
	"sync/atomic"

	"github.com/faqdb/faq/internal/factor"
	"github.com/faqdb/faq/internal/semiring"
	"github.com/faqdb/faq/internal/sortx"
)

// Stats accumulates instrumentation counters for benchmark harnesses and
// the observability layer.
type Stats struct {
	Probes     int64 // candidate membership probes
	Emitted    int64 // tuples emitted (before aggregation)
	Multiplies int64
	Blocks     int64 // parallel scan blocks executed (0 for sequential scans)
	PoolWaitNS int64 // summed per-block wait from scan submission to block start

	ParallelScans int64 // scans split into parallel blocks
	BlockKeys     int64 // summed lead-keys-per-block choice, one term per parallel scan
	CacheSplits   int64 // parallel scans whose block count was cache-target sized
}

// Merge atomically folds t into s.  Block-parallel scans give every worker a
// private Stats and merge once per block, so parallel runs report the same
// true totals a sequential run would.  A nil receiver or argument is a no-op.
func (s *Stats) Merge(t *Stats) {
	if s == nil || t == nil {
		return
	}
	atomic.AddInt64(&s.Probes, t.Probes)
	atomic.AddInt64(&s.Emitted, t.Emitted)
	atomic.AddInt64(&s.Multiplies, t.Multiplies)
	atomic.AddInt64(&s.Blocks, t.Blocks)
	atomic.AddInt64(&s.PoolWaitNS, t.PoolWaitNS)
	atomic.AddInt64(&s.ParallelScans, t.ParallelScans)
	atomic.AddInt64(&s.BlockKeys, t.BlockKeys)
	atomic.AddInt64(&s.CacheSplits, t.CacheSplits)
}

// trieLevel is one depth of a CSR trie: keys holds every node's key at this
// level grouped by parent (each group sorted ascending), and start[i] is the
// offset of node i's first child in the NEXT level's keys — a node's
// children are next.keys[start[i]:start[i+1]].  The deepest level carries no
// start array; its node indices index the trie's values directly.
type trieLevel struct {
	keys  []int32
	start []int32 // len(keys)+1 on non-leaf levels, nil on the leaf level
}

// trie is a factor re-keyed along the global variable order, in CSR layout.
type trie[V any] struct {
	vars   []int // factor vars sorted by global position
	levels []trieLevel
	values []V        // leaf values, one per row, in trie row order
	rank   *rankIndex // over levels[0].keys when that level is dense, else nil
}

// denseMinKeys is the fewest first-level keys that get a rank index: below
// it a gallop over the level is a handful of compares anyway.  A var so
// tests can force the index onto small levels, or off everywhere.
var denseMinKeys = 64

// rankIndex answers probes into a dense sorted unique key set: bit x of
// words is set iff key x is present, and ranks[w] counts the keys below
// 64·w, so the position of any key is one word load and a popcount —
// about 12 bytes per 64 key values.
type rankIndex struct {
	words []uint64
	ranks []int32
	n     int // number of keys
}

// newRankIndex indexes a sorted unique key set when it is dense: at least
// denseMinKeys keys, none negative, and a maximum below 64·len + 64, so
// the index is never more than three times the size of the keys.  It
// returns nil otherwise.
func newRankIndex(keys []int32) *rankIndex {
	n := len(keys)
	if n == 0 || n < denseMinKeys || keys[0] < 0 || int64(keys[n-1]) >= 64*int64(n)+64 {
		return nil
	}
	ix := &rankIndex{words: make([]uint64, keys[n-1]>>6+1), n: n}
	for _, k := range keys {
		ix.words[k>>6] |= 1 << (uint32(k) & 63)
	}
	ix.ranks = make([]int32, len(ix.words))
	c := int32(0)
	for w, x := range ix.words {
		ix.ranks[w] = c
		c += int32(bits.OnesCount64(x))
	}
	return ix
}

// find returns the position of the first key >= key and whether it is an
// exact match: the same answer as gallop over the whole key set.
func (ix *rankIndex) find(key int32) (int, bool) {
	if key < 0 {
		return 0, false
	}
	w := int(key >> 6)
	if w >= len(ix.words) {
		return ix.n, false
	}
	word, bit := ix.words[w], uint32(key)&63
	return int(ix.ranks[w]) + bits.OnesCount64(word&(1<<bit-1)), word>>bit&1 != 0
}

// buildTrie flattens f into CSR form along the global order.  When the join
// order visits the factor's columns in their stored order the levels are
// built straight from the sorted row block; otherwise the rows are
// permuted, re-sorted and gathered first.
func buildTrie[V any](f *factor.Factor[V], pos map[int]int) (*trie[V], error) {
	k := f.Arity()
	order := make([]int, k) // positions within f.Vars, sorted by global order
	for i := range order {
		order[i] = i
	}
	for _, v := range f.Vars {
		if _, ok := pos[v]; !ok {
			return nil, fmt.Errorf("join: factor over %v mentions variable %d outside the join order", f.Vars, v)
		}
	}
	sort.Slice(order, func(a, b int) bool { return pos[f.Vars[order[a]]] < pos[f.Vars[order[b]]] })
	t := &trie[V]{vars: make([]int, k), levels: make([]trieLevel, k)}
	identity := true
	for i, o := range order {
		t.vars[i] = f.Vars[o]
		if o != i {
			identity = false
		}
	}
	n := f.Size()
	rows := f.Rows()
	if identity {
		t.values = f.Values // shared read-only with the factor
		t.buildLevels(rows, k, n)
		return t, nil
	}
	// Permute columns into trie order, then re-sort the permuted block.
	// Rows stay unique under a column permutation, so the unstable sort is
	// a strict total order and the result deterministic.
	perm := make([]int32, n*k)
	for r := 0; r < n; r++ {
		row := rows[r*k : r*k+k]
		for i, o := range order {
			perm[r*k+i] = row[o]
		}
	}
	rowOrder := sortx.Argsort(perm, k, n, false)
	t.values = sortx.Gather(f.Values, rowOrder)
	t.buildLevels(sortx.GatherRows(perm, k, rowOrder), k, n)
	return t, nil
}

// buildLevels fills the CSR levels from a sorted unique row block: a
// first pass counts each level's nodes and a second fills levels allocated
// at exactly that size.  Row 0 starts a node at every level, and row r > 0
// one at each level d where it differs from row r-1 in some column <= d;
// each new node records where its children begin in the level below.  The
// first level then gets its rank index when it is dense.
//
// Both passes are branch-free per row: the fill writes every row's key at
// its level's next free slot and advances the slot only for a new node.
// On skewed data whether a row opens a new prefix is unpredictable, and a
// branch on it would mispredict often, in each pass.
func (t *trie[V]) buildLevels(rows []int32, k, n int) {
	if k == 0 {
		return
	}
	m := k - 1 // non-leaf levels
	count := make([]int32, m)
	for r := 0; r < n; r++ {
		at, prev, diff := r*k, (r-1)*k, int32(0)
		if r == 0 {
			prev, diff = 0, 1
		}
		for d := range count {
			diff |= rows[at+d] ^ rows[prev+d]
			count[d] += nonZero(diff)
		}
	}
	for d := range count {
		// One spare key slot: rows after the level's last new node write
		// there before the slice is cut to size.
		t.levels[d].keys = make([]int32, count[d]+1)
		t.levels[d].start = make([]int32, count[d]+1)
	}
	leaf := make([]int32, n) // rows are unique: one leaf each
	next := make([]int32, k) // next free node per level; next[m] is the row
	for r := 0; r < n; r++ {
		at, prev, diff := r*k, (r-1)*k, int32(0)
		if r == 0 {
			prev, diff = 0, 1
		}
		next[m] = int32(r)
		for d := 0; d < m; d++ {
			diff |= rows[at+d] ^ rows[prev+d]
			lv, j := &t.levels[d], next[d]
			lv.keys[j] = rows[at+d]
			lv.start[j] = next[d+1]
			next[d] = j + nonZero(diff)
		}
		leaf[r] = rows[at+m]
	}
	next[m] = int32(n)
	for d := 0; d < m; d++ {
		lv := &t.levels[d]
		lv.keys = lv.keys[:count[d]]
		lv.start[count[d]] = next[d+1]
	}
	t.levels[m].keys = leaf
	t.rank = newRankIndex(t.levels[0].keys)
}

// nonZero is 1 when x != 0 and 0 otherwise, without a branch: x|-x has its
// sign bit set exactly when x != 0.
func nonZero(x int32) int32 {
	return int32(uint32(x|-x) >> 31)
}

// gallop returns the first index in keys[lo:hi) holding a value >= key
// (hi if none) and whether it is an exact match, by exponential probing from
// lo followed by binary search — O(log distance), so a monotone sequence of
// lookups over one range costs O(k log gap) instead of O(k log n).
func gallop(keys []int32, lo, hi int, key int32) (int, bool) {
	if lo >= hi || keys[hi-1] < key {
		return hi, false
	}
	bound := 1
	for lo+bound < hi && keys[lo+bound] < key {
		bound <<= 1
	}
	l, h := lo+bound>>1, lo+bound
	if h > hi {
		h = hi
	}
	for l < h {
		m := int(uint(l+h) >> 1)
		if keys[m] < key {
			l = m + 1
		} else {
			h = m
		}
	}
	return l, keys[l] == key
}

// Runner evaluates a join of factors over an explicit variable order.
type Runner[V any] struct {
	D     *semiring.Domain[V]
	Vars  []int
	Stats *Stats

	tries     []*trie[V]
	consumers [][]int        // per depth: indices of tries consuming this variable
	finishers [][]int        // per depth: tries whose last variable is this depth
	ranks     [][]*rankIndex // per depth, per consumer: the rank index answering its probes, or nil to gallop

	// Traversal state (per clone): depth[ti] is trie ti's local depth, and
	// node[ti][d] the node index bound at its local level d.
	depth []int
	node  [][]int32
	tuple []int
	// Per-global-depth scratch for the intersection loop, sized to the
	// consumer count so the recursive scan allocates nothing.
	scratch   []depthScratch
	constProd V    // product of nullary factor values
	empty     bool // some factor is identically zero

	// Block restriction (see parallel.go): when hasTop is set the outermost
	// variable enumerates exactly lead-trie candidates [topLo, topHi)
	// instead of picking a lead dynamically.  Index blocks partition the
	// scan into disjoint, independently runnable key ranges.
	topLead      int
	topLo, topHi int
	hasTop       bool
}

// depthScratch holds the per-consumer cursors of one depth's intersection.
type depthScratch struct {
	keys  [][]int32 // consumer's candidate key array
	lo    []int     // consumer's moving lower bound (galloping resume point)
	hi    []int     // consumer's candidate range end
	found []int     // matched node index per consumer
}

// NewRunner prepares a join of the given factors over vars (outermost
// first).  Every variable of every factor must occur in vars, and every
// variable of vars must occur in at least one factor (otherwise its
// candidate set would be unconstrained).
func NewRunner[V any](d *semiring.Domain[V], factors []*factor.Factor[V], vars []int) (*Runner[V], error) {
	return newRunner(nil, nil, 1, nil, d, factors, nil, vars)
}

// newRunner is NewRunner with trie construction fanned out over the worker
// pool — factor tries are independent, so building them concurrently is
// deterministic — and answered from the trie cache where possible.  A nil
// pool builds inline; a nil cache always builds.
//
// support lists factors that join through their support only: each stands
// for its indicator projection onto a superset of its own variables (Eq.
// (7) when the projection keeps every column), which has exactly the
// factor's rows, all valued One.  The runner walks the factor's own trie
// levels for it and never reads its values, so the projection costs no row
// copy and no second trie, and the skipped ⊗ One leaves every product
// bit-identical.
func newRunner[V any](ctx context.Context, pool *Pool, limit int, cache *TrieCache[V],
	d *semiring.Domain[V], factors, support []*factor.Factor[V], vars []int) (*Runner[V], error) {
	pos := make(map[int]int, len(vars))
	for i, v := range vars {
		if _, dup := pos[v]; dup {
			return nil, fmt.Errorf("join: duplicate variable %d in order", v)
		}
		pos[v] = i
	}
	r := &Runner[V]{D: d, Vars: vars, constProd: d.One}
	var positive []*factor.Factor[V]
	for _, f := range factors {
		if f.Arity() == 0 {
			// Nullary factors contribute a constant multiplier; an empty one
			// is the constant 0 and annihilates the whole join.
			if f.Size() == 0 {
				r.empty = true
			} else {
				r.constProd = d.Mul(r.constProd, f.Values[0])
			}
			continue
		}
		positive = append(positive, f)
	}
	valued := len(positive) // tries [valued:] are support views
	for _, f := range support {
		if f.Arity() == 0 {
			// The indicator of a nullary factor is One unless it is empty.
			r.empty = r.empty || f.Size() == 0
			continue
		}
		positive = append(positive, f)
	}
	tries := make([]*trie[V], len(positive))
	errs := make([]error, len(positive))
	if err := pool.Run(ctx, len(positive), limit, func(i int) {
		tries[i], errs[i] = cache.trieFor(positive[i], pos)
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	r.tries = tries
	r.consumers = make([][]int, len(vars))
	r.finishers = make([][]int, len(vars))
	r.ranks = make([][]*rankIndex, len(vars))
	for ti, t := range r.tries {
		for j, v := range t.vars {
			depth := pos[v]
			r.consumers[depth] = append(r.consumers[depth], ti)
			// Only a first-level probe covers the whole (indexed) level; a
			// deeper one searches a child range.
			var rk *rankIndex
			if j == 0 {
				rk = t.rank
			}
			r.ranks[depth] = append(r.ranks[depth], rk)
			if j == len(t.vars)-1 && ti < valued {
				r.finishers[depth] = append(r.finishers[depth], ti)
			}
		}
	}
	for depth, c := range r.consumers {
		if len(c) == 0 {
			return nil, fmt.Errorf("join: variable %d is constrained by no factor", vars[depth])
		}
	}
	r.initTraversal()
	return r, nil
}

// initTraversal allocates the per-clone traversal state.
func (r *Runner[V]) initTraversal() {
	r.depth = make([]int, len(r.tries))
	r.node = make([][]int32, len(r.tries))
	for i, t := range r.tries {
		r.node[i] = make([]int32, len(t.vars))
	}
	r.tuple = make([]int, len(r.Vars))
	r.scratch = make([]depthScratch, len(r.Vars))
	for d, cons := range r.consumers {
		n := len(cons)
		r.scratch[d] = depthScratch{
			keys:  make([][]int32, n),
			lo:    make([]int, n),
			hi:    make([]int, n),
			found: make([]int, n),
		}
	}
}

// childRange returns trie ti's candidate node range at its current local
// depth: the whole first level at the root, else the CSR child range of the
// node bound one level up.
func (r *Runner[V]) childRange(ti int) (keys []int32, lo, hi int) {
	t := r.tries[ti]
	d := r.depth[ti]
	keys = t.levels[d].keys
	if d == 0 {
		return keys, 0, len(keys)
	}
	up := t.levels[d-1]
	p := r.node[ti][d-1]
	return keys, int(up.start[p]), int(up.start[p+1])
}

// Run enumerates every assignment to Vars supported by all factors, calling
// emit with the assignment (aligned with Vars; the slice is reused between
// calls) and the ⊗-product of the factor values.  Assignments are emitted
// in lexicographic order of the tuple.
func (r *Runner[V]) Run(emit func(tuple []int, val V)) {
	if r.empty || r.D.IsZero(r.constProd) {
		return
	}
	r.search(0, r.constProd, emit)
}

func (r *Runner[V]) search(depth int, prod V, emit func([]int, V)) {
	if depth == len(r.Vars) {
		if r.Stats != nil {
			r.Stats.Emitted++
		}
		emit(r.tuple, prod)
		return
	}
	cons := r.consumers[depth]
	ranks := r.ranks[depth]
	sc := &r.scratch[depth]
	// Pick the consumer with the fewest candidates and probe the others.
	lead := 0
	for ci, ti := range cons {
		keys, lo, hi := r.childRange(ti)
		sc.keys[ci], sc.lo[ci], sc.hi[ci] = keys, lo, hi
		if hi-lo < sc.hi[lead]-sc.lo[lead] {
			lead = ci
		}
	}
	if depth == 0 && r.hasTop {
		for ci, ti := range cons {
			if ti == r.topLead {
				lead = ci
				sc.lo[ci], sc.hi[ci] = r.topLo, r.topHi
			}
		}
	}
	leadKeys := sc.keys[lead]
	for p := sc.lo[lead]; p < sc.hi[lead]; p++ {
		key := leadKeys[p]
		ok := true
		for ci := range cons {
			if ci == lead {
				sc.found[ci] = p
				continue
			}
			if r.Stats != nil {
				r.Stats.Probes++
			}
			// A non-lead consumer at its first level spans the whole level
			// (a block restriction narrows only the lead), so its rank index
			// answers exactly what gallop would.
			var at int
			var exact bool
			if rk := ranks[ci]; rk != nil {
				at, exact = rk.find(key)
			} else {
				at, exact = gallop(sc.keys[ci], sc.lo[ci], sc.hi[ci], key)
				sc.lo[ci] = at // lead keys ascend, so the next probe resumes here
			}
			if !exact {
				ok = false
				break
			}
			sc.found[ci] = at
		}
		if !ok {
			continue
		}
		// Descend all consumers.
		for ci, ti := range cons {
			r.node[ti][r.depth[ti]] = int32(sc.found[ci])
			r.depth[ti]++
		}
		pr := prod
		zero := false
		for _, ti := range r.finishers[depth] {
			t := r.tries[ti]
			leaf := r.node[ti][len(t.vars)-1]
			pr = r.D.Mul(pr, t.values[leaf])
			if r.Stats != nil {
				r.Stats.Multiplies++
			}
			if r.D.IsZero(pr) {
				zero = true
				break
			}
		}
		if !zero {
			r.tuple[depth] = int(key)
			r.search(depth+1, pr, emit)
		}
		// Ascend.
		for _, ti := range cons {
			r.depth[ti]--
		}
	}
}

// scanListing runs the prepared runner and collects one flat row per emitted
// assignment, columns permuted to sorted-variable order.
func scanListing[V any](r *Runner[V], perm []int) ([]int32, []V) {
	var rows []int32
	var values []V
	r.Run(func(tuple []int, val V) {
		for _, p := range perm {
			rows = append(rows, int32(tuple[p]))
		}
		values = append(values, val)
	})
	return rows, values
}

// scanGrouped runs the prepared runner, ⊕-aggregating the innermost variable
// over each group of assignments sharing a prefix.  The emitted prefixes
// arrive in lexicographic order, so groups are contiguous; output rows are
// permuted to sorted-variable order.
func scanGrouped[V any](d *semiring.Domain[V], op *semiring.Op[V], r *Runner[V], perm []int) ([]int32, []V) {
	var rows []int32
	var values []V
	var prefix []int
	var acc V
	havePrefix := false

	flush := func() {
		if !havePrefix || d.IsZero(acc) {
			return
		}
		for _, p := range perm {
			rows = append(rows, int32(prefix[p]))
		}
		values = append(values, acc)
	}
	r.Run(func(tuple []int, val V) {
		cur := tuple[:len(tuple)-1]
		if havePrefix && samePrefix(prefix, cur) {
			acc = op.Combine(acc, val)
			return
		}
		flush()
		prefix = append(prefix[:0], cur...)
		acc = val
		havePrefix = true
	})
	flush()
	return rows, values
}

func samePrefix(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// permutationTo returns perm with to[i] = from[perm[i]].
func permutationTo(from, to []int) []int {
	at := map[int]int{}
	for i, v := range from {
		at[v] = i
	}
	perm := make([]int, len(to))
	for i, v := range to {
		perm[i] = at[v]
	}
	return perm
}
