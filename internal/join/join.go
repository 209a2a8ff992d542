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
// level — built in one O(n) pass from the factor's already-sorted row block
// (plus one re-sort when the join order permutes the factor's columns).
// Candidate intersection walks the lead trie's key range and locates each
// key in the other tries by galloping binary search, with a moving lower
// bound per trie so a whole range scan stays O(k log gap).
package join

import (
	"context"
	"fmt"
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
	values []V // leaf values, one per row, in trie row order
}

// buildTrie flattens f into CSR form along the global order.  When the join
// order visits the factor's columns in their stored order the build is a
// single pass over the sorted row block; otherwise the rows are permuted and
// re-sorted first (rows stay unique under a column permutation, so the sort
// is a strict total order and the result deterministic).
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
	perm := make([]int32, n*k)
	for r := 0; r < n; r++ {
		row := rows[r*k : r*k+k]
		for i, o := range order {
			perm[r*k+i] = row[o]
		}
	}
	rowOrder := sortRowOrder(perm, k, n)
	sorted := make([]int32, 0, n*k)
	t.values = make([]V, n)
	for i, o := range rowOrder {
		sorted = append(sorted, perm[o*k:o*k+k]...)
		t.values[i] = f.Values[o]
	}
	t.buildLevels(sorted, k, n)
	return t, nil
}

// sortRowOrder argsorts n rows of width k lexicographically via the shared
// packed-key radix kernel — arity-agnostic, so permuted builds at arity 3+
// no longer fall back to a per-compare column loop.  Rows here are unique
// (a column permutation of a unique block), so the unstable variant
// suffices; it also retires this function's old k<=2 comparator, which
// returned 1 for equal keys and so violated strict weak ordering on any
// input with duplicate rows.
func sortRowOrder(rows []int32, k, n int) []int {
	return sortx.Argsort(rows, k, n, false)
}

// buildLevels fills the CSR levels from a sorted unique row block in one
// pass: for each row, levels above the longest common prefix with the
// previous row get a new node, and each new node records where its children
// begin in the level below.  Rows are unique, so the leaf level holds
// exactly n keys and is allocated once at that size.
func (t *trie[V]) buildLevels(rows []int32, k, n int) {
	if k > 0 {
		t.levels[k-1].keys = make([]int32, 0, n)
	}
	for r := 0; r < n; r++ {
		row := rows[r*k : r*k+k]
		c := 0
		if r > 0 {
			prev := rows[(r-1)*k : r*k]
			for c < k && row[c] == prev[c] {
				c++
			}
		}
		for d := c; d < k; d++ {
			if d+1 < k {
				t.levels[d].start = append(t.levels[d].start, int32(len(t.levels[d+1].keys)))
			}
			t.levels[d].keys = append(t.levels[d].keys, row[d])
		}
	}
	for d := 0; d+1 < k; d++ {
		t.levels[d].start = append(t.levels[d].start, int32(len(t.levels[d+1].keys)))
	}
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
	consumers [][]int // per depth: indices of tries consuming this variable
	finishers [][]int // per depth: tries whose last variable is this depth

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
	for ti, t := range r.tries {
		for j, v := range t.vars {
			depth := pos[v]
			r.consumers[depth] = append(r.consumers[depth], ti)
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
			at, exact := gallop(sc.keys[ci], sc.lo[ci], sc.hi[ci], key)
			sc.lo[ci] = at // lead keys ascend, so the next probe resumes here
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

// JoinAll materializes the join of factors over vars as a factor whose value
// at each tuple is the ⊗-product of the inputs (the output phase of
// InsideOut, Eq. (12)).
func JoinAll[V any](d *semiring.Domain[V], factors []*factor.Factor[V], vars []int, stats *Stats) (*factor.Factor[V], error) {
	return JoinAllOn(context.Background(), nil, 1, nil, d, factors, nil, vars, stats)
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

// EliminateInnermost evaluates the FAQ-SS sub-instance of Eq. (7): it joins
// the factors over vars, aggregates the innermost (last) variable with ⊕ and
// returns the factor over vars[:len(vars)-1].  This is one variable-
// elimination step of InsideOut executed by OutsideIn.
func EliminateInnermost[V any](d *semiring.Domain[V], op *semiring.Op[V],
	factors []*factor.Factor[V], vars []int, stats *Stats) (*factor.Factor[V], error) {

	return EliminateInnermostOn(context.Background(), nil, 1, nil, d, op, factors, nil, vars, stats)
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
