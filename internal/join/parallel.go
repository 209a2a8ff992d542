// Block-parallel OutsideIn: the backtracking scan of a multiway join is
// embarrassingly parallel across disjoint ranges of the outermost variable's
// candidate keys.  The CSR tries are built once and shared read-only; each
// block gets a Runner clone with fresh traversal state restricted to its
// index range of the lead trie's root level, and block outputs are
// concatenated in block order, which keeps results bit-identical to the
// sequential scan:
//
//   - every output group of EliminateInnermostOn includes the outermost
//     variable in its prefix, so no ⊕-group spans two blocks and each group
//     is combined in exactly the sequential order;
//   - JoinAllOn emits one independent row per assignment.
//
// Scans whose output is a scalar (single join variable) stay sequential:
// their ⊕-fold crosses block boundaries, and re-associating it could change
// floating-point results between worker counts.
//
// Block scans run on a persistent Pool (see pool.go): EliminateInnermostOn
// and JoinAllOn take the pool plus a per-call concurrency limit, a context
// checked at block boundaries, and the prepared query's trie cache (nil
// when there is none).  A nil pool scans sequentially.
package join

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"github.com/faqdb/faq/internal/factor"
	"github.com/faqdb/faq/internal/semiring"
)

// MinParallelRows is the minimum total input size (Σ‖ψ‖ over the joined
// factors) before a scan is split into blocks; below it the goroutine and
// clone overhead dominates.  Tests may lower it to force block scans on
// tiny instances.
var MinParallelRows = 2048

// blocksPerWorker oversubscribes the pool so skewed key ranges (heavy-hitter
// values, as in the AGM-tight skew instances) keep all workers busy.
const blocksPerWorker = 4

// BlockTargetBytes is the cache-aware split target: when the prepared
// tries' resident footprint is known, the scan is split into enough blocks
// that each block's share of the footprint fits a mid-size L2 slice, so a
// block's working set stays cache-resident while it runs.  Exposed as a
// variable for tests and tuning.
var BlockTargetBytes = 256 << 10

// maxBlocksPerWorker caps cache-aware oversubscription: past this the
// per-block clone and merge overhead outweighs locality.
const maxBlocksPerWorker = 64

// Workers resolves a worker-count knob: values < 1 mean GOMAXPROCS.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ParallelFor runs fn(0), ..., fn(n-1) on a pool of up to `workers`
// goroutines pulling indices from a shared channel; workers <= 1 runs
// inline.  It spawns transient goroutines per call — the one-shot shape
// of the parallel brute-force oracle; engine scans go through Pool.Run
// instead.
func ParallelFor(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// clone shares the prepared read-only state (tries, consumer tables) and
// allocates fresh traversal state, so block scans can run concurrently.
func (r *Runner[V]) clone() *Runner[V] {
	c := &Runner[V]{
		D:         r.D,
		Vars:      r.Vars,
		tries:     r.tries,
		consumers: r.consumers,
		finishers: r.finishers,
		ranks:     r.ranks,
		constProd: r.constProd,
		empty:     r.empty,
	}
	c.initTraversal()
	return c
}

// topPlan picks the depth-0 lead trie exactly as the sequential search would
// (fewest root keys, first wins ties) and returns its candidate key count.
func (r *Runner[V]) topPlan() (lead, n int) {
	cons := r.consumers[0]
	lead = cons[0]
	n = len(r.tries[lead].levels[0].keys)
	for _, ti := range cons[1:] {
		if k := len(r.tries[ti].levels[0].keys); k < n {
			lead, n = ti, k
		}
	}
	return lead, n
}

// blockRange is a contiguous index range [Lo, Hi) of the lead trie's root
// keys.
type blockRange struct{ Lo, Hi int }

// splitRange partitions n candidate indices into contiguous non-empty
// blocks.  The floor is workers×blocksPerWorker blocks (skew tolerance);
// when the scan's resident footprint is known (footprint > 0) and a floor
// block's share would overflow BlockTargetBytes, the count grows until
// each block's share fits — capped at workers×maxBlocksPerWorker so clone
// and merge overhead stays bounded.  The bool reports whether the
// footprint target (rather than the floor) chose the count.
func splitRange(n, workers, footprint int) ([]blockRange, bool) {
	nb := workers * blocksPerWorker
	cacheAware := false
	if footprint > 0 {
		if want := (footprint + BlockTargetBytes - 1) / BlockTargetBytes; want > nb {
			nb = want
			if cap := workers * maxBlocksPerWorker; nb > cap {
				nb = cap
			}
			cacheAware = true
		}
	}
	if nb > n {
		nb = n
	}
	out := make([]blockRange, 0, nb)
	for b := 0; b < nb; b++ {
		lo, hi := b*n/nb, (b+1)*n/nb
		if lo < hi {
			out = append(out, blockRange{Lo: lo, Hi: hi})
		}
	}
	return out, cacheAware
}

// footprintBytes estimates the resident bytes a block scan touches: every
// trie's CSR arrays plus its leaf values.  Shared across blocks, so it is
// the scan's footprint, and each block touches roughly its index share.
func (r *Runner[V]) footprintBytes() int {
	var v V
	vSize := int(unsafe.Sizeof(v))
	total := 0
	for _, t := range r.tries {
		for _, lv := range t.levels {
			total += 4 * (len(lv.keys) + len(lv.start))
		}
		total += vSize * len(t.values)
	}
	return total
}

// Process-wide split counters, mirrored to /statsz and /metrics: scans
// split into parallel blocks, how many of those were sized by the cache
// target rather than the worker floor, and the most recent lead-keys-per-
// block choice.
var (
	splitScans         atomic.Int64
	splitCacheAware    atomic.Int64
	splitLastBlockKeys atomic.Int64
)

// SplitStats returns the process-wide split counters: parallel scans run,
// scans whose block count was cache-target sized, and the last scan's
// lead keys per block.
func SplitStats() (scans, cacheAware, lastBlockKeys int64) {
	return splitScans.Load(), splitCacheAware.Load(), splitLastBlockKeys.Load()
}

// recordSplit notes one block-parallel scan in both the per-run Stats and
// the process-wide counters.
func recordSplit(stats *Stats, blocks []blockRange, n int, cacheAware bool) {
	perBlock := int64(n / len(blocks))
	splitScans.Add(1)
	splitLastBlockKeys.Store(perBlock)
	if cacheAware {
		splitCacheAware.Add(1)
	}
	if stats == nil {
		return
	}
	atomic.AddInt64(&stats.ParallelScans, 1)
	atomic.AddInt64(&stats.BlockKeys, perBlock)
	if cacheAware {
		atomic.AddInt64(&stats.CacheSplits, 1)
	}
}

func totalRows[V any](lists ...[]*factor.Factor[V]) int {
	n := 0
	for _, fs := range lists {
		for _, f := range fs {
			n += f.Size()
		}
	}
	return n
}

// runBlocks scans the blocks on the pool with at most `limit` in flight.
// scan is called with the block index and a Runner restricted to that block,
// wired to a private Stats that is merged into stats when the pool drains.
// On cancellation the remaining blocks are skipped and ctx.Err() returned;
// in-flight blocks finish first, so no goroutine outlives the call.
func runBlocks[V any](ctx context.Context, pool *Pool, limit int, r *Runner[V],
	lead int, blocks []blockRange, stats *Stats, scan func(block int, rc *Runner[V])) error {

	local := make([]Stats, len(blocks))
	submitted := time.Now()
	err := pool.Run(ctx, len(blocks), limit, func(b int) {
		rc := r.clone()
		rc.topLead = lead
		rc.topLo, rc.topHi = blocks[b].Lo, blocks[b].Hi
		rc.hasTop = true
		if stats != nil {
			rc.Stats = &local[b]
			rc.Stats.Blocks = 1
			rc.Stats.PoolWaitNS = int64(time.Since(submitted))
		}
		scan(b, rc)
	})
	for i := range local {
		stats.Merge(&local[i])
	}
	return err
}

// EliminateInnermostOn evaluates the FAQ-SS sub-instance of Eq. (7): it
// joins the factors over vars, aggregates the innermost (last) variable
// with ⊕ and returns the factor over vars[:len(vars)-1] — one
// variable-elimination step of InsideOut executed by OutsideIn.  On a
// worker pool the scan is partitioned into contiguous index blocks of the
// outermost join variable's candidates, blocks aggregate in parallel (at
// most `limit` in flight), and outputs merge in block order.  The result
// is bit-identical to the sequential scan for every pool size and limit;
// sub-scale instances and scalar-output steps fall back to the sequential
// path.  Trie builds hit `cache` when the caller has one; support lists
// the factors that join through their support only (full-arity indicator
// projections, see newRunner).
func EliminateInnermostOn[V any](ctx context.Context, pool *Pool, limit int,
	cache *TrieCache[V], d *semiring.Domain[V], op *semiring.Op[V],
	factors, support []*factor.Factor[V], vars []int, stats *Stats) (*factor.Factor[V], error) {

	if len(vars) == 0 {
		return nil, fmt.Errorf("join: EliminateInnermost needs at least the eliminated variable")
	}
	width := poolWidth(pool, limit)
	r, err := newRunner(ctx, pool, limit, cache, d, factors, support, vars)
	if err != nil {
		return nil, err
	}
	outVars := vars[:len(vars)-1]
	sortedVars := append([]int(nil), outVars...)
	sort.Ints(sortedVars)
	perm := permutationTo(outVars, sortedVars)

	if len(vars) >= 2 && width > 1 && totalRows(factors, support) >= MinParallelRows {
		lead, n := r.topPlan()
		if blocks, cacheAware := splitRange(n, width, r.footprintBytes()); len(blocks) >= 2 {
			recordSplit(stats, blocks, n, cacheAware)
			type part struct {
				rows   []int32
				values []V
			}
			parts := make([]part, len(blocks))
			err = runBlocks(ctx, pool, limit, r, lead, blocks, stats, func(b int, rc *Runner[V]) {
				parts[b].rows, parts[b].values = scanGrouped(d, op, rc, perm)
			})
			if err != nil {
				return nil, err
			}
			var rows []int32
			var values []V
			for _, p := range parts {
				rows = append(rows, p.rows...)
				values = append(values, p.values...)
			}
			return factor.NewRows(d, sortedVars, rows, values, nil)
		}
	}
	r.Stats = stats
	rows, values := scanGrouped(d, op, r, perm)
	return factor.NewRows(d, sortedVars, rows, values, nil)
}

// JoinAllOn materializes the join of factors over vars as a factor whose
// value at each tuple is the ⊗-product of the inputs (the output phase of
// InsideOut, Eq. (12)), block-parallel on the pool as EliminateInnermostOn
// is.
func JoinAllOn[V any](ctx context.Context, pool *Pool, limit int,
	cache *TrieCache[V], d *semiring.Domain[V], factors, support []*factor.Factor[V],
	vars []int, stats *Stats) (*factor.Factor[V], error) {

	width := poolWidth(pool, limit)
	r, err := newRunner(ctx, pool, limit, cache, d, factors, support, vars)
	if err != nil {
		return nil, err
	}
	sortedVars := append([]int(nil), vars...)
	sort.Ints(sortedVars)
	perm := permutationTo(vars, sortedVars)

	if len(vars) > 0 && width > 1 && totalRows(factors, support) >= MinParallelRows {
		lead, n := r.topPlan()
		if blocks, cacheAware := splitRange(n, width, r.footprintBytes()); len(blocks) >= 2 {
			recordSplit(stats, blocks, n, cacheAware)
			type part struct {
				rows   []int32
				values []V
			}
			parts := make([]part, len(blocks))
			err = runBlocks(ctx, pool, limit, r, lead, blocks, stats, func(b int, rc *Runner[V]) {
				parts[b].rows, parts[b].values = scanListing(rc, perm)
			})
			if err != nil {
				return nil, err
			}
			var rows []int32
			var values []V
			for _, p := range parts {
				rows = append(rows, p.rows...)
				values = append(values, p.values...)
			}
			return factor.NewRows(d, sortedVars, rows, values, nil)
		}
	}
	r.Stats = stats
	rows, values := scanListing(r, perm)
	return factor.NewRows(d, sortedVars, rows, values, nil)
}

// poolWidth is the effective block-split width of a scan: the per-call limit
// capped by the pool size (a nil pool is sequential).
func poolWidth(pool *Pool, limit int) int {
	width := pool.Size()
	if limit > 0 && limit < width {
		width = limit
	}
	return width
}
