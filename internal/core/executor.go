package core

import (
	"context"
	"sync/atomic"

	"github.com/faqdb/faq/internal/factor"
	"github.com/faqdb/faq/internal/join"
	"github.com/faqdb/faq/internal/semiring"
)

// executor runs the data-parallel inner loops of one InsideOut pass: the
// ⊕-elimination scan of one variable-elimination step (Eq. (7)) and the
// output-phase joins (Eq. (12)).  Implementations must produce bit-identical
// factors — the pool executor achieves this by partitioning each scan into
// contiguous key-range blocks of the outermost join variable and merging
// block outputs in block order, so every ⊕-group is combined in the same
// sequence the sequential scan would use.
//
// Every method takes the run's context and observes cancellation at block
// boundaries with join.CtxErr, which also reads a passed deadline off the
// clock: a cancelled scan drops its remaining blocks, waits for blocks
// in flight and returns that error — no goroutine outlives the call.
//
// Both executors carry the run's trie cache (nil outside the prepared-query
// path): CSR tries and indicator projections of the prepared input factors
// are built once and reused by every subsequent run of the same
// PreparedQuery.
type executor[V any] interface {
	// eliminate joins inputs and the supports of support over vars and
	// ⊕-aggregates the last variable.
	eliminate(ctx context.Context, d *semiring.Domain[V], op *semiring.Op[V],
		inputs, support []*factor.Factor[V], vars []int, st *join.Stats) (*factor.Factor[V], error)
	// joinAll materializes the join of inputs and the supports of support
	// over vars.
	joinAll(ctx context.Context, d *semiring.Domain[V], inputs, support []*factor.Factor[V],
		vars []int, st *join.Stats) (*factor.Factor[V], error)
	// project computes the indicator projections (Definition 4.2) of fs
	// onto the variable set `onto`, preserving order.  Projections of
	// distinct factors are independent, so the pool executor computes them
	// concurrently.
	project(ctx context.Context, d *semiring.Domain[V], fs []*factor.Factor[V],
		onto []int) ([]*factor.Factor[V], error)
}

// newExecutor resolves Options.Workers for the compatibility entry points:
// 1 forces the sequential executor and never touches the default engine, so
// a sequential run neither creates nor grows its pool; 0 (= GOMAXPROCS) or
// more run on the process-wide shared pool of the default engine, grown on
// demand so an explicit Workers above the pool size still gets that much
// concurrency.  One-shot runs have no prepared factors, hence no trie cache.
func newExecutor[V any](workers int) executor[V] {
	if workers == 1 {
		return seqExecutor[V]{}
	}
	return rtExecutor[V](defaultRT(), workers, nil)
}

// seqExecutor is the single-goroutine reference implementation.  Its block
// boundary is the whole scan: cancellation is observed between scans (the
// InsideOut loop additionally checks between elimination steps).
type seqExecutor[V any] struct {
	cache *join.TrieCache[V]
}

func (e seqExecutor[V]) eliminate(ctx context.Context, d *semiring.Domain[V], op *semiring.Op[V],
	inputs, support []*factor.Factor[V], vars []int, st *join.Stats) (*factor.Factor[V], error) {
	if err := join.CtxErr(ctx); err != nil {
		return nil, err
	}
	return join.EliminateInnermostOn(ctx, nil, 1, e.cache, d, op, inputs, support, vars, st)
}

func (e seqExecutor[V]) joinAll(ctx context.Context, d *semiring.Domain[V], inputs, support []*factor.Factor[V],
	vars []int, st *join.Stats) (*factor.Factor[V], error) {
	if err := join.CtxErr(ctx); err != nil {
		return nil, err
	}
	return join.JoinAllOn(ctx, nil, 1, e.cache, d, inputs, support, vars, st)
}

func (e seqExecutor[V]) project(ctx context.Context, d *semiring.Domain[V],
	fs []*factor.Factor[V], onto []int) ([]*factor.Factor[V], error) {
	if err := join.CtxErr(ctx); err != nil {
		return nil, err
	}
	out := make([]*factor.Factor[V], len(fs))
	for i, f := range fs {
		out[i] = e.cache.Projection(d, f, onto)
	}
	return out, nil
}

// poolExecutor fans each scan out over a persistent worker pool in
// contiguous key-range blocks, at most `limit` blocks in flight per scan;
// sub-scale scans fall back to the sequential path inside the join package.
type poolExecutor[V any] struct {
	pool  *join.Pool
	limit int
	cache *join.TrieCache[V]
}

func (e poolExecutor[V]) eliminate(ctx context.Context, d *semiring.Domain[V], op *semiring.Op[V],
	inputs, support []*factor.Factor[V], vars []int, st *join.Stats) (*factor.Factor[V], error) {
	if err := join.CtxErr(ctx); err != nil {
		return nil, err
	}
	return join.EliminateInnermostOn(ctx, e.pool, e.limit, e.cache, d, op, inputs, support, vars, st)
}

func (e poolExecutor[V]) joinAll(ctx context.Context, d *semiring.Domain[V], inputs, support []*factor.Factor[V],
	vars []int, st *join.Stats) (*factor.Factor[V], error) {
	if err := join.CtxErr(ctx); err != nil {
		return nil, err
	}
	return join.JoinAllOn(ctx, e.pool, e.limit, e.cache, d, inputs, support, vars, st)
}

func (e poolExecutor[V]) project(ctx context.Context, d *semiring.Domain[V],
	fs []*factor.Factor[V], onto []int) ([]*factor.Factor[V], error) {
	out := make([]*factor.Factor[V], len(fs))
	if err := e.pool.Run(ctx, len(fs), e.limit, func(i int) {
		out[i] = e.cache.Projection(d, fs[i], onto)
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// addIntermediate atomically records an intermediate factor of the given
// row count, so concurrent recorders keep Stats exact.
func (st *Stats) addIntermediate(rows int) {
	atomic.AddInt64(&st.IntermediateRows, int64(rows))
	for {
		cur := atomic.LoadInt64(&st.MaxIntermediate)
		if int64(rows) <= cur || atomic.CompareAndSwapInt64(&st.MaxIntermediate, cur, int64(rows)) {
			return
		}
	}
}
