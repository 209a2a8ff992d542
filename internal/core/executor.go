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
// output-phase joins (Eq. (12)).  On a pool, each scan is partitioned into
// contiguous key-range blocks of the outermost join variable, at most
// `limit` blocks in flight, and block outputs merge in block order, so every
// ⊕-group is combined in the sequence the sequential scan would use and
// every pool width returns bit-identical factors.  A limit of 1 or a nil
// pool (the zero executor) runs every scan inline on the calling
// goroutine; sub-scale scans do so on any pool.
//
// Every method takes the run's context and observes cancellation at block
// boundaries with join.CtxErr, which also reads a passed deadline off the
// clock: a cancelled scan drops its remaining blocks, waits for blocks
// in flight and returns that error — no goroutine outlives the call.
//
// cache is the prepared query's trie cache (nil on paths that bypass it):
// CSR tries and indicator projections of the prepared input factors are
// built once and reused by every subsequent run of the same PreparedQuery.
type executor[V any] struct {
	pool  *join.Pool
	limit int
	cache *join.TrieCache[V]
}

// eliminate joins inputs and the supports of support over vars and
// ⊕-aggregates the last variable.
func (e executor[V]) eliminate(ctx context.Context, d *semiring.Domain[V], op *semiring.Op[V],
	inputs, support []*factor.Factor[V], vars []int, st *join.Stats) (*factor.Factor[V], error) {
	if err := join.CtxErr(ctx); err != nil {
		return nil, err
	}
	return join.EliminateInnermostOn(ctx, e.pool, e.limit, e.cache, d, op, inputs, support, vars, st)
}

// joinAll materializes the join of inputs and the supports of support over
// vars.
func (e executor[V]) joinAll(ctx context.Context, d *semiring.Domain[V], inputs, support []*factor.Factor[V],
	vars []int, st *join.Stats) (*factor.Factor[V], error) {
	if err := join.CtxErr(ctx); err != nil {
		return nil, err
	}
	return join.JoinAllOn(ctx, e.pool, e.limit, e.cache, d, inputs, support, vars, st)
}

// project computes the indicator projections (Definition 4.2) of fs onto
// the variable set `onto`, preserving order.  Projections of distinct
// factors are independent, so a pool computes them concurrently.
func (e executor[V]) project(ctx context.Context, d *semiring.Domain[V],
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
