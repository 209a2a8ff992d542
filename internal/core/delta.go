// Incremental view maintenance: the delta executor behind
// PreparedQuery.ApplyDeltas.
//
// A prepared query over evolving factors has three maintenance strategies,
// chosen once per query from its algebra and plan:
//
//   - Ring Δ-propagation, when every bound aggregate is the same invertible
//     ⊕ (sum over float/int/complex/rat) and no variable is aggregated by ⊗.
//     Eq. (1) is then multilinear in each factor, so a batch against factor
//     i contributes exactly φ(ψ_1, ..., Δψ_i, ..., ψ_m) where
//     Δψ_i = new ⊖ old over the changed rows — one InsideOut run against a
//     tiny delta factor, semijoin-reduced by the indicator projections of
//     Eq. (7), folded into the cached result with ⊕.
//   - Affected-block re-execution, for idempotent aggregates (bool, tropical,
//     max, set) where ⊕ destroys information and nothing can be retracted.
//     The partition variable pv = σ(0) — the lead root of every scan — has
//     its domain cut into contiguous key ranges; each block's result is the
//     query evaluated with every pv-containing factor restricted to the
//     range, and a batch only re-executes the blocks its pv keys intersect.
//     Restriction commutes with the pipeline (pv is eliminated last, so it
//     persists in every intermediate derived from pv-carrying data), which
//     blockSafe verifies structurally before the mode is enabled.
//   - Full recompute, the fallback that still amortizes: committed factor
//     versions are registered in the query's own trie cache, so recomputing
//     after a small batch rebuilds only the changed factor's tries.
//
// All three maintain the same state — the current factor versions plus the
// cached result — under one mutex, committing atomically: a rejected batch
// (sentinel errors from internal/factor) leaves the query exactly as it was.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"

	"github.com/faqdb/faq/internal/bitset"
	"github.com/faqdb/faq/internal/factor"
	"github.com/faqdb/faq/internal/semiring"
)

// ErrDeltaFactor reports a delta addressed at a factor index the prepared
// query does not have.
var ErrDeltaFactor = errors.New("core: delta factor index out of range")

// Delta is one batch of row changes addressed at a factor of a prepared
// query: Rows is a row-major block with the factor's arity, Values holds one
// value per row for inserts (deletes carry none).  Batches in one
// ApplyDeltas call are applied in order and commit atomically.
type Delta[V any] struct {
	// Factor indexes the prepared query's factor list.
	Factor int
	// Op is the batch operation (insert/upsert or delete).
	Op factor.DeltaOp
	// Rows is the row-major key block, len = rows × arity.
	Rows []int32
	// Values holds one value per insert row; a zero value removes the row.
	Values []V
}

type deltaMode int

const (
	deltaRecompute deltaMode = iota
	deltaRing
	deltaBlocks
)

// deltaState is the maintenance state of one PreparedQuery, guarded by
// PreparedQuery.deltaMu and committed only after a whole batch succeeds.
type deltaState[V any] struct {
	mode   deltaMode
	ringOp *semiring.Op[V] // ring mode: the shared invertible ⊕
	pvOp   *semiring.Op[V] // block mode, scalar queries: ⊕ at pv (idempotent)
	pv     int             // block mode: partition variable σ(0)
	pvIn   []bool          // block mode: factor i covers pv
	bounds [][2]int32      // block mode: [lo, hi) key ranges over pv's domain

	cur    []*factor.Factor[V] // current factor versions
	result *Result[V]          // last maintained result
	blocks []*factor.Factor[V] // block mode: per-block outputs, nil until first run
}

// ApplyDeltas applies row-change batches to the prepared query's factors and
// returns the maintained result, equal to what a full Run over the updated
// factors would return — bit-identical when ⊕ is exact (int, bool, tropical,
// integer-valued floats) at every worker count.  Batches are validated
// against the factor arities and the query's domain sizes and commit
// atomically: on any error (sentinels factor.ErrDeltaArity, ErrDeltaDup,
// ErrDeltaAbsent, ErrDeltaRange, or ErrDeltaFactor) the query state is
// unchanged.  Committed factor versions replace their predecessors in the
// query's trie cache.  ApplyDeltas calls are serialized per prepared
// query; concurrent Runs are unaffected and keep serving the prepared
// factors.
func (p *PreparedQuery[V]) ApplyDeltas(ctx context.Context, deltas []Delta[V]) (*Result[V], error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p.deltaMu.Lock()
	defer p.deltaMu.Unlock()
	st := p.deltaSt
	if st == nil {
		st = p.newDeltaState()
	}
	for i := range deltas {
		if deltas[i].Factor < 0 || deltas[i].Factor >= len(st.cur) {
			return nil, fmt.Errorf("%w: factor %d of a query with %d",
				ErrDeltaFactor, deltas[i].Factor, len(st.cur))
		}
	}
	if len(deltas) == 0 && st.result != nil {
		out := *st.result
		return &out, nil
	}
	var res *Result[V]
	var err error
	switch st.mode {
	case deltaRing:
		res, err = p.applyRing(ctx, st, deltas)
	case deltaBlocks:
		res, err = p.applyBlocks(ctx, st, deltas)
	default:
		res, err = p.applyRecompute(ctx, st, deltas)
	}
	if err != nil {
		if ctx.Err() != nil {
			p.rt.cancelled.Add(1)
		}
		return nil, err
	}
	p.deltaSt = st
	p.rt.deltas.Add(1)
	out := *res
	return &out, nil
}

// DeltaStrategy names the maintenance strategy ApplyDeltas uses for this
// query: "ring" (algebraic Δ-propagation), "blocks" (affected-block
// re-execution keyed by the lead root's key range) or "recompute".
func (p *PreparedQuery[V]) DeltaStrategy() string {
	p.deltaMu.Lock()
	defer p.deltaMu.Unlock()
	st := p.deltaSt
	if st == nil {
		st = p.newDeltaState()
		p.deltaSt = st
	}
	switch st.mode {
	case deltaRing:
		return "ring"
	case deltaBlocks:
		return "blocks"
	}
	return "recompute"
}

// CurrentFactors returns the factor versions ApplyDeltas has committed so
// far (the prepared factors before any batch).  The slice is fresh; the
// factors are shared and must not be mutated.
func (p *PreparedQuery[V]) CurrentFactors() []*factor.Factor[V] {
	p.deltaMu.Lock()
	defer p.deltaMu.Unlock()
	if p.deltaSt != nil {
		return append([]*factor.Factor[V](nil), p.deltaSt.cur...)
	}
	return append([]*factor.Factor[V](nil), p.q.Factors...)
}

// newDeltaState picks the maintenance strategy from the query's algebra:
// ring Δ-propagation needs one shared invertible ⊕ and no product variables;
// block re-execution needs restriction by the lead root to commute with the
// plan (blockSafe) and, for scalar queries, an idempotent ⊕ at the lead so
// the cross-block fold is an exact pick.  Everything else — including
// factorized output, whose representation holds live factor references —
// falls back to recompute.
func (p *PreparedQuery[V]) newDeltaState() *deltaState[V] {
	st := &deltaState[V]{
		mode: deltaRecompute,
		cur:  append([]*factor.Factor[V](nil), p.q.Factors...),
	}
	if p.opts.Factorized {
		return st
	}
	if op := ringAggOp(p.q); op != nil {
		st.mode, st.ringOp = deltaRing, op
		return st
	}
	pv := p.plan.Order[0]
	if p.q.NumFree == 0 {
		agg := p.q.Aggs[pv]
		if agg.Kind != KindSemiring || agg.Op == nil || !agg.Op.Idempotent {
			return st
		}
		st.pvOp = agg.Op
	}
	if !blockSafe(p.q, p.plan.Order, p.opts, pv) {
		return st
	}
	st.mode, st.pv = deltaBlocks, pv
	st.pvIn = make([]bool, len(p.q.Factors))
	for i, f := range p.q.Factors {
		st.pvIn[i] = slices.Contains(f.Vars, pv)
	}
	st.bounds = blockBounds(p.q.DomSizes[pv])
	return st
}

// ringAggOp returns the single invertible semiring aggregate shared by all
// bound variables, or nil when the query is not ring-maintainable (mixed
// aggregates, a product variable, a non-invertible ⊕, or no bound variable
// at all — a pure join has no ring addition to merge deltas with).
func ringAggOp[V any](q *Query[V]) *semiring.Op[V] {
	var op *semiring.Op[V]
	for _, a := range q.Aggs {
		switch a.Kind {
		case KindProduct:
			return nil
		case KindSemiring:
			if op == nil {
				op = a.Op
			} else if !semiring.SameOp(op, a.Op) {
				return nil
			}
		}
	}
	if !op.Invertible() {
		return nil
	}
	return op
}

// blockBounds cuts [0, dom) into contiguous key ranges, a few per core so
// small batches dirty a small fraction of the work.  The partition is fixed
// for the life of the prepared query; results are bit-identical at any cut.
func blockBounds(dom int) [][2]int32 {
	nb := 2 * runtime.GOMAXPROCS(0)
	if nb > dom {
		nb = dom
	}
	if nb < 1 {
		nb = 1
	}
	bounds := make([][2]int32, nb)
	for b := 0; b < nb; b++ {
		bounds[b] = [2]int32{int32(b * dom / nb), int32((b + 1) * dom / nb)}
	}
	return bounds
}

// blockSafe reports whether restricting every pv-covering factor to a key
// range of pv commutes with the plan, i.e. whether the restricted pipeline
// provably computes exactly the full pipeline's rows with pv in range.  It
// replays the eliminations of insideOut over variable sets alone.
// Restriction is sound as long as pv sticks to every intermediate derived
// from pv-carrying data — pv is σ(0), eliminated last, so ordinary
// eliminations never drop it.  The two escapes are (a) an indicator
// projection of a pv-carrying factor onto a set without pv (Eq. (7) would
// then see support the restriction removed) and (b) a product aggregate at
// pv itself (ProductMarginalize needs full-domain coverage of each group).
// Product steps at other variables commute: restriction drops whole groups,
// never group members, so coverage counts are unchanged.
func blockSafe[V any](q *Query[V], order []int, opts Options, pv int) bool {
	entries := make([]bitset.Set, 0, len(q.Factors))
	for _, f := range q.Factors {
		entries = append(entries, bitset.FromSlice(f.Vars))
	}
	// step replays one semiring elimination (or one free-phase 01-OR step,
	// which selects inputs the same way) and reports whether it is safe.
	step := func(working []bitset.Set, v int) ([]bitset.Set, bool) {
		var u bitset.Set
		found := false
		for _, e := range working {
			if e.Contains(v) {
				found = true
				u.UnionWith(e)
			}
		}
		if !found {
			return nil, false
		}
		out := make([]bitset.Set, 0, len(working))
		for _, e := range working {
			if e.Contains(v) {
				continue
			}
			if opts.IndicatorProjections && e.Intersects(u) && e.Contains(pv) && !u.Contains(pv) {
				return nil, false
			}
			out = append(out, e)
		}
		res := u.Clone()
		res.Remove(v)
		return append(out, res), true
	}
	for k := q.NVars - 1; k >= q.NumFree; k-- {
		v := order[k]
		if q.Aggs[v].Kind == KindProduct {
			if v == pv {
				return false
			}
			next := make([]bitset.Set, 0, len(entries))
			found := false
			for _, e := range entries {
				if e.Contains(v) {
					found = true
					nv := e.Clone()
					nv.Remove(v)
					next = append(next, nv)
					continue
				}
				next = append(next, e)
			}
			if !found {
				return false
			}
			entries = next
			continue
		}
		var ok bool
		entries, ok = step(entries, v)
		if !ok {
			return false
		}
	}
	if q.NumFree > 0 && opts.FilterOutput {
		working := append([]bitset.Set(nil), entries...)
		for k := q.NumFree - 1; k >= 0; k-- {
			var ok bool
			working, ok = step(working, order[k])
			if !ok {
				return false
			}
		}
	}
	return true
}

// factorDomSizes maps the query's per-variable domain sizes onto one
// factor's variable list, the layout factor-level delta validation expects.
func factorDomSizes[V any](q *Query[V], f *factor.Factor[V]) []int {
	ds := make([]int, len(f.Vars))
	for i, v := range f.Vars {
		ds[i] = q.DomSizes[v]
	}
	return ds
}

// deltaRun executes the prepared plan over a substituted factor list on the
// query's trie cache: registered (committed) factors serve their tries
// from cache, transient delta/restricted factors bypass it.
func (p *PreparedQuery[V]) deltaRun(ctx context.Context, factors []*factor.Factor[V]) (*Result[V], error) {
	nq := *p.q
	nq.Factors = factors
	return insideOut(ctx, &nq, p.plan.Order, p.opts, p.executor(p.tries))
}

// applyRing maintains the result by Δ-propagation: each batch against
// factor i becomes one run with Δψ_i substituted for ψ_i, whose output is
// folded into the cached result with ⊕.  Exact whenever ⊕ is (int64 mod
// 2⁶⁴, integer-valued floats); for general floats the result is the usual
// floating-point reassociation away from a recompute.
func (p *PreparedQuery[V]) applyRing(ctx context.Context, st *deltaState[V], deltas []Delta[V]) (*Result[V], error) {
	d := p.q.D
	cur := append([]*factor.Factor[V](nil), st.cur...)
	res := st.result
	var stats Stats
	if res == nil { // first call: establish the baseline
		full, err := p.deltaRun(ctx, cur)
		if err != nil {
			return nil, err
		}
		p.rt.deltaRecomputes.Add(1)
		res = full
		stats = full.Stats
	}
	out := res.Output
	for _, dl := range deltas {
		f := cur[dl.Factor]
		fd := factor.Delta[V]{Op: dl.Op, Rows: dl.Rows, Values: dl.Values}
		ds := factorDomSizes(p.q, f)
		df, err := f.DeltaFactor(d, st.ringOp.Inverse, fd, ds)
		if err != nil {
			return nil, fmt.Errorf("core: delta for factor %d: %w", dl.Factor, err)
		}
		nf, err := f.ApplyDelta(d, fd, ds)
		if err != nil {
			return nil, fmt.Errorf("core: delta for factor %d: %w", dl.Factor, err)
		}
		if df.Size() > 0 {
			run := append([]*factor.Factor[V](nil), cur...)
			run[dl.Factor] = df
			dres, err := p.deltaRun(ctx, run)
			if err != nil {
				return nil, err
			}
			out = out.Add(d, st.ringOp.Combine, dres.Output)
			mergeRunStats(&stats, &dres.Stats)
			p.rt.deltaRingRuns.Add(1)
		}
		cur[dl.Factor] = nf
	}
	p.commitFactors(st, cur, nil)
	st.result = &Result[V]{D: d, FreeVars: res.FreeVars, Output: out, Stats: stats}
	return st.result, nil
}

// applyBlocks maintains per-block results: a batch dirties the blocks its
// pv key range intersects (every block, for factors not covering pv) and
// only those re-execute, each over factors restricted to the block's range.
func (p *PreparedQuery[V]) applyBlocks(ctx context.Context, st *deltaState[V], deltas []Delta[V]) (*Result[V], error) {
	d := p.q.D
	cur := append([]*factor.Factor[V](nil), st.cur...)
	dirty := make([]bool, len(st.bounds))
	blocks := st.blocks
	if blocks == nil { // first call: every block computes
		blocks = make([]*factor.Factor[V], len(st.bounds))
		for b := range dirty {
			dirty[b] = true
		}
	} else {
		blocks = append([]*factor.Factor[V](nil), blocks...)
	}
	ranges := map[int][2]int32{}
	for _, dl := range deltas {
		f := cur[dl.Factor]
		fd := factor.Delta[V]{Op: dl.Op, Rows: dl.Rows, Values: dl.Values}
		nf, err := f.ApplyDelta(d, fd, factorDomSizes(p.q, f))
		if err != nil {
			return nil, fmt.Errorf("core: delta for factor %d: %w", dl.Factor, err)
		}
		cur[dl.Factor] = nf
		if !st.pvIn[dl.Factor] {
			for b := range dirty {
				dirty[b] = true
			}
			continue
		}
		if lo, hi, ok := fd.KeyRange(f.Vars, st.pv, len(f.Vars)); ok {
			for b, bb := range st.bounds {
				if lo < bb[1] && hi >= bb[0] {
					dirty[b] = true
				}
			}
			if r, seen := ranges[dl.Factor]; seen {
				ranges[dl.Factor] = [2]int32{min(r[0], lo), max(r[1], hi+1)}
			} else {
				ranges[dl.Factor] = [2]int32{lo, hi + 1}
			}
		}
	}
	var stats Stats
	reran := 0
	for b, isDirty := range dirty {
		if !isDirty {
			continue
		}
		restricted := append([]*factor.Factor[V](nil), cur...)
		for i := range cur {
			if st.pvIn[i] {
				restricted[i] = cur[i].RestrictRange(st.pv, st.bounds[b][0], st.bounds[b][1])
			}
		}
		bres, err := p.deltaRun(ctx, restricted)
		if err != nil {
			return nil, err
		}
		blocks[b] = bres.Output
		mergeRunStats(&stats, &bres.Stats)
		reran++
	}
	p.rt.deltaBlockRuns.Add(int64(reran))
	res, err := p.mergeBlocks(st, blocks)
	if err != nil {
		return nil, err
	}
	res.Stats = stats
	p.commitFactors(st, cur, ranges)
	st.blocks = blocks
	st.result = res
	return res, nil
}

// mergeBlocks reassembles the full result from per-block outputs.  Output
// queries union disjoint row sets (each block holds the rows whose pv key is
// in its range); scalar queries ⊕-fold the block scalars in block order —
// an exact pick, since block mode requires an idempotent ⊕ at pv.
func (p *PreparedQuery[V]) mergeBlocks(st *deltaState[V], blocks []*factor.Factor[V]) (*Result[V], error) {
	d := p.q.D
	res := &Result[V]{D: d}
	for i := 0; i < p.q.NumFree; i++ {
		res.FreeVars = append(res.FreeVars, i)
	}
	if p.q.NumFree == 0 {
		acc := d.Zero
		for _, bf := range blocks {
			v := d.Zero
			if bf != nil && bf.Size() > 0 {
				v = bf.Values[0]
			}
			acc = st.pvOp.Combine(acc, v)
		}
		res.Output = factor.Scalar(d, acc)
		return res, nil
	}
	vars := make([]int, p.q.NumFree)
	for i := range vars {
		vars[i] = i
	}
	var n int
	for _, bf := range blocks {
		n += bf.Size()
	}
	rows := make([]int32, 0, n*len(vars))
	vals := make([]V, 0, n)
	for _, bf := range blocks {
		rows = append(rows, bf.Rows()...)
		vals = append(vals, bf.Values...)
	}
	out, err := factor.NewRows(d, vars, rows, vals, nil)
	if err != nil {
		return nil, err
	}
	res.Output = out
	return res, nil
}

// applyRecompute applies the batches and re-runs the plan over the updated
// factors.  Committed versions stay registered in the trie cache, so only
// the changed factors rebuild their tries.
func (p *PreparedQuery[V]) applyRecompute(ctx context.Context, st *deltaState[V], deltas []Delta[V]) (*Result[V], error) {
	d := p.q.D
	cur := append([]*factor.Factor[V](nil), st.cur...)
	for _, dl := range deltas {
		f := cur[dl.Factor]
		fd := factor.Delta[V]{Op: dl.Op, Rows: dl.Rows, Values: dl.Values}
		nf, err := f.ApplyDelta(d, fd, factorDomSizes(p.q, f))
		if err != nil {
			return nil, fmt.Errorf("core: delta for factor %d: %w", dl.Factor, err)
		}
		cur[dl.Factor] = nf
	}
	res, err := p.deltaRun(ctx, cur)
	if err != nil {
		return nil, err
	}
	p.rt.deltaRecomputes.Add(1)
	p.commitFactors(st, cur, nil)
	st.result = res
	return res, nil
}

// commitFactors publishes the new factor versions: each superseded factor is
// replaced in the query's trie cache (invalidation of its entries plus
// registration of the successor), with the batch's pv key range when the
// caller tracked one.
func (p *PreparedQuery[V]) commitFactors(st *deltaState[V], cur []*factor.Factor[V], ranges map[int][2]int32) {
	for i := range cur {
		if cur[i] == st.cur[i] {
			continue
		}
		lo, hi := int32(0), int32(math.MaxInt32)
		if r, ok := ranges[i]; ok {
			lo, hi = r[0], r[1]
		}
		p.tries.Update(st.cur[i], cur[i], lo, hi)
	}
	st.cur = cur
}

// mergeRunStats folds one maintenance run's counters into the batch total.
func mergeRunStats(dst, src *Stats) {
	dst.Join.Merge(&src.Join)
	dst.IntermediateRows += src.IntermediateRows
	if src.MaxIntermediate > dst.MaxIntermediate {
		dst.MaxIntermediate = src.MaxIntermediate
	}
	dst.Eliminations += src.Eliminations
	dst.PowerSteps += src.PowerSteps
}
