package core

import (
	"context"
	"fmt"
	"sort"

	"github.com/faqdb/faq/internal/bitset"
	"github.com/faqdb/faq/internal/factor"
	"github.com/faqdb/faq/internal/join"
	"github.com/faqdb/faq/internal/obs"
	"github.com/faqdb/faq/internal/semiring"
)

// Options tune a single InsideOut run.
type Options struct {
	// IndicatorProjections enables the semijoin-style reduction of Eq. (7):
	// factors outside ∂(k) that intersect U_k contribute their indicator
	// projections to the intermediate join.  Disabling it reproduces plain
	// variable elimination (Section 5.1.2) for ablation benchmarks.
	IndicatorProjections bool
	// FilterOutput enables the 01-OR free-variable phase of Section 5.2.3
	// (Eq. (10)–(12)): free variables are eliminated under the 01 semiring
	// and the recorded ψ_{U_k} factors guide the final OutsideIn pass so
	// output is produced in time Õ(‖φ‖), Yannakakis-style.
	FilterOutput bool
	// Factorized keeps the output in the factorized representation of
	// Section 8.4 instead of listing it.  Result.Output stays nil; use
	// Result.Factorized.
	Factorized bool
	// Workers sizes the block-parallel executor that runs each
	// variable-elimination scan and output join: 0 (the default) means
	// GOMAXPROCS, 1 forces the sequential executor, larger values cap the
	// worker pool.  Every worker count produces bit-identical results;
	// scalar-output scans always run sequentially so ⊕-folds never
	// re-associate.
	Workers int
}

// DefaultOptions returns the configuration matching Algorithm 1, with the
// parallel executor sized to GOMAXPROCS.
func DefaultOptions() Options {
	return Options{IndicatorProjections: true, FilterOutput: true}
}

// Stats reports work done by one InsideOut run.  Counters are updated with
// atomic operations (via addIntermediate and join.Stats.Merge), so parallel
// executor runs report the same true totals as sequential ones.
type Stats struct {
	Join             join.Stats
	IntermediateRows int64 // total rows across intermediate factors
	MaxIntermediate  int64 // largest intermediate factor
	Eliminations     int
	PowerSteps       int
}

// Result holds the outcome of an InsideOut run.  For queries without free
// variables Output is a nullary factor whose single value (or absence) is
// also exposed through Scalar.
type Result[V any] struct {
	D          *semiring.Domain[V]
	FreeVars   []int
	Output     *factor.Factor[V]
	Factorized *Factorized[V]
	Stats      Stats
}

// Scalar returns the value of a nullary (no free variables) result.
func (r *Result[V]) Scalar() V {
	if r.Output != nil && r.Output.Size() > 0 {
		return r.Output.Values[0]
	}
	return r.D.Zero
}

// entry is a live hyperedge of the evolving FAQ instance.
type entry[V any] struct {
	vars bitset.Set
	f    *factor.Factor[V]
}

// InsideOut evaluates the query along the variable ordering order, which
// must be φ-equivalent (members of LinEx(P) always are; the expression order
// 0..n-1 trivially is).  This is Algorithm 1 of the paper.
func InsideOut[V any](q *Query[V], order []int, opts Options) (*Result[V], error) {
	return InsideOutCtx(context.Background(), q, order, opts)
}

// InsideOutCtx is InsideOut under a context: cancellation is observed
// between elimination steps and at the block boundaries of every scan, so a
// cancelled run returns ctx.Err() promptly and leaks no goroutines.
func InsideOutCtx[V any](ctx context.Context, q *Query[V], order []int, opts Options) (*Result[V], error) {
	return insideOutOn(ctx, q, order, opts, newExecutor[V](opts.Workers))
}

// insideOutOn is the engine-internal entry point: the executor (and with it
// the worker pool) is chosen by the caller, so a long-lived Engine reuses
// one persistent pool across elimination steps, runs and queries.
func insideOutOn[V any](ctx context.Context, q *Query[V], order []int, opts Options,
	exec executor[V]) (*Result[V], error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return insideOutValidated(ctx, q, order, opts, exec)
}

// insideOutValidated is insideOutOn for callers that have already validated
// q (PreparedQuery runs validate at Prepare/RunWithFactors time, not per
// run — Validate walks every input tuple, which would tax exactly the hot
// path the prepared API amortizes).
func insideOutValidated[V any](ctx context.Context, q *Query[V], order []int, opts Options,
	exec executor[V]) (*Result[V], error) {
	shape := q.Shape()
	if err := shape.checkOrder(order); err != nil {
		return nil, err
	}
	pos := make([]int, q.NVars) // variable -> position in order
	for i, v := range order {
		pos[v] = i
	}

	res := &Result[V]{D: q.D}
	for i := 0; i < q.NumFree; i++ {
		res.FreeVars = append(res.FreeVars, i)
	}

	entries := make([]entry[V], 0, len(q.Factors))
	for _, f := range q.Factors {
		entries = append(entries, entry[V]{vars: bitset.FromSlice(f.Vars), f: f})
	}

	// tr is nil unless the request asked for a trace; every per-step hook
	// below is guarded on it, so the disabled path does no extra work.
	tr := obs.FromContext(ctx)

	// Eliminate bound variables from the innermost out.
	for k := q.NVars - 1; k >= q.NumFree; k-- {
		if err := join.CtxErr(ctx); err != nil {
			return nil, err
		}
		v := order[k]
		agg := q.Aggs[v]
		var err error
		var sp *obs.Span
		var before join.Stats
		if tr != nil {
			// Safe to copy non-atomically: res.Stats.Join is only mutated
			// from this goroutine (parallel scans merge worker-private
			// stats in the caller after the pool drains).
			before = res.Stats.Join
			sp = tr.Start("eliminate")
		}
		if agg.Kind == KindSemiring {
			entries, err = eliminateSemiring(ctx, q, exec, &res.Stats, entries, v, agg.Op, pos, opts)
		} else {
			entries, err = eliminateProduct(q, &res.Stats, entries, v)
		}
		if sp != nil {
			sp.Set("var", q.VarName(v))
			if agg.Kind == KindSemiring {
				sp.Set("kind", "semiring")
			} else {
				sp.Set("kind", "product")
			}
			after := res.Stats.Join
			sp.Set("probes", after.Probes-before.Probes)
			sp.Set("rows", after.Emitted-before.Emitted)
			if blocks := after.Blocks - before.Blocks; blocks > 0 {
				sp.Set("blocks", blocks)
				sp.Set("pool_wait_ms", float64(after.PoolWaitNS-before.PoolWaitNS)/1e6)
			}
			if scans := after.ParallelScans - before.ParallelScans; scans > 0 {
				sp.Set("block_keys", (after.BlockKeys-before.BlockKeys)/scans)
				if after.CacheSplits-before.CacheSplits > 0 {
					sp.Set("split", "cache-aware")
				} else {
					sp.Set("split", "floor")
				}
			}
			sp.End()
		}
		if err != nil {
			return nil, err
		}
		res.Stats.Eliminations++
	}

	if q.NumFree == 0 {
		// All remaining factors are nullary; their product is the answer.
		val := q.D.One
		for _, e := range entries {
			if e.f.Size() == 0 {
				val = q.D.Zero
				break
			}
			val = q.D.Mul(val, e.f.Values[0])
		}
		res.Output = factor.Scalar(q.D, val)
		return res, nil
	}

	// Free-variable phase.
	base := make([]*factor.Factor[V], len(entries))
	for i, e := range entries {
		base[i] = e.f
	}
	freeOrder := append([]int(nil), order[:q.NumFree]...)
	var filters []*factor.Factor[V]
	if opts.FilterOutput {
		var err error
		sp := tr.Start("output_filters")
		filters, err = buildOutputFilters(ctx, q, exec, &res.Stats, entries, order, pos, opts)
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	fz := &Factorized[V]{
		D:         q.D,
		FreeOrder: freeOrder,
		Base:      base,
		Filters:   filters,
		exec:      exec,
	}
	if opts.Factorized {
		res.Factorized = fz
		return res, nil
	}
	sp := tr.Start("listing")
	out, err := fz.toListing(ctx, &res.Stats.Join)
	if sp != nil {
		if out != nil {
			sp.Set("rows", out.Size())
		}
		sp.End()
	}
	if err != nil {
		return nil, err
	}
	res.Output = out
	return res, nil
}

// eliminateSemiring performs one Case-1 step (Section 5.2.1): it joins
// ∂(v) with the indicator projections of the other U-intersecting factors
// and aggregates v out with ⊕ using OutsideIn on the configured executor.
func eliminateSemiring[V any](ctx context.Context, q *Query[V], exec executor[V], st *Stats, entries []entry[V], v int,
	op *semiring.Op[V], pos []int, opts Options) ([]entry[V], error) {

	var boundary []int
	var u bitset.Set
	for i, e := range entries {
		if e.vars.Contains(v) {
			boundary = append(boundary, i)
			u.UnionWith(e.vars)
		}
	}
	if len(boundary) == 0 {
		return nil, fmt.Errorf("core: variable %d has no incident factor at elimination time", v)
	}
	inputs := make([]*factor.Factor[V], 0, len(entries))
	var toProject, support []*factor.Factor[V]
	bi := 0
	var rest []entry[V]
	for i, e := range entries {
		if bi < len(boundary) && boundary[bi] == i {
			bi++
			inputs = append(inputs, e.f)
			continue
		}
		rest = append(rest, e)
		if opts.IndicatorProjections && e.vars.Intersects(u) {
			toProject, support = splitProjections(toProject, support, e, u)
		}
	}
	projected, err := exec.project(ctx, q.D, toProject, u.Elems())
	if err != nil {
		return nil, err
	}
	inputs = append(inputs, projected...)
	// Join over U ordered by σ-position; v has the maximal position among
	// the not-yet-eliminated variables, so it comes last.
	orderedU := u.Elems()
	sort.Slice(orderedU, func(a, b int) bool { return pos[orderedU[a]] < pos[orderedU[b]] })
	nf, err := exec.eliminate(ctx, q.D, op, inputs, support, orderedU, &st.Join)
	if err != nil {
		return nil, err
	}
	st.addIntermediate(nf.Size())
	res := u.Clone()
	res.Remove(v)
	return append(rest, entry[V]{vars: res, f: nf}), nil
}

// splitProjections files e under the indicator projections Eq. (7) needs
// onto u: a factor whose variables all lie in u projects onto its own
// support, which the join reads straight off the factor's trie (support),
// and every other factor is projected for real (toProject).
func splitProjections[V any](toProject, support []*factor.Factor[V], e entry[V], u bitset.Set) (
	[]*factor.Factor[V], []*factor.Factor[V]) {
	if e.vars.SubsetOf(u) {
		return toProject, append(support, e.f)
	}
	return append(toProject, e.f), support
}

// eliminateProduct performs one Case-2 step (Section 5.2.2): factors
// containing v are product-marginalized; every other factor is raised to
// the |Dom(X_v)|-th power pointwise, skipping ⊗-idempotent values.
func eliminateProduct[V any](q *Query[V], st *Stats, entries []entry[V], v int) ([]entry[V], error) {
	dom := q.DomSizes[v]
	out := make([]entry[V], 0, len(entries))
	touched := false
	for _, e := range entries {
		if e.vars.Contains(v) {
			touched = true
			nf := e.f.ProductMarginalize(q.D, v, dom)
			st.addIntermediate(nf.Size())
			nv := e.vars.Clone()
			nv.Remove(v)
			out = append(out, entry[V]{vars: nv, f: nf})
			continue
		}
		if dom > 1 && !e.f.RangeIdempotent(q.D) {
			st.PowerSteps++
			out = append(out, entry[V]{vars: e.vars, f: e.f.Clone().PowValues(q.D, dom)})
			continue
		}
		out = append(out, e)
	}
	if !touched {
		return nil, fmt.Errorf("core: product variable %d has no incident factor at elimination time", v)
	}
	return out, nil
}

// buildOutputFilters runs the 01-OR elimination of the free variables
// (Algorithm 1, lines 8–10) and returns the recorded ψ_{U_k} factors that
// Eq. (12) multiplies into the final OutsideIn pass.
func buildOutputFilters[V any](ctx context.Context, q *Query[V], exec executor[V], st *Stats, entries []entry[V],
	order []int, pos []int, opts Options) ([]*factor.Factor[V], error) {

	working := append([]entry[V](nil), entries...)
	var filters []*factor.Factor[V]
	for k := q.NumFree - 1; k >= 0; k-- {
		if err := join.CtxErr(ctx); err != nil {
			return nil, err
		}
		v := order[k]
		var boundary []int
		var u bitset.Set
		for i, e := range working {
			if e.vars.Contains(v) {
				boundary = append(boundary, i)
				u.UnionWith(e.vars)
			}
		}
		if len(boundary) == 0 {
			return nil, fmt.Errorf("core: free variable %d has no incident factor at output time", v)
		}
		var toProject, support []*factor.Factor[V]
		bi := 0
		var rest []entry[V]
		for i, e := range working {
			include := false
			if bi < len(boundary) && boundary[bi] == i {
				bi++
				include = true
			} else {
				rest = append(rest, e)
				include = opts.IndicatorProjections && e.vars.Intersects(u)
			}
			if include {
				toProject, support = splitProjections(toProject, support, e, u)
			}
		}
		inputs, err := exec.project(ctx, q.D, toProject, u.Elems())
		if err != nil {
			return nil, err
		}
		orderedU := u.Elems()
		sort.Slice(orderedU, func(a, b int) bool { return pos[orderedU[a]] < pos[orderedU[b]] })
		psiU, err := exec.joinAll(ctx, q.D, inputs, support, orderedU, &st.Join)
		if err != nil {
			return nil, err
		}
		st.addIntermediate(psiU.Size())
		filters = append(filters, psiU)
		res := u.Clone()
		res.Remove(v)
		reduced := psiU.Marginalize(q.D, semiring.OpZeroOneOr(q.D), v)
		working = append(rest, entry[V]{vars: res, f: reduced})
	}
	return filters, nil
}

// Factorized is the §8.4 "O(1)-delay enumeration" output representation:
// the E_f factors plus the ψ_{U_k} filter factors, kept unjoined.  Value
// queries cost O(f + m) hash probes; Enumerate lists the output with
// constant delay per tuple; ToListing materializes Eq. (12).
type Factorized[V any] struct {
	D         *semiring.Domain[V]
	FreeOrder []int // free variables in σ order
	Base      []*factor.Factor[V]
	Filters   []*factor.Factor[V]

	exec executor[V] // set by InsideOut; nil means sequential
}

func (fz *Factorized[V]) joinInputs() []*factor.Factor[V] {
	inputs := make([]*factor.Factor[V], 0, len(fz.Base)+len(fz.Filters))
	inputs = append(inputs, fz.Base...)
	inputs = append(inputs, fz.Filters...)
	return inputs
}

// ToListing materializes the output in listing representation over the free
// variables sorted ascending, on the executor the run was configured with.
func (fz *Factorized[V]) ToListing(st *join.Stats) (*factor.Factor[V], error) {
	return fz.toListing(context.Background(), st)
}

func (fz *Factorized[V]) toListing(ctx context.Context, st *join.Stats) (*factor.Factor[V], error) {
	exec := fz.exec
	if exec == nil {
		exec = seqExecutor[V]{}
	}
	return exec.joinAll(ctx, fz.D, fz.joinInputs(), nil, fz.FreeOrder, st)
}

// Enumerate streams output tuples (aligned with sorted free variables) in
// lexicographic order of the σ-ordered free variables.  The tuple slice is
// reused across calls.
func (fz *Factorized[V]) Enumerate(emit func(tuple []int, val V)) error {
	r, err := join.NewRunner(fz.D, fz.joinInputs(), fz.FreeOrder)
	if err != nil {
		return err
	}
	r.Run(emit)
	return nil
}

// Value answers a point query φ(t) where assignment maps variable id to
// value, without materializing the output.
func (fz *Factorized[V]) Value(assignment []int) V {
	val := fz.D.One
	for _, f := range fz.Base {
		val = fz.D.Mul(val, f.At(fz.D, assignment))
		if fz.D.IsZero(val) {
			return fz.D.Zero
		}
	}
	for _, f := range fz.Filters {
		if fz.D.IsZero(f.At(fz.D, assignment)) {
			return fz.D.Zero
		}
	}
	return val
}
