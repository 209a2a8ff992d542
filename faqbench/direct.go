package main

// Direct calls into each layer's public functions, on the workload's own
// inputs, each wrapped in a span.  They run in traced runs only, after the
// measured phase, against a private engine: the figures attribute time to
// layers without touching the daemon's counters.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/faqdb/faq/internal/bitset"
	"github.com/faqdb/faq/internal/core"
	"github.com/faqdb/faq/internal/factor"
	"github.com/faqdb/faq/internal/hypergraph"
	"github.com/faqdb/faq/internal/join"
	"github.com/faqdb/faq/internal/linprog"
	"github.com/faqdb/faq/internal/obs"
	"github.com/faqdb/faq/internal/semiring"
	"github.com/faqdb/faq/internal/sortx"
	"github.com/faqdb/faq/internal/spec"
	"github.com/faqdb/faq/internal/wire"
)

func traceOf(td *obs.TraceData) []*obs.TraceData {
	if td == nil {
		return nil
	}
	return []*obs.TraceData{td}
}

// triangleVars are the sorted variables of R(x,y), S(y,z), T(x,z).
var triangleVars = [][]int{{0, 1}, {1, 2}, {0, 2}}

// frameFactors builds factors from frames, copying the columns NewRows
// takes ownership of.
func frameFactors(frames []*wire.Frame) ([]*factor.Factor[float64], error) {
	d := semiring.Float()
	out := make([]*factor.Factor[float64], len(frames))
	for i, f := range frames {
		var err error
		out[i], err = factor.NewRows(d, triangleVars[i], append([]int32(nil), f.Rows...),
			append([]float64(nil), f.Floats...), nil)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// parseQuery is the spec layer's whole job: text to a float query.
func parseQuery(text string) (*core.Query[float64], error) {
	doc, err := spec.ParseDocument(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	q, _, err := doc.BuildFloat()
	return q, err
}

// buildQuery parses a spec with empty factor blocks and attaches factors.
func buildQuery(text string, factors []*factor.Factor[float64]) (*core.Query[float64], error) {
	q, err := parseQuery(text)
	if err != nil {
		return nil, err
	}
	q.Factors = factors
	return q, nil
}

// directTriangle times the data-plane layers on one triangle instance:
// spec parsing, the wire codec, factor construction, the sort kernel,
// trie build and scan, and the prepared-query runs.
func directTriangle(ctx context.Context, lay *layers, tri *triangle, text string, reps int) error {
	for i := 0; i < reps; i++ {
		if err := lay.timeCall("spec.parse_ms", func() error {
			_, err := parseQuery(text)
			return err
		}); err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := lay.timeCall("wire.encode_ms", func() error {
			enc := wire.NewEncoder(&buf)
			for _, f := range tri.frames {
				if err := enc.Encode(f); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		var decoded []*wire.Frame
		if err := lay.timeCall("wire.decode_ms", func() error {
			dec := wire.NewDecoder(bytes.NewReader(buf.Bytes()))
			for range tri.frames {
				f, err := dec.Decode()
				if err != nil {
					return err
				}
				decoded = append(decoded, f)
			}
			return nil
		}); err != nil {
			return err
		}
		d := semiring.Float()
		if err := lay.timeCall("factor.new_rows_ms", func() error {
			for i, f := range decoded {
				if _, err := factor.NewRows(d, triangleVars[i], f.Rows, f.Floats, nil); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		// The permuted blocks: each relation with its columns swapped, the
		// order a trie build needs when the join order differs from storage.
		swapped := make([][]int32, len(tri.frames))
		for i, f := range tri.frames {
			swapped[i] = make([]int32, len(f.Rows))
			for r := 0; r+1 < len(f.Rows); r += 2 {
				swapped[i][r], swapped[i][r+1] = f.Rows[r+1], f.Rows[r]
			}
		}
		if err := lay.timeCall("sortx.argsort_ms", func() error {
			for _, rows := range swapped {
				sortx.Argsort(rows, 2, len(rows)/2, false)
			}
			return nil
		}); err != nil {
			return err
		}
	}

	factors, err := frameFactors(tri.frames)
	if err != nil {
		return err
	}
	var runner *join.Runner[float64]
	var sum float64
	for i := 0; i < reps; i++ {
		if err := lay.timeCall("join.trie_build_ms", func() error {
			var err error
			runner, err = join.NewRunner(semiring.Float(), factors, []int{0, 1, 2})
			return err
		}); err != nil {
			return err
		}
		sum = 0
		_ = lay.timeCall("join.scan_ms", func() error {
			runner.Run(func(_ []int, v float64) { sum += v })
			return nil
		})
	}
	if sum != tri.total {
		return fmt.Errorf("join scan summed %v, the oracle %v", sum, tri.total)
	}

	eng := core.NewEngine[float64](core.EngineOptions{})
	defer eng.Close()
	q, err := buildQuery(tri.freshSpec("", false), factors)
	if err != nil {
		return err
	}
	prep, err := eng.Prepare(q)
	if err != nil {
		return err
	}
	if _, err := prep.Run(ctx); err != nil { // builds and caches the tries
		return err
	}
	check := func(res *core.Result[float64]) error {
		if res.Scalar() != tri.total {
			return fmt.Errorf("engine answered %v, the oracle %v", res.Scalar(), tri.total)
		}
		return nil
	}
	const items = 8
	sets := make([][]*factor.Factor[float64], items)
	for i := range sets {
		sets[i] = factors
	}
	for i := 0; i < reps; i++ {
		if err := lay.timeCall("core.prepare_hit_ms", func() error {
			_, err := eng.Prepare(q)
			return err
		}); err != nil {
			return err
		}
		if err := lay.timeCall("core.run_ms", func() error {
			res, err := prep.Run(ctx)
			if err != nil {
				return err
			}
			return check(res)
		}); err != nil {
			return err
		}
		if err := lay.timeCall("core.run_with_factors_ms", func() error {
			res, err := prep.RunWithFactors(ctx, factors)
			if err != nil {
				return err
			}
			return check(res)
		}); err != nil {
			return err
		}
		if err := lay.timeCalls("core.run_batch_item_ms", items, func() error {
			var bad error
			err := prep.RunBatch(ctx, sets, 0, func(i int, res *core.Result[float64], _ time.Duration, err error) {
				if err == nil {
					err = check(res)
				}
				if err != nil && bad == nil {
					bad = err
				}
			})
			if err != nil {
				return err
			}
			return bad
		}); err != nil {
			return err
		}
	}
	return nil
}

// directDelta times the write path on one delta session's cycle: delta
// frame decoding, Factor.ApplyDelta and PreparedQuery.ApplyDeltas.
func directDelta(ctx context.Context, lay *layers, ds *deltaSession, reps int) error {
	d := semiring.Float()
	factors, err := frameFactors(ds.frames)
	if err != nil {
		return err
	}
	deltas := make([]core.Delta[float64], len(ds.deltas))
	for i, df := range ds.deltas {
		op := factor.DeltaInsert
		if df.Op == wire.DeltaOpDelete {
			op = factor.DeltaDelete
		}
		deltas[i] = core.Delta[float64]{Factor: df.Factor, Op: op, Rows: df.Rows, Values: df.Floats}
	}
	eng := core.NewEngine[float64](core.EngineOptions{})
	defer eng.Close()
	empty := [3]*relation{{n: largeN}, {n: largeN}, {n: largeN}}
	q, err := buildQuery(triangleSpec("", largeN, empty, true), factors)
	if err != nil {
		return err
	}
	prep, err := eng.Prepare(q)
	if err != nil {
		return err
	}
	for i := 0; i < reps; i++ {
		for _, body := range ds.steps {
			if err := lay.timeCall("wire.delta_decode_ms", func() error {
				dec := wire.NewDecoder(bytes.NewReader(body))
				if _, _, err := dec.ReadStreamHeader(1 << 20); err != nil {
					return err
				}
				_, err := dec.DecodeDelta()
				return err
			}); err != nil {
				return err
			}
		}
		cur := factors[0]
		for _, dl := range []core.Delta[float64]{deltas[0], deltas[2]} {
			if err := lay.timeCall("factor.apply_delta_ms", func() error {
				var err error
				cur, err = cur.ApplyDelta(d, factor.Delta[float64]{Op: dl.Op, Rows: dl.Rows, Values: dl.Values}, nil)
				return err
			}); err != nil {
				return err
			}
		}
		if !cur.Equal(d, factors[0]) {
			return fmt.Errorf("insert then delete of one batch did not restore the factor")
		}
		var res *core.Result[float64]
		for _, dl := range deltas {
			if err := lay.timeCall("core.apply_deltas_ms", func() error {
				var err error
				res, err = prep.ApplyDeltas(ctx, []core.Delta[float64]{dl})
				return err
			}); err != nil {
				return err
			}
		}
		if err := checkFactorListing(res.Output, ds.base); err != nil {
			return fmt.Errorf("after a full ApplyDeltas cycle: %w", err)
		}
	}
	return nil
}

// checkFactorListing compares an x-free result factor with per-x sums.
func checkFactorListing(f *factor.Factor[float64], perX []float64) error {
	got := make([]float64, len(perX))
	for i, tup := range f.Tuples() {
		got[tup[0]] = f.Values[i]
	}
	for x := range perX {
		if math.Float64bits(got[x]) != math.Float64bits(perX[x]) {
			return fmt.Errorf("x=%d: %v, want %v", x, got[x], perX[x])
		}
	}
	return nil
}

// directPlan times the planning layers on k rounds of fresh shapes: the planner
// entry point, the elimination-order DP with a fractional-cover cost, and
// the covering LP over all variables.
func directPlan(ctx context.Context, lay *layers, stream *shapeStream, k int) error {
	var shapes []*shape
	for i := 0; i < k; i++ {
		shapes = append(shapes, stream.round()...)
	}
	for _, s := range shapes {
		text := s.spec()
		var q *core.Query[float64]
		if err := lay.timeCall("spec.parse_ms", func() error {
			var err error
			q, err = parseQuery(text)
			return err
		}); err != nil {
			return err
		}
		sh := q.Shape()
		var plan *core.Plan
		if err := lay.timeCall("core.plan_ms", func() error {
			var err error
			plan, err = core.ChoosePlanCtx(ctx, sh, hypergraph.NewWidthCalc(sh.H))
			return err
		}); err != nil {
			return err
		}
		if s.fhtw != 0 && math.Abs(plan.Width-s.fhtw) > 1e-9 {
			return fmt.Errorf("%s: planner width %g, want %g", s.name, plan.Width, s.fhtw)
		}
		if err := lay.timeCall("hypergraph.elimdp_ms", func() error {
			wc := hypergraph.NewWidthCalc(sh.H)
			dp := &hypergraph.ElimDP{H: sh.H, Ctx: ctx,
				Cost: func(_ int, u bitset.Set) float64 { return wc.RhoStar(u) }}
			_, _, err := dp.Solve()
			return err
		}); err != nil {
			return err
		}
		edges := sh.H.EdgeLists()
		cost := make([]float64, len(edges))
		for j := range cost {
			cost[j] = 1
		}
		if err := lay.timeCall("linprog.cover_ms", func() error {
			_, _, err := linprog.FractionalCover(edges, cost, identity(sh.N))
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}
