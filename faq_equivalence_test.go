// Randomized cross-semiring correctness harness: ~200 random queries per run
// over the Float, Int, Bool and Tropical domains, each checked several ways —
//
//   - a run along the expression order ≡ the BruteForce oracle,
//   - a run along the planned ordering ≡ the BruteForce oracle,
//   - Workers=1 ≡ Workers>1, asserted bit-identical: the block-parallel
//     executor merges key-range blocks in block order and never re-associates
//     a ⊕-fold, so parallelism must not change a single bit.  These runs use
//     an engine of width 8, so no drawn Workers value (2–7) is capped by
//     the pool width,
//   - Prepare+Run at the engine's full width ≡ the Workers=1 planned run,
//     bit-identical on both a sequential and a pooled engine (the plan
//     cache hands shape-identical trials the same plan),
//   - ApplyDeltas after a random batch ≡ BruteForce over the updated
//     factors, so incremental maintenance joins the same oracle loop
//     (faq_delta_test.go soaks this much harder).
//
// The harness is goroutine-leak-checked: engine pools must be gone once
// Close has run.
//
// The parallel threshold is lowered so block scans engage even on these tiny
// instances; `go test -race` (run in CI) makes the harness double as the
// executor's race suite.  Oracle comparisons are exact except on Float,
// where planned orderings may legitimately re-associate ⊕ and ⊗.
package faq

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/faqdb/faq/internal/join"
	"github.com/faqdb/faq/internal/testutil"
)

// forceParallelBlocks lowers the block-scan threshold for the duration of a
// test so Workers>1 runs exercise real multi-block scans.
func forceParallelBlocks(t *testing.T) {
	old := join.MinParallelRows
	join.MinParallelRows = 1
	t.Cleanup(func() { join.MinParallelRows = old })
}

// checkGoroutineLeak registers a cleanup asserting, by a goroutine stack
// diff, that no goroutine started during the test outlives it.  Call it
// before creating any engines: test cleanups run LIFO, so this check fires
// after Engine.Close has shut the worker pools down.
func checkGoroutineLeak(t *testing.T) {
	t.Helper()
	before := testutil.SnapshotGoroutines()
	t.Cleanup(func() { before.ExpectNoneStarted(t) })
}

// runOn prepares q on e — along order, or along the planned order when
// order is nil — and runs it once.
func runOn[V any](e *Engine[V], q *Query[V], order []int, opts Options) (*Result[V], error) {
	var prep *PreparedQuery[V]
	var err error
	if order != nil {
		prep, err = e.PrepareOrder(q, order, opts)
	} else {
		prep, err = e.PrepareCtx(context.Background(), q, opts)
	}
	if err != nil {
		return nil, err
	}
	return prep.Run(context.Background())
}

// randomQuery draws a small random FAQ instance.  maxOps excludes non-ring
// aggregates (max) whenever a product variable was drawn, so Int stays
// overflow-consistent: + and × are ring ops mod 2⁶⁴, max is not.
func randomQuery[V any](rng *rand.Rand, d *Domain[V], ringOps, allOps []*Op[V],
	allowProduct bool, randVal func(*rand.Rand) V) *Query[V] {

	nvars := 1 + rng.Intn(5)
	numFree := rng.Intn(nvars + 1)
	doms := make([]int, nvars)
	for i := range doms {
		doms[i] = 1 + rng.Intn(4)
	}
	product := -1
	if allowProduct && numFree < nvars && rng.Intn(3) == 0 {
		product = numFree + rng.Intn(nvars-numFree)
	}
	ops := allOps
	if product >= 0 {
		ops = ringOps
	}
	aggs := make([]Aggregate[V], nvars)
	for i := range aggs {
		switch {
		case i < numFree:
			aggs[i] = Free[V]()
		case i == product:
			aggs[i] = ProductAgg[V]()
		default:
			aggs[i] = SemiringAgg(ops[rng.Intn(len(ops))])
		}
	}
	nf := 1 + rng.Intn(4)
	var factors []*Factor[V]
	covered := make([]bool, nvars)
	for i := 0; i < nf; i++ {
		arity := 1 + rng.Intn(min(3, nvars))
		seen := map[int]bool{}
		var vars []int
		for len(vars) < arity {
			v := rng.Intn(nvars)
			if !seen[v] {
				seen[v] = true
				vars = append(vars, v)
			}
		}
		for i := 1; i < len(vars); i++ { // insertion-sort the variable ids
			for j := i; j > 0 && vars[j] < vars[j-1]; j-- {
				vars[j], vars[j-1] = vars[j-1], vars[j]
			}
		}
		for _, v := range vars {
			covered[v] = true
		}
		factors = append(factors, FromFunc(d, vars, doms, func([]int) V {
			if rng.Float64() < 0.35 {
				return d.Zero
			}
			return randVal(rng)
		}))
	}
	for v, ok := range covered {
		if !ok { // Validate demands every variable occur in some factor
			factors = append(factors, FromFunc(d, []int{v}, doms, func([]int) V { return d.One }))
		}
	}
	return &Query[V]{D: d, NVars: nvars, DomSizes: doms, NumFree: numFree, Aggs: aggs, Factors: factors}
}

// matches compares two output factors value-wise with a domain-appropriate
// equality; absent tuples read as Zero.
func matches[V any](d *Domain[V], got, want *Factor[V], eq func(a, b V) bool) bool {
	if got == nil || want == nil {
		return got == want
	}
	var t []int
	for i := 0; i < got.Size(); i++ {
		t = got.Tuple(i, t)
		if !eq(got.Values[i], want.ValueOrZero(d, t)) {
			return false
		}
	}
	for i := 0; i < want.Size(); i++ {
		t = want.Tuple(i, t)
		if !eq(got.ValueOrZero(d, t), want.Values[i]) {
			return false
		}
	}
	return true
}

func runEquivalence[V any](t *testing.T, seed int64, trials int, d *Domain[V],
	ringOps, allOps []*Op[V], allowProduct bool,
	randVal func(*rand.Rand) V, eq func(a, b V) bool) {

	t.Helper()
	checkGoroutineLeak(t)
	forceParallelBlocks(t)
	engSeq := NewEngine[V](EngineOptions{Workers: 1})
	t.Cleanup(engSeq.Close)
	engPar := NewEngine[V](EngineOptions{Workers: 4})
	t.Cleanup(engPar.Close)
	engWide := NewEngine[V](EngineOptions{Workers: 8})
	t.Cleanup(engWide.Close)
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		q := randomQuery(rng, d, ringOps, allOps, allowProduct, randVal)
		opts := DefaultOptions()
		opts.IndicatorProjections = rng.Intn(4) != 0
		opts.FilterOutput = rng.Intn(4) != 0
		seqOpts, parOpts := opts, opts
		seqOpts.Workers = 1
		parOpts.Workers = 2 + rng.Intn(6)

		want, err := BruteForce(q)
		if err != nil {
			t.Fatalf("trial %d: brute force: %v", trial, err)
		}
		wantPar, err := BruteForcePar(q, 3)
		if err != nil {
			t.Fatalf("trial %d: parallel brute force: %v", trial, err)
		}
		if !want.Equal(d, wantPar) {
			t.Fatalf("trial %d: BruteForcePar diverged from BruteForce:\n%v\n%v", trial, want, wantPar)
		}

		order := q.Shape().ExpressionOrder()
		seq, err := runOn(engWide, q, order, seqOpts)
		if err != nil {
			t.Fatalf("trial %d: sequential expression-order run: %v", trial, err)
		}
		par, err := runOn(engWide, q, order, parOpts)
		if err != nil {
			t.Fatalf("trial %d: parallel expression-order run (workers=%d): %v", trial, parOpts.Workers, err)
		}
		// Executor invariant: worker count never changes a bit.
		if !seq.Output.Equal(d, par.Output) {
			t.Fatalf("trial %d: Workers=1 and Workers=%d expression-order outputs differ:\n%v\n%v",
				trial, parOpts.Workers, seq.Output, par.Output)
		}
		// InsideOut along the expression order aggregates groups in the
		// same nesting as the oracle, so the match is domain-exact.
		if !matches(d, seq.Output, want, eq) {
			t.Fatalf("trial %d: InsideOut ≠ BruteForce\nquery: nvars=%d free=%d doms=%v\ngot  %v\nwant %v",
				trial, q.NVars, q.NumFree, q.DomSizes, seq.Output, want)
		}

		solvedSeq, err := runOn(engWide, q, nil, seqOpts)
		if err != nil {
			t.Fatalf("trial %d: sequential planned run: %v", trial, err)
		}
		solvedPar, err := runOn(engWide, q, nil, parOpts)
		if err != nil {
			t.Fatalf("trial %d: parallel planned run: %v", trial, err)
		}
		if !solvedSeq.Output.Equal(d, solvedPar.Output) {
			t.Fatalf("trial %d: Workers=1 and Workers=%d planned outputs differ:\n%v\n%v",
				trial, parOpts.Workers, solvedSeq.Output, solvedPar.Output)
		}
		if !matches(d, solvedSeq.Output, want, eq) {
			t.Fatalf("trial %d: planned run ≠ BruteForce\ngot  %v\nwant %v", trial, solvedSeq.Output, want)
		}

		// Engine invariant: Prepare+Run at the engine's full width must
		// reproduce the Workers=1 planned run bit-identically on both the
		// sequential and the pooled engine (the plan cache hands
		// shape-identical trials the same plan, so this also soaks the LRU).
		preps := map[string]*PreparedQuery[V]{}
		for name, eng := range map[string]*Engine[V]{"seq": engSeq, "par": engPar} {
			prep, err := eng.PrepareCtx(context.Background(), q, opts)
			if err != nil {
				t.Fatalf("trial %d: %s engine Prepare: %v", trial, name, err)
			}
			pres, err := prep.Run(context.Background())
			if err != nil {
				t.Fatalf("trial %d: %s engine Run: %v", trial, name, err)
			}
			if !pres.Output.Equal(d, solvedSeq.Output) {
				t.Fatalf("trial %d: %s engine Prepare+Run diverged from the Workers=1 planned run:\n%v\n%v",
					trial, name, pres.Output, solvedSeq.Output)
			}
			preps[name] = prep
		}

		// Delta interleave: push one random batch through each prepared
		// query's maintenance path and check the maintained output against
		// the brute-force oracle over the updated factors; the two engines
		// must also agree bit-identically with each other.
		deltas, updated := randomDeltaBatches(rng, q, q.Factors, randVal)
		nq := *q
		nq.Factors = updated
		dwant, err := BruteForce(&nq)
		if err != nil {
			t.Fatalf("trial %d: post-delta brute force: %v", trial, err)
		}
		var prevOut *Factor[V]
		for name, prep := range preps {
			dres, err := prep.ApplyDeltas(context.Background(), deltas)
			if err != nil {
				t.Fatalf("trial %d: %s engine ApplyDeltas: %v", trial, name, err)
			}
			if !matches(d, dres.Output, dwant, eq) {
				t.Fatalf("trial %d: %s engine ApplyDeltas (%s) ≠ BruteForce over updated factors\ndeltas: %+v\ngot  %v\nwant %v",
					trial, name, prep.DeltaStrategy(), deltas, dres.Output, dwant)
			}
			if prevOut != nil && !dres.Output.Equal(d, prevOut) {
				t.Fatalf("trial %d: seq and par engines disagree after ApplyDeltas:\n%v\n%v",
					trial, dres.Output, prevOut)
			}
			prevOut = dres.Output
		}
	}
}

func TestEquivalenceFloat(t *testing.T) {
	// Non-negative integer-valued floats: no cancellation, so approximate
	// comparison against the oracle is safe even when the planner picks a
	// different association order.
	approx := func(a, b float64) bool {
		if a == b {
			return true
		}
		diff := math.Abs(a - b)
		return diff <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
	}
	// OpFloatMin is deliberately absent: min is not a lawful aggregate over
	// (R≥0, ·) with the shared additive identity 0 — min(x, 0) ≠ x — so the
	// sparse engine (min over supported tuples) and the dense oracle (min
	// over the whole box) legitimately disagree.  Lawful min-product lives
	// in the Tropical domain, where Zero = +∞ and min(x, +∞) = x; see
	// TestEquivalenceTropical.
	all := []*Op[float64]{OpFloatSum(), OpFloatMax()}
	ring := []*Op[float64]{OpFloatSum()}
	runEquivalence(t, 1001, 60, Float(), ring, all, true,
		func(rng *rand.Rand) float64 { return float64(1 + rng.Intn(4)) }, approx)
}

func TestEquivalenceInt(t *testing.T) {
	// + and × over int64 are ring ops mod 2⁶⁴, so any evaluation order
	// agrees exactly even if an intermediate wraps; max joins only when no
	// product variable was drawn (randomQuery's ringOps restriction).
	all := []*Op[int64]{OpIntSum(), OpIntMax()}
	ring := []*Op[int64]{OpIntSum()}
	runEquivalence(t, 1002, 50, Int(), ring, all, true,
		func(rng *rand.Rand) int64 { return int64(1 + rng.Intn(3)) },
		func(a, b int64) bool { return a == b })
}

func TestEquivalenceBool(t *testing.T) {
	ops := []*Op[bool]{OpOr()}
	runEquivalence(t, 1003, 40, Bool(), ops, ops, true,
		func(*rand.Rand) bool { return true },
		func(a, b bool) bool { return a == b })
}

func TestEquivalenceTropical(t *testing.T) {
	// Min-plus: ⊗ is +, ⊕ is min, both exact on small integer-valued
	// float64s, so the oracle comparison is exact.
	d := Tropical()
	ops := []*Op[float64]{OpTropicalMin()}
	runEquivalence(t, 1004, 50, d, ops, ops, true,
		func(rng *rand.Rand) float64 { return float64(rng.Intn(6)) },
		func(a, b float64) bool { return d.Equal(a, b) })
}
