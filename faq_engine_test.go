// Public-surface tests for the Engine / PreparedQuery serving API:
// prepare-once-run-many correctness, context cancellation without goroutine
// leaks (run under -race in CI), and Workers=1 ≡ Workers=N bit-identity
// through the prepared path.
package faq

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"github.com/faqdb/faq/internal/testutil"
)

// engineEdges builds a deterministic sparse edge factor for triangle
// queries.
func engineEdges(rng *rand.Rand, d *Domain[float64], vars []int, nodes, edges int) *Factor[float64] {
	seen := map[[2]int]bool{}
	var tuples [][]int
	var values []float64
	for len(tuples) < edges {
		e := [2]int{rng.Intn(nodes), rng.Intn(nodes)}
		if seen[e] || e[0] == e[1] {
			continue
		}
		seen[e] = true
		tuples = append(tuples, []int{e[0], e[1]})
		values = append(values, 1)
	}
	f, err := NewFactor(d, vars, tuples, values, nil)
	if err != nil {
		panic(err)
	}
	return f
}

func engineTriangle(seed int64, nodes, edges int) *Query[float64] {
	rng := rand.New(rand.NewSource(seed))
	d := Float()
	return &Query[float64]{
		D: d, NVars: 3, DomSizes: []int{nodes, nodes, nodes}, NumFree: 0,
		Aggs: []Aggregate[float64]{
			SemiringAgg(OpFloatSum()), SemiringAgg(OpFloatSum()), SemiringAgg(OpFloatSum()),
		},
		Factors: []*Factor[float64]{
			engineEdges(rng, d, []int{0, 1}, nodes, edges),
			engineEdges(rng, d, []int{1, 2}, nodes, edges),
			engineEdges(rng, d, []int{0, 2}, nodes, edges),
		},
	}
}

// TestEngineSolveEquivalence asserts that solving on a fresh engine per
// call ≡ Prepare+Run on long-lived engines, bit-identically across worker
// counts, on a query with free variables so the whole output (not just a
// scalar) is compared.
func TestEngineSolveEquivalence(t *testing.T) {
	forceParallelBlocks(t)
	q := engineTriangle(99, 48, 400)
	q.NumFree = 1
	q.Aggs[0] = Free[float64]()

	want, _, err := solve(q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 5} {
		eng := NewEngine[float64](EngineOptions{Workers: workers})
		prep, err := eng.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := prep.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Output.Equal(q.D, want.Output) {
			t.Fatalf("Workers=%d: Prepare+Run diverged from a fresh engine:\n%v\n%v",
				workers, res.Output, want.Output)
		}
		eng.Close()
	}
}

// TestEnginePreparedWorkerBitIdentity runs the same prepared query at many
// worker counts and demands bit-identical outputs.
func TestEnginePreparedWorkerBitIdentity(t *testing.T) {
	forceParallelBlocks(t)
	q := engineTriangle(7, 40, 320)
	q.NumFree = 2
	q.Aggs[0] = Free[float64]()
	q.Aggs[1] = Free[float64]()

	var baseline *Result[float64]
	for _, workers := range []int{1, 2, 3, 8} {
		eng := NewEngine[float64](EngineOptions{Workers: workers})
		prep, err := eng.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := prep.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		eng.Close()
		if baseline == nil {
			baseline = res
			continue
		}
		if !res.Output.Equal(q.D, baseline.Output) {
			t.Fatalf("Workers=%d output differs from Workers=1", workers)
		}
	}
}

// TestEngineCancellationNoLeak cancels runs mid-join and checks that (a)
// the run reports the context error and (b) after Close the goroutine stack
// diff is empty — no scan goroutine outlives a cancelled run.
func TestEngineCancellationNoLeak(t *testing.T) {
	forceParallelBlocks(t)
	before := testutil.SnapshotGoroutines()

	eng := NewEngine[float64](EngineOptions{Workers: 4})
	q := engineTriangle(3, 1200, 36000) // big enough to outlive the cancel delay
	prep, err := eng.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}

	// Pre-cancelled context: must fail immediately, before any scan.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := prep.Run(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run returned %v", err)
	}

	// Mid-run cancellation: cancel shortly after the run starts.  On a fast
	// machine an individual run may still complete; retry until one is
	// actually interrupted.
	interrupted := false
	for attempt := 0; attempt < 20 && !interrupted; attempt++ {
		ctx, cancel := context.WithCancel(context.Background())
		canceller := make(chan struct{})
		go func() {
			defer close(canceller)
			time.Sleep(time.Duration(1+attempt) * time.Millisecond)
			cancel()
		}()
		_, err := prep.Run(ctx)
		<-canceller
		switch {
		case err == nil:
			// completed before the cancel landed; try again
		case errors.Is(err, context.Canceled):
			interrupted = true
		default:
			t.Fatalf("cancelled run returned unexpected error %v", err)
		}
		cancel()
	}
	if !interrupted {
		t.Log("no run was interrupted mid-join (machine too fast); leak check still valid")
	}
	if st := eng.Stats(); interrupted && st.RunsCancelled == 0 {
		t.Fatalf("RunsCancelled not counted: %+v", st)
	}

	eng.Close()
	before.ExpectNoneStarted(t)
}

// TestPreparedRunWithFactorsPublic exercises the public data-refresh path:
// prepare once, swap factors, compare against the oracle.
func TestPreparedRunWithFactorsPublic(t *testing.T) {
	eng := NewEngine[float64](EngineOptions{Workers: 2})
	defer eng.Close()
	q := engineTriangle(21, 16, 80)
	prep, err := eng.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(30); seed < 35; seed++ {
		fresh := engineTriangle(seed, 16, 80)
		res, err := prep.RunWithFactors(context.Background(), fresh.Factors)
		if err != nil {
			t.Fatal(err)
		}
		want, err := BruteForceScalar(fresh)
		if err != nil {
			t.Fatal(err)
		}
		if res.Scalar() != want {
			t.Fatalf("seed %d: RunWithFactors = %v, brute force = %v", seed, res.Scalar(), want)
		}
	}
	st := eng.Stats()
	if st.Prepared != 1 || st.Runs != 5 {
		t.Fatalf("stats after 1 prepare + 5 refresh runs: %+v", st)
	}
}
