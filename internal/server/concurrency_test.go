package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestConcurrentServing is the PR-3 acceptance test: ≥32 goroutines issue a
// mix of same-shape and distinct-shape queries against a running server and
// every response must be bit-identical to a single-threaded engine run of the
// same spec; the shared shapes are planned exactly once each (the
// singleflight guard), and shutting the server down leaks no goroutines.
// Run under -race.
func TestConcurrentServing(t *testing.T) {
	before := runtime.NumGoroutine()

	s, err := New(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	client := NewClient(ts.URL)
	transport := &http.Transport{MaxIdleConnsPerHost: 64}
	client.HTTPClient = &http.Client{Transport: transport}

	// Four distinct shapes over one hypergraph; two data variants per shape
	// exercise same-shape-different-data sharing.
	type variant struct {
		spec string
		want []uint64 // bit patterns of the oracle's values, in output order
	}
	var variants []variant
	for _, nfree := range []int{0, 1, 2} {
		for _, shift := range []float64{0, 0.25} {
			sp := triangleSpec(7, nfree, shift)
			res := solveSpec(t, sp)
			var bits []uint64
			if nfree == 0 {
				bits = []uint64{math.Float64bits(res.Scalar())}
			} else {
				for _, v := range res.Output.Values {
					bits = append(bits, math.Float64bits(v))
				}
			}
			variants = append(variants, variant{spec: sp, want: bits})
		}
	}
	// A fourth shape: max-product instead of sum-product.
	maxSpec := "var x 5 max\nvar y 5 max\nfactor x y\n"
	maxSpec += "0 1 = 2\n1 2 = 3\n2 3 = 5\nend\n"
	variants = append(variants, variant{spec: maxSpec,
		want: []uint64{math.Float64bits(solveSpec(t, maxSpec).Scalar())}})
	const distinctShapes = 4

	const (
		goroutines   = 32
		perGoroutine = 12
	)
	start := make(chan struct{})
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			ctx := context.Background()
			for i := 0; i < perGoroutine; i++ {
				v := variants[(g+i)%len(variants)]
				resp, err := client.Query(ctx, &QueryRequest{Spec: v.spec})
				if err != nil {
					errs <- err
					return
				}
				var got []uint64
				if resp.Value != nil {
					v, err := resp.FloatValue()
					if err != nil {
						errs <- err
						return
					}
					got = []uint64{math.Float64bits(v)}
				} else {
					vals, err := resp.Output.FloatValues()
					if err != nil {
						errs <- err
						return
					}
					for _, x := range vals {
						got = append(got, math.Float64bits(x))
					}
				}
				if len(got) != len(v.want) {
					errs <- errMismatch(g, i, len(got), len(v.want))
					return
				}
				for j := range got {
					if got[j] != v.want[j] {
						errs <- errMismatch(g, i, got[j], v.want[j])
						return
					}
				}
			}
			errs <- nil
		}(g)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	st := s.Engine().Stats()
	if st.PlanCacheMisses != distinctShapes {
		t.Fatalf("planned %d times for %d distinct shapes: %+v", st.PlanCacheMisses, distinctShapes, st)
	}
	if want := int64(goroutines * perGoroutine); st.Prepared != want || st.Runs != want {
		t.Fatalf("prepared %d runs %d, want %d: %+v", st.Prepared, st.Runs, want, st)
	}
	if st.PlanCacheHits+st.PlanCoalesced != int64(goroutines*perGoroutine-distinctShapes) {
		t.Fatalf("hits %d + coalesced %d != %d", st.PlanCacheHits, st.PlanCoalesced,
			goroutines*perGoroutine-distinctShapes)
	}

	// Shutdown: the test server drains handlers, Close stops the pool.  No
	// goroutine may outlive them (a few scheduler ticks of grace).
	ts.Close()
	transport.CloseIdleConnections()
	s.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d before, %d after shutdown\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func errMismatch(g, i int, got, want any) error {
	return fmt.Errorf("goroutine %d request %d: response %v not bit-identical to the oracle %v", g, i, got, want)
}
