package join

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunCoversAllIndices(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	for _, n := range []int{0, 1, 7, 100} {
		hits := make([]int32, n)
		if err := pool.Run(context.Background(), n, 0, func(i int) {
			atomic.AddInt32(&hits[i], 1)
		}); err != nil {
			t.Fatalf("Run(n=%d): %v", n, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d executed %d times", n, i, h)
			}
		}
	}
}

func TestPoolRunNilAndClosedFallBackInline(t *testing.T) {
	var ran int
	var nilPool *Pool
	if err := nilPool.Run(context.Background(), 5, 0, func(i int) { ran++ }); err != nil {
		t.Fatal(err)
	}
	if ran != 5 {
		t.Fatalf("nil pool ran %d of 5 tasks", ran)
	}

	pool := NewPool(4)
	pool.Close()
	pool.Close() // idempotent
	var closedRan atomic.Int32
	if err := pool.Run(context.Background(), 5, 0, func(i int) { closedRan.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if closedRan.Load() != 5 {
		t.Fatalf("closed pool ran %d of 5 tasks", closedRan.Load())
	}
}

func TestPoolRunCancellation(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int32
	err := pool.Run(ctx, 1000, 0, func(i int) {
		if i == 0 {
			cancel() // tasks after the in-flight ones must be skipped
			return
		}
		done.Add(1)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if n := done.Load(); n >= 999 {
		t.Fatalf("cancellation skipped nothing (%d/999 tasks ran)", n)
	}
}

// timerlessCtx has a deadline but, like a context whose timer the runtime
// has not run yet, never reports it through Err or Done.
type timerlessCtx struct {
	context.Context
	deadline time.Time
}

func (c timerlessCtx) Deadline() (time.Time, bool) { return c.deadline, true }

// TestPoolRunDeadlineOnClock checks that a deadline already passed on the
// clock stops a Run even while ctx.Err() is still nil.
func TestPoolRunDeadlineOnClock(t *testing.T) {
	future := timerlessCtx{context.Background(), time.Now().Add(time.Hour)}
	if err := CtxErr(future); err != nil {
		t.Fatalf("CtxErr before the deadline = %v", err)
	}
	past := timerlessCtx{context.Background(), time.Now().Add(-time.Millisecond)}
	if err := CtxErr(past); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CtxErr after the deadline = %v, want context.DeadlineExceeded", err)
	}
	for _, pool := range []*Pool{nil, NewPool(2)} {
		var ran atomic.Int32
		err := pool.Run(past, 100, 0, func(int) { ran.Add(1) })
		pool.Close()
		if !errors.Is(err, context.DeadlineExceeded) || ran.Load() != 0 {
			t.Fatalf("Run under a passed deadline: err %v, %d tasks ran", err, ran.Load())
		}
	}
}

func TestPoolRunLimitCapsConcurrency(t *testing.T) {
	pool := NewPool(8)
	defer pool.Close()
	var inFlight, peak atomic.Int32
	if err := pool.Run(context.Background(), 64, 2, func(i int) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
	}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("limit 2 exceeded: peak in-flight %d", p)
	}
}

func TestPoolCloseStopsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	pool := NewPool(8)
	if err := pool.Run(context.Background(), 32, 0, func(int) {}); err != nil {
		t.Fatal(err)
	}
	pool.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked after Close: %d -> %d", before, after)
	}
}

func TestPoolGrow(t *testing.T) {
	pool := NewPool(1)
	defer pool.Close()
	if pool.Size() != 1 {
		t.Fatalf("size = %d, want 1", pool.Size())
	}
	pool.Grow(4)
	if pool.Size() != 4 {
		t.Fatalf("size after Grow(4) = %d", pool.Size())
	}
	pool.Grow(2) // never shrinks
	if pool.Size() != 4 {
		t.Fatalf("size after Grow(2) = %d, want 4", pool.Size())
	}
	var ran atomic.Int32
	if err := pool.Run(context.Background(), 16, 0, func(int) { ran.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 16 {
		t.Fatalf("grown pool ran %d of 16", ran.Load())
	}
}
