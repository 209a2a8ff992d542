// Pool is the persistent executor pool behind the Engine API: a fixed set
// of long-lived worker goroutines shared by every elimination step of every
// query the engine runs, instead of the spawn-per-scan goroutines of
// ParallelFor.  Work arrives as index ranges (Run); each call keeps the
// caller as one of its runners, so a Run can always make progress even when
// the pool's workers are busy with concurrent queries, and a nil or closed
// pool degrades to the inline sequential loop.
//
// Cancellation: Run checks its context between tasks (block boundaries).
// On cancellation it stops handing out new indices, waits for in-flight
// tasks to return — no goroutine outlives the call — and reports ctx.Err().
package join

import (
	"context"
	"sync"
	"time"
)

// Pool is a persistent worker pool.  The zero value is not usable; create
// pools with NewPool.  A nil *Pool is valid everywhere and means "inline".
type Pool struct {
	mu     sync.RWMutex
	size   int
	tasks  chan func()
	closed bool
	done   sync.WaitGroup // worker exits, for Close
}

// poolTaskBuffer is the task-queue depth: deep enough that concurrent Runs
// can hand their runners to momentarily busy workers, bounded so submission
// stays non-blocking (a full queue degrades a Run to fewer runners, never
// to waiting — the caller is always one of its own runners).
const poolTaskBuffer = 256

// NewPool starts a pool of n persistent workers (n < 1 means GOMAXPROCS).
// A pool of size 1 starts no goroutines: every Run executes inline.
func NewPool(n int) *Pool {
	p := &Pool{tasks: make(chan func(), poolTaskBuffer)}
	p.Grow(Workers(n))
	return p
}

// Size returns the current number of persistent workers.
func (p *Pool) Size() int {
	if p == nil {
		return 1
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.size
}

// Grow raises the worker count to n (never shrinks).  It is how the shared
// default pool adapts when a caller requests more parallelism than
// GOMAXPROCS: the extra workers are persistent, so repeated oversubscribed
// runs reuse them instead of re-spawning.
func (p *Pool) Grow(n int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	// size 1 means "inline": the first worker goroutine only exists once a
	// second runner could be active concurrently.
	if p.size == 0 {
		p.size = 1
	}
	for p.size < n {
		p.size++
		p.done.Add(1)
		go func() {
			defer p.done.Done()
			for fn := range p.tasks {
				fn()
			}
		}()
	}
}

// Close shuts the persistent workers down and waits for them to exit.
// Subsequent Runs execute inline; Close is idempotent.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.tasks)
	p.mu.Unlock()
	p.done.Wait()
}

// submit enqueues fn for a persistent worker without blocking; it reports
// false when the pool is closed or the task queue is full (the caller then
// absorbs the work itself).  The read lock orders the send against Close.
func (p *Pool) submit(fn func()) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return false
	}
	select {
	case p.tasks <- fn:
		return true
	default:
		return false
	}
}

// Run executes fn(0), ..., fn(n-1) with at most `limit` tasks in flight
// (limit < 1 or beyond the pool size means the pool size).  Indices are
// handed out through a shared counter, so callers must not depend on which
// runner executes which index — block merges stay deterministic because the
// caller reassembles outputs by index.  The calling goroutine acts as one of
// the runners, and completion is tracked per claimed index, not per helper:
// helper runners still queued behind other calls' work are simply never
// waited on (they no-op when eventually dequeued), so a short Run never
// blocks behind a long concurrent one.  ctx is checked between tasks; on
// cancellation Run waits for in-flight tasks, skips the rest and returns
// ctx.Err().  No fn invocation survives past Run's return.  A nil ctx means
// never cancelled.
func (p *Pool) Run(ctx context.Context, n, limit int, fn func(i int)) error {
	runners := n
	if p == nil {
		runners = 1
	} else if size := p.Size(); runners > size {
		runners = size
	}
	if limit > 0 && runners > limit {
		runners = limit
	}
	if runners <= 1 {
		for i := 0; i < n; i++ {
			if err := CtxErr(ctx); err != nil {
				return err
			}
			fn(i)
		}
		return CtxErr(ctx)
	}

	st := &runState{ctx: ctx, fn: fn, n: n}
	st.cond = sync.NewCond(&st.mu)
	// The caller is runner 0; the rest go to the persistent workers.  A
	// failed submit (pool closed, or every worker busy with a full queue)
	// just means fewer helpers this call — the shared claim counter keeps
	// the remaining runners correct.
	for w := 1; w < runners; w++ {
		if !p.submit(st.runner) {
			break
		}
	}
	st.runner()
	// The caller's runner has drained the counter (or ctx fired).  Bar any
	// further claims — a helper dequeued from now on exits immediately —
	// and wait only for the indices already in flight.
	st.mu.Lock()
	st.stopped = true
	for st.active > 0 {
		st.cond.Wait()
	}
	st.mu.Unlock()
	return CtxErr(ctx)
}

// runState is the per-Run coordination record shared by the caller and its
// helper runners.  Claims and the stop flag are guarded by one mutex, so an
// index is either claimed (and then always executed and waited on) or
// barred — never executed after Run returns.
type runState struct {
	mu      sync.Mutex
	cond    *sync.Cond
	ctx     context.Context
	fn      func(int)
	n       int
	next    int
	active  int
	stopped bool
}

func (s *runState) runner() {
	for {
		s.mu.Lock()
		if s.stopped || s.next >= s.n || CtxErr(s.ctx) != nil {
			s.mu.Unlock()
			return
		}
		i := s.next
		s.next++
		s.active++
		s.mu.Unlock()
		s.fn(i)
		s.mu.Lock()
		s.active--
		if s.active == 0 {
			s.cond.Broadcast()
		}
		s.mu.Unlock()
	}
}

// CtxErr is the cancellation check at a run's block and phase boundaries:
// ctx.Err(), plus context.DeadlineExceeded once ctx's deadline has passed on
// the clock.  ctx.Err() reports a deadline only after the runtime has run
// the context's timer, and with one P busy on a CPU-bound scan that can be
// long after the deadline — late enough for a whole run to finish under an
// already expired deadline.  A nil ctx is never cancelled.
func CtxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}
