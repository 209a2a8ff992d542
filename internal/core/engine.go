// The Engine / PreparedQuery API: prepare-once-run-many FAQ serving.
//
// The FAQ paper separates the *ordering* phase (Sections 6–7: expression
// trees, precedence posets, the exact DP over LinEx(P), the Section 7
// approximation) from the *evaluation* phase (InsideOut, Section 5).  The
// one-shot Solve entry point re-runs both on every call; an Engine keeps the
// two apart the way the paper does.  Engine.Prepare runs the planners once —
// memoized in an LRU keyed by the query's untyped Shape, so shape-identical
// queries across calls and across value types of the same engine hit the
// cache — and PreparedQuery.Run / RunWithFactors execute InsideOut against
// the cached plan with fresh data on the engine's persistent worker pool.
// Each PreparedQuery also owns the CSR tries of its own factors (a
// join.TrieCache with no capacity bound, living exactly as long as the
// query), so repeat Runs skip the trie builds and no other query's traffic
// can evict them.  That is the "questions asked frequently" workload: the
// same query shape over changing data or parameters, planned once and
// answered many times.
package core

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/faqdb/faq/internal/factor"
	"github.com/faqdb/faq/internal/hypergraph"
	"github.com/faqdb/faq/internal/join"
	"github.com/faqdb/faq/internal/obs"
)

// DefaultPlanCacheSize is the plan-LRU capacity when EngineOptions leaves
// PlanCacheSize zero.  Plans are a few hundred bytes (an ordering plus a
// width), so the default is generous.
const DefaultPlanCacheSize = 256

// EngineOptions configures a long-lived Engine.
type EngineOptions struct {
	// Workers sizes the engine's persistent executor pool, reused across
	// elimination steps, runs and queries: 0 means GOMAXPROCS, 1 means the
	// sequential executor.  Per-run Options.Workers may cap concurrency
	// below the pool size but never above it.
	Workers int
	// PlanCacheSize bounds the plan LRU (entries).  0 means
	// DefaultPlanCacheSize; negative disables caching.
	PlanCacheSize int
	// Planner selects the ordering strategy and is part of the plan-cache
	// key: "auto" (default: exact DP for small queries, else the best of
	// the Section 7 approximation, greedy and the expression order),
	// "exact", "greedy", "approx" or "expression".
	Planner string
}

// EngineStats are cumulative counters of one Engine (monotone except
// PlansCached, which is the current cache population).
type EngineStats struct {
	Prepared        int64 // Prepare calls that returned a PreparedQuery
	PlanCacheHits   int64 // Prepares answered from the plan LRU
	PlanCacheMisses int64 // Prepares that ran the Section 6–7 planners
	PlanCoalesced   int64 // Prepares that adopted another goroutine's in-flight planning pass
	PlansCached     int64 // entries currently in the LRU
	Runs            int64 // prepared runs completed successfully
	RunsCancelled   int64 // prepared runs aborted by their context

	DeltasApplied   int64 // ApplyDeltas calls committed successfully
	DeltaRingRuns   int64 // algebraic Δ-propagation runs (invertible ⊕)
	DeltaBlockRuns  int64 // affected-block re-executions
	DeltaRecomputes int64 // full recomputes taken by the delta path

	TrieCacheHits          int64 // trie/projection lookups served from a prepared query's cache
	TrieCacheMisses        int64 // lookups that built fresh
	TrieCacheInvalidations int64 // entries dropped by factor updates (ApplyDeltas)
	// TrieCacheEvictions is always 0: trie caches live as long as their
	// prepared query and have no capacity bound to evict by.  The field
	// stays for readers of the older engine-wide cache's counters.
	TrieCacheEvictions int64
}

// engineRT is the untyped runtime shared by every Engine[V] handle onto it:
// the persistent pool, the plan cache and the counters.  Plans depend only
// on the untyped Shape, so one runtime serves all value types.
type engineRT struct {
	opts     EngineOptions
	pool     *join.Pool
	cache    *planCache
	growable bool // default runtime: pool grows to explicit Workers requests

	// flight is the in-flight single-prepare guard: one entry per shape key
	// currently being planned, so a thundering herd of cold same-shape
	// Prepares runs the Section 6–7 planners exactly once.
	flightMu sync.Mutex
	flight   map[string]*planFlight

	// tries counts the lookups of every prepared query's trie cache.  The
	// caches themselves belong to the prepared queries (see
	// PreparedQuery.tries); only the counters are engine-wide.
	tries join.CacheCounters

	prepared, hits, misses, coalesced, runs, cancelled     atomic.Int64
	deltas, deltaRingRuns, deltaBlockRuns, deltaRecomputes atomic.Int64
}

func newEngineRT(opts EngineOptions, growable bool) *engineRT {
	cacheSize := opts.PlanCacheSize
	if cacheSize == 0 {
		cacheSize = DefaultPlanCacheSize
	}
	return &engineRT{
		opts:     opts,
		pool:     join.NewPool(opts.Workers),
		cache:    newPlanCache(cacheSize),
		growable: growable,
	}
}

func (rt *engineRT) planner() string {
	if rt.opts.Planner == "" {
		return "auto"
	}
	return rt.opts.Planner
}

func (rt *engineRT) stats() EngineStats {
	return EngineStats{
		Prepared:               rt.prepared.Load(),
		PlanCacheHits:          rt.hits.Load(),
		PlanCacheMisses:        rt.misses.Load(),
		PlanCoalesced:          rt.coalesced.Load(),
		PlansCached:            int64(rt.cache.len()),
		Runs:                   rt.runs.Load(),
		RunsCancelled:          rt.cancelled.Load(),
		DeltasApplied:          rt.deltas.Load(),
		DeltaRingRuns:          rt.deltaRingRuns.Load(),
		DeltaBlockRuns:         rt.deltaBlockRuns.Load(),
		DeltaRecomputes:        rt.deltaRecomputes.Load(),
		TrieCacheHits:          rt.tries.Hits.Load(),
		TrieCacheMisses:        rt.tries.Misses.Load(),
		TrieCacheInvalidations: rt.tries.Invalidations.Load(),
	}
}

// ErrPlannerPanic marks the error handed to singleflight waiters when the
// planning leader died in a panic: the failure is a server-side bug, not a
// property of the waiters' queries, and callers (the faqd error mapper)
// should classify it as internal.
var ErrPlannerPanic = errors.New("planner panicked")

// planFlight is one in-flight planning pass: the leader closes done after
// writing plan/err, so waiters that receive on done read both race-free.
type planFlight struct {
	done chan struct{}
	plan *Plan
	err  error
}

// planFor resolves the plan for a shape through the LRU with an in-flight
// single-prepare guard: when concurrent Prepares race on a cold shape, one
// of them (the leader) runs the Section 6–7 planners and the rest adopt its
// result, counted as PlanCoalesced.  If the leader fails because its own
// context was cancelled, waiters retry — the next one through becomes the
// new leader — so one impatient client cannot poison a shape for the herd.
// shapeKey is the caller-computed s.Key(); the cache-outcome annotation on
// any context-carried trace lands on the caller's open "prepare" span.
func (rt *engineRT) planFor(ctx context.Context, s *Shape, shapeKey string) (*Plan, error) {
	key := shapeKey + ";planner=" + rt.planner()
	tr := obs.FromContext(ctx)
	for {
		if p, ok := rt.cache.get(key); ok {
			rt.hits.Add(1)
			tr.Annotate("plan", "hit")
			return p, nil
		}
		rt.flightMu.Lock()
		if f, ok := rt.flight[key]; ok {
			rt.flightMu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if f.err != nil && (errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)) {
				continue // leader's own deadline, not ours: retry
			}
			rt.coalesced.Add(1)
			tr.Annotate("plan", "coalesced")
			return f.plan, f.err
		}
		// Re-check under the lock: the previous leader may have finished
		// between our cache miss and taking flightMu.
		if p, ok := rt.cache.get(key); ok {
			rt.flightMu.Unlock()
			rt.hits.Add(1)
			tr.Annotate("plan", "hit")
			return p, nil
		}
		f := &planFlight{done: make(chan struct{})}
		if rt.flight == nil {
			rt.flight = map[string]*planFlight{}
		}
		rt.flight[key] = f
		rt.flightMu.Unlock()

		rt.misses.Add(1)
		var p *Plan
		var err error
		func() {
			// The flight entry must be cleared and done closed even if a
			// planner panics — otherwise the stale entry blocks every later
			// Prepare of this shape until its deadline (net/http recovers
			// handler panics, so a serving process would live on, poisoned).
			// The panic itself still propagates to the leader; waiters get
			// an error instead of a nil plan.
			defer func() {
				if p == nil && err == nil {
					err = fmt.Errorf("core: %w while planning shape %q", ErrPlannerPanic, key)
				}
				f.plan, f.err = p, err
				rt.flightMu.Lock()
				delete(rt.flight, key)
				rt.flightMu.Unlock()
				close(f.done)
			}()
			p, err = planWith(ctx, s, rt.planner())
			if err == nil {
				rt.cache.put(key, p)
			}
		}()
		if err == nil {
			tr.Annotate("plan", "planned")
		}
		return p, err
	}
}

// planWith runs the configured Section 6–7 planner.
func planWith(ctx context.Context, s *Shape, planner string) (*Plan, error) {
	wc := hypergraph.NewWidthCalc(s.H)
	switch planner {
	case "", "auto":
		return ChoosePlanCtx(ctx, s, wc)
	case "exact":
		return PlanExactCtx(ctx, s, wc)
	case "greedy":
		return PlanGreedy(s, wc)
	case "approx":
		return PlanApprox(s, wc, GreedyDecomp)
	case "expression":
		return PlanExpression(s, wc)
	}
	return nil, fmt.Errorf("core: unknown planner %q (want auto, exact, greedy, approx or expression)", planner)
}

// rtExecutor resolves a per-run Workers knob against a runtime: 1 is the
// sequential executor; 0 runs at the pool's full width; larger values cap a
// run's in-flight blocks below the pool size (the default runtime instead
// grows its pool, preserving the historical "Workers = that much
// concurrency" contract of the one-shot entry points).
func rtExecutor[V any](rt *engineRT, workers int, cache *join.TrieCache[V]) executor[V] {
	if workers == 1 {
		return seqExecutor[V]{cache: cache}
	}
	if workers > 1 && rt.growable {
		// Growth is capped: pool workers are persistent, so an oversized
		// per-call Workers must not pin unbounded goroutines forever.
		// Beyond the cap the scan splits at the clamped pool width, which
		// is safe because block outputs always merge in block order —
		// results are bit-identical at every split width.
		rt.pool.Grow(min(workers, maxDefaultPoolSize()))
	}
	if rt.pool.Size() <= 1 && workers <= 1 {
		return seqExecutor[V]{cache: cache}
	}
	return poolExecutor[V]{pool: rt.pool, limit: workers, cache: cache}
}

// maxDefaultPoolSize bounds the shared default pool: generous enough that
// tests and oversubscribed single-core runs get real concurrency, bounded
// so a stray Workers value cannot leak goroutines for the process lifetime.
func maxDefaultPoolSize() int {
	if n := 4 * runtime.GOMAXPROCS(0); n > 16 {
		return n
	}
	return 16
}

// defaultRT is the process-wide runtime behind the compatibility wrappers
// (Solve, InsideOut) and DefaultEngine.  It is built on first use: its pool
// starts at GOMAXPROCS and grows to meet explicit Workers requests.  A
// one-shot run with Workers = 1 is sequential and never calls it, so it
// neither creates nor grows the pool.
var (
	defaultRTOnce sync.Once
	defaultRTVal  *engineRT
)

func defaultRT() *engineRT {
	defaultRTOnce.Do(func() {
		defaultRTVal = newEngineRT(EngineOptions{}, true)
	})
	return defaultRTVal
}

// Engine is a long-lived FAQ serving handle for value type V: a plan cache
// plus a persistent executor pool.  Engines are safe for concurrent use;
// create one per process (or per tenant) and Prepare queries against it.
type Engine[V any] struct {
	rt *engineRT
}

// NewEngine creates an engine with its own pool and plan cache.  Call Close
// when done to stop the pool's workers.
func NewEngine[V any](opts EngineOptions) *Engine[V] {
	return &Engine[V]{rt: newEngineRT(opts, false)}
}

// DefaultEngine returns a handle on the shared process-wide engine that
// also backs the Solve and InsideOut compatibility wrappers.  All value
// types share its plan cache, pool and stats; Close is a no-op on it.
func DefaultEngine[V any]() *Engine[V] {
	return &Engine[V]{rt: defaultRT()}
}

// StatsSnapshot returns a race-safe snapshot of the engine's counters:
// every field is an atomic load (PlansCached reads the LRU length under its
// mutex), so a snapshot taken while prepares and runs are in flight — the
// /statsz path of a serving daemon — never tears.  The snapshot is not a
// consistent cut across counters: a prepare between two loads can make
// Prepared and PlanCacheHits disagree by one, which is fine for monitoring.
func (e *Engine[V]) StatsSnapshot() EngineStats { return e.rt.stats() }

// Stats is the historical name of StatsSnapshot, kept for existing callers
// and tests; both read the same atomics.  New code — in particular anything
// polling a live engine — should call StatsSnapshot.
func (e *Engine[V]) Stats() EngineStats { return e.StatsSnapshot() }

// Retype returns a handle of value type V2 onto e's runtime: both handles
// share the plan cache, the persistent pool and the stats.  Plans depend
// only on the untyped shape, so a plan prepared through either handle
// serves shape-identical queries of both value types.  Closing either
// handle closes the shared runtime.
func Retype[V2, V1 any](e *Engine[V1]) *Engine[V2] { return &Engine[V2]{rt: e.rt} }

// Close stops the engine's persistent workers and waits for them to exit.
// Prepared queries remain usable — runs after Close execute sequentially.
// Closing the default engine is a no-op.  (The default runtime is the only
// growable one, so the flag doubles as its identity — avoiding a racy read
// of the lazily-written package variable.)
func (e *Engine[V]) Close() {
	if e.rt.growable {
		return
	}
	e.rt.pool.Close()
}

// Prepare plans q (through the plan cache) with the Algorithm-1 execution
// options at the engine's full pool width.
func (e *Engine[V]) Prepare(q *Query[V]) (*PreparedQuery[V], error) {
	return e.PrepareCtx(context.Background(), q, DefaultOptions())
}

// PrepareOpts is Prepare with explicit execution options (captured for
// every subsequent Run).
func (e *Engine[V]) PrepareOpts(q *Query[V], opts Options) (*PreparedQuery[V], error) {
	return e.PrepareCtx(context.Background(), q, opts)
}

// PrepareCtx is PrepareOpts under a context: the exact-DP planner observes
// cancellation, so preparing an adversarially wide query can be bounded.
func (e *Engine[V]) PrepareCtx(ctx context.Context, q *Query[V], opts Options) (*PreparedQuery[V], error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	s := q.Shape()
	sk := s.Key()
	plan, err := e.rt.planFor(ctx, s, sk)
	if err != nil {
		return nil, err
	}
	return e.bind(q, plan, opts, sk), nil
}

// PrepareOrder binds q to an explicit variable ordering with the given
// execution options, bypassing the planners and the cache.  Like InsideOut,
// it checks that order is a permutation listing the free variables first;
// φ-equivalence (membership in EVO(φ)) is the caller's responsibility —
// InEVO verifies it.
func (e *Engine[V]) PrepareOrder(q *Query[V], order []int, opts Options) (*PreparedQuery[V], error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	s := q.Shape()
	if err := s.checkOrder(order); err != nil {
		return nil, err
	}
	w, _, err := FAQWidth(s, hypergraph.NewWidthCalc(s.H), order)
	if err != nil {
		return nil, err
	}
	plan := &Plan{Order: append([]int(nil), order...), Width: w, Method: "user"}
	return e.bind(q, plan, opts, s.Key()), nil
}

// bind wraps a planned query, with a trie cache of its own over its factors.
func (e *Engine[V]) bind(q *Query[V], plan *Plan, opts Options, shapeKey string) *PreparedQuery[V] {
	e.rt.prepared.Add(1)
	return &PreparedQuery[V]{rt: e.rt, q: q, plan: plan, opts: opts, shapeKey: shapeKey,
		tries: join.NewTrieCache(q.Factors, &e.rt.tries)}
}

// PreparedQuery is a planned FAQ query bound to an engine: the Section 6–7
// work is done, every Run is pure InsideOut.  A PreparedQuery is safe for
// concurrent Runs; the prepared query and its factors must not be mutated
// (swap data with RunWithFactors instead).
type PreparedQuery[V any] struct {
	rt   *engineRT
	q    *Query[V]
	plan *Plan
	opts Options
	// shapeKey is the query's Shape.Key(), captured at Prepare so serving
	// paths (shape metrics, pprof labels, slow-query log) never recompute
	// it — Shape() allocates.
	shapeKey string
	// tries memoizes the tries and indicator projections of this query's
	// own factors and lives exactly as long as the query, so a warm repeat
	// Run skips the trie-build phase entirely and no other query's traffic
	// can evict it.  ApplyDeltas commits new factor versions through
	// TrieCache.Update, which drops the superseded entries, so nothing
	// stale is ever served.  Unregistered (transient) factors bypass the
	// cache and never pin memory.
	tries *join.TrieCache[V]

	// deltaMu serializes ApplyDeltas calls; deltaSt is the incremental
	// maintenance state (current factor versions plus the cached result or
	// per-block results), created lazily on first use.
	deltaMu sync.Mutex
	deltaSt *deltaState[V]
}

// Plan returns the cached plan.  Treat it as read-only: it may be shared
// with other prepared queries of the same shape.
func (p *PreparedQuery[V]) Plan() *Plan { return p.plan }

// ShapeKey returns the query's plan-shape key (Shape.Key form), captured
// once at Prepare time.
func (p *PreparedQuery[V]) ShapeKey() string { return p.shapeKey }

// Query returns the underlying query (read-only).
func (p *PreparedQuery[V]) Query() *Query[V] { return p.q }

// Run executes InsideOut against the cached plan on the engine's pool.
// Cancellation is observed between elimination steps and at block
// boundaries; a cancelled run returns ctx.Err() with no goroutine leaked.
func (p *PreparedQuery[V]) Run(ctx context.Context) (*Result[V], error) {
	return p.run(ctx, p.q, p.tries)
}

// RunWithFactors is Run with the prepared factors replaced by fresh data of
// the same shape: factors[i] must cover exactly the same variables as the
// prepared query's i-th factor, so the cached plan (a property of the shape
// alone) stays valid.  This is the data-refresh path of a serving loop.
func (p *PreparedQuery[V]) RunWithFactors(ctx context.Context, factors []*factor.Factor[V]) (*Result[V], error) {
	if len(factors) != len(p.q.Factors) {
		return nil, fmt.Errorf("core: RunWithFactors got %d factors, prepared query has %d",
			len(factors), len(p.q.Factors))
	}
	for i, f := range factors {
		if f == nil || !slices.Equal(f.Vars, p.q.Factors[i].Vars) {
			return nil, fmt.Errorf("core: RunWithFactors factor %d covers %v, prepared factor covers %v",
				i, factorVars(factors[i]), p.q.Factors[i].Vars)
		}
	}
	nq := *p.q
	nq.Factors = factors
	if err := nq.Validate(); err != nil { // fresh data: check domain bounds once
		return nil, err
	}
	// Fresh factors are not registered in the query's trie cache, so they
	// would bypass it anyway; passing no cache keeps the bypass explicit and
	// skips the lookups.  Callers mutating data in place should prefer
	// ApplyDeltas, which registers the new versions and invalidates the
	// superseded ones.
	return p.run(ctx, &nq, nil)
}

func factorVars[V any](f *factor.Factor[V]) []int {
	if f == nil {
		return nil
	}
	return f.Vars
}

// run executes an already-validated query against the cached plan (Prepare
// and RunWithFactors validate; Run reuses the data validated at Prepare).
func (p *PreparedQuery[V]) run(ctx context.Context, q *Query[V], cache *join.TrieCache[V]) (*Result[V], error) {
	if ctx == nil {
		ctx = context.Background()
	}
	res, err := insideOutValidated(ctx, q, p.plan.Order, p.opts, rtExecutor(p.rt, p.opts.Workers, cache))
	if err != nil {
		if join.CtxErr(ctx) != nil {
			p.rt.cancelled.Add(1)
		}
		return nil, err
	}
	p.rt.runs.Add(1)
	return res, nil
}

// planCache is a mutex-guarded LRU from shape keys to plans.
type planCache struct {
	mu    sync.Mutex
	cap   int
	lru   *list.List // front = most recently used; values are *cacheSlot
	byKey map[string]*list.Element
}

type cacheSlot struct {
	key  string
	plan *Plan
}

// newPlanCache returns nil (caching disabled) for capacity < 1; the nil
// receiver is valid on every method.
func newPlanCache(capacity int) *planCache {
	if capacity < 1 {
		return nil
	}
	return &planCache{cap: capacity, lru: list.New(), byKey: map[string]*list.Element{}}
}

func (c *planCache) get(key string) (*Plan, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheSlot).plan, true
}

func (c *planCache) put(key string, p *Plan) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok { // lost a plan race; keep the newest
		c.lru.MoveToFront(el)
		el.Value.(*cacheSlot).plan = p
		return
	}
	c.byKey[key] = c.lru.PushFront(&cacheSlot{key: key, plan: p})
	for c.lru.Len() > c.cap {
		last := c.lru.Back()
		c.lru.Remove(last)
		delete(c.byKey, last.Value.(*cacheSlot).key)
	}
}

func (c *planCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
