// Package faq is a Go implementation of the Functional Aggregate Query
// (FAQ) framework of Abo Khamis, Ngo and Rudra, "FAQ: Questions Asked
// Frequently" (PODS 2016).
//
// An FAQ query (Eq. (1) of the paper) is
//
//	φ(x_1..x_f) = ⊕^(f+1)_{x_{f+1}} ... ⊕^(n)_{x_n}  ⊗_{S∈E} ψ_S(x_S)
//
// over one domain D with product ⊗: the first f variables are free, each
// bound variable carries an aggregate that either forms a commutative
// semiring with ⊗ or is ⊗ itself.  Joins, CSPs, marginal/MAP inference in
// graphical models, quantified and counting conjunctive queries, matrix
// chain multiplication, the DFT, SAT and #SAT are all instances.
//
// The engine solves FAQ with InsideOut — variable elimination whose
// intermediate sub-problems run on a worst-case-optimal backtracking join
// (OutsideIn) with indicator projections — in time Õ(N^{faqw(σ)} + ‖φ‖).
// Orderings σ are planned through the paper's machinery: expression trees,
// precedence posets, the exact dynamic program over LinEx(P) and the
// Section 7 approximation algorithm.
//
// The serving API follows the paper's phase split — and the workload its
// title names: questions asked *frequently*.  An Engine is a long-lived
// handle holding a plan cache (an LRU keyed by the query's untyped Shape,
// so shape-identical queries across calls share one planning pass) and a
// persistent executor worker pool reused across elimination steps, runs and
// queries.  Prepare runs the Section 6–7 planners once; Run and
// RunWithFactors execute InsideOut against the cached plan with fresh data:
//
//	eng := faq.NewEngine[float64](faq.EngineOptions{}) // Workers: 0 = GOMAXPROCS
//	defer eng.Close()
//
//	d := faq.Float()
//	q := &faq.Query[float64]{
//	    D: d, NVars: 3, DomSizes: []int{64, 64, 64}, NumFree: 0,
//	    Aggs: []faq.Aggregate[float64]{
//	        faq.SemiringAgg(faq.OpFloatSum()),
//	        faq.SemiringAgg(faq.OpFloatSum()),
//	        faq.SemiringAgg(faq.OpFloatSum()),
//	    },
//	    Factors: []*faq.Factor[float64]{r, s, t}, // ψ_{01}, ψ_{12}, ψ_{02}
//	}
//	prep, err := eng.Prepare(q)                // Sections 6–7, once
//	res, err := prep.Run(ctx)                  // InsideOut: res.Scalar() is the
//	                                           // triangle count, Width ≈ 1.5
//	res, err = prep.RunWithFactors(ctx, fresh) // same shape, new data: no replan
//	res, err = prep.ApplyDeltas(ctx, deltas)   // evolving data: incremental
//	                                           // maintenance, not a recompute
//
// For evolving data, PreparedQuery.ApplyDeltas maintains the result under
// batches of row inserts and deletes: ring semirings (sum over float/int)
// propagate an algebraic Δ, idempotent ones (bool, tropical, max) re-execute
// only the key-range blocks a batch touches, and factor versions roll
// through the prepared query's own trie cache so unchanged tries are shared
// by every run of that query.
//
// Runs observe ctx between elimination steps and at the block boundaries of
// every scan: a cancelled run returns ctx.Err() cleanly with no goroutine
// leaked.  Engine.Stats reports plans cached, cache hits and runs served.
//
// Solve and InsideOut remain as one-shot compatibility wrappers over the
// default engine: same semantics as before (Solve replans on every call),
// now executing on the shared persistent pool.  New code — and any caller
// issuing the same query shape repeatedly — should prefer Prepare/Run; the
// wrappers may be deprecated once the cmd/ and examples/ surface has fully
// moved to the Engine API.
//
// Each elimination step runs on a pluggable executor.  The default is the
// engine's worker pool (Options.Workers: 0 = the pool width, 1 = sequential) that
// partitions every elimination scan and output join into contiguous
// key-range blocks of the outermost join variable, builds factor tries and
// indicator projections concurrently, sorts large intermediates with a
// parallel merge sort (sized to GOMAXPROCS, at most one in flight
// process-wide so pools never oversubscribe), and merges block outputs in
// block order — so every
// worker count returns bit-identical results (scalar-output scans stay
// sequential; ⊕-folds are never re-associated).  Parallel scaling is
// benchmarked by
//
//	go test -bench 'ParallelTriangle|ParallelFourCycle|ParallelPGM|ParallelSharpSAT' -cpu 1,4
//
// where each family compares Workers=1 against the pool, and plan
// amortization by the BenchmarkPrepared* families.  The randomized
// cross-semiring harness in faq_equivalence_test.go asserts Solve ≡ InsideOut
// ≡ Engine.Prepare+Run ≡ BruteForce with identical outputs across worker
// counts.
//
// Domain-specific front ends live in the internal packages and are
// exercised by the examples/ programs and cmd/ tools: logic queries
// (BCQ/CQ/#CQ/QCQ/#QCQ), natural joins, graphical models, matrix chain
// multiplication, the DFT, and β-acyclic SAT/#SAT.
package faq

import (
	"context"

	"github.com/faqdb/faq/internal/core"
	"github.com/faqdb/faq/internal/factor"
	"github.com/faqdb/faq/internal/hypergraph"
	"github.com/faqdb/faq/internal/semiring"
)

// Core model types.
type (
	// Query is an FAQ instance in the normal form of Eq. (1).
	Query[V any] = core.Query[V]
	// Aggregate is a per-variable aggregate ⊕(i).
	Aggregate[V any] = core.Aggregate[V]
	// Factor is a function in listing representation (Definition 4.1).
	Factor[V any] = factor.Factor[V]
	// Domain is the shared multiplicative structure (⊗, 0, 1) of a query.
	Domain[V any] = semiring.Domain[V]
	// Op is a named semiring aggregate operator.
	Op[V any] = semiring.Op[V]
	// Result is an InsideOut outcome.
	Result[V any] = core.Result[V]
	// Factorized is the Section 8.4 factorized output representation.
	Factorized[V any] = core.Factorized[V]
	// Options tunes an InsideOut run.
	Options = core.Options
	// Plan is a chosen variable ordering with its FAQ-width.
	Plan = core.Plan
	// Shape is the untyped skeleton used by the ordering theory.
	Shape = core.Shape
	// ExprNode is an expression-tree node (Definition 6.18).
	ExprNode = core.ExprNode
	// Poset is the precedence poset over variables (Definition 6.22).
	Poset = core.Poset
	// Hypergraph is a query hypergraph.
	Hypergraph = hypergraph.Hypergraph
	// WidthCalc computes ρ, ρ*, AGM, tw and fhtw against a hypergraph.
	WidthCalc = hypergraph.WidthCalc
	// Stats reports work counters from an InsideOut run.
	Stats = core.Stats
	// Engine is a long-lived serving handle: a plan cache plus a
	// persistent executor pool (see NewEngine).
	Engine[V any] = core.Engine[V]
	// PreparedQuery is a planned query bound to an Engine: Prepare once,
	// Run / RunWithFactors many times.
	PreparedQuery[V any] = core.PreparedQuery[V]
	// EngineOptions configures an Engine (pool size, plan-cache size,
	// planner strategy).
	EngineOptions = core.EngineOptions
	// EngineStats are an Engine's cumulative serving counters.
	EngineStats = core.EngineStats
	// Delta is one batch of row changes against a prepared query's factor,
	// applied through PreparedQuery.ApplyDeltas.
	Delta[V any] = core.Delta[V]
	// DeltaOp selects what a delta batch does to its rows.
	DeltaOp = factor.DeltaOp
)

// Delta batch operations.
const (
	// DeltaInsert upserts rows: present rows take the batch value, absent
	// rows are added, and a zero batch value removes the row.
	DeltaInsert = factor.DeltaInsert
	// DeltaDelete removes rows; every row must be present.
	DeltaDelete = factor.DeltaDelete
)

// Sentinel errors of the delta path, matched with errors.Is.  A rejected
// batch leaves the prepared query's state unchanged.
var (
	// ErrDeltaArity reports a batch whose row block or value count does not
	// match the target factor's arity.
	ErrDeltaArity = factor.ErrDeltaArity
	// ErrDeltaDup reports a batch listing the same row twice.
	ErrDeltaDup = factor.ErrDeltaDup
	// ErrDeltaAbsent reports a delete of a row the factor does not hold.
	ErrDeltaAbsent = factor.ErrDeltaAbsent
	// ErrDeltaRange reports a key outside its variable's domain.
	ErrDeltaRange = factor.ErrDeltaRange
	// ErrDeltaFactor reports a delta addressed at a factor index the
	// prepared query does not have.
	ErrDeltaFactor = core.ErrDeltaFactor
)

// NewEngine creates a long-lived engine with its own plan cache and
// persistent worker pool.  Call Close when done.
func NewEngine[V any](opts EngineOptions) *Engine[V] { return core.NewEngine[V](opts) }

// DefaultEngine returns a handle on the shared process-wide engine backing
// the Solve and InsideOut compatibility wrappers.
func DefaultEngine[V any]() *Engine[V] { return core.DefaultEngine[V]() }

// Retype returns a handle of value type V2 onto the same engine runtime:
// both handles share the plan cache, the persistent pool and the stats.
// Plans depend only on the untyped query shape, so a multi-domain server
// can serve every value type from one cache.
func Retype[V2, V1 any](e *Engine[V1]) *Engine[V2] { return core.Retype[V2](e) }

// Free marks an output variable.
func Free[V any]() Aggregate[V] { return core.Free[V]() }

// SemiringAgg wraps a semiring aggregate operator.
func SemiringAgg[V any](op *Op[V]) Aggregate[V] { return core.SemiringAgg(op) }

// ProductAgg marks a variable aggregated by ⊗ itself.
func ProductAgg[V any]() Aggregate[V] { return core.ProductAgg[V]() }

// Standard domains and operators (see internal/semiring).
var (
	Bool          = semiring.Bool
	Float         = semiring.Float
	Int           = semiring.Int
	Complex       = semiring.Complex
	Rat           = semiring.Rat
	Set           = semiring.Set
	Tropical      = semiring.Tropical
	OpOr          = semiring.OpOr
	OpFloatSum    = semiring.OpFloatSum
	OpFloatMax    = semiring.OpFloatMax
	OpFloatMin    = semiring.OpFloatMin
	OpIntSum      = semiring.OpIntSum
	OpIntMax      = semiring.OpIntMax
	OpComplexSum  = semiring.OpComplexSum
	OpRatSum      = semiring.OpRatSum
	OpUnion       = semiring.OpUnion
	OpTropicalMin = semiring.OpTropicalMin
)

// NewFactor builds a listing-representation factor over sorted variable ids.
// Duplicate tuples are combined with combine (nil means duplicates are an
// error); zero values are dropped.
func NewFactor[V any](d *Domain[V], vars []int, tuples [][]int, values []V,
	combine func(a, b V) V) (*Factor[V], error) {
	return factor.New(d, vars, tuples, values, combine)
}

// FromFunc materializes a factor from a dense function, keeping non-zeros.
func FromFunc[V any](d *Domain[V], vars []int, domSizes []int, f func(tuple []int) V) *Factor[V] {
	return factor.FromFunc(d, vars, domSizes, f)
}

// DefaultOptions returns the Algorithm-1 configuration: indicator
// projections on, Yannakakis-style output filters on, listed output.
func DefaultOptions() Options { return core.DefaultOptions() }

// InsideOut evaluates the query along a φ-equivalent variable ordering
// (Algorithm 1 of the paper).  One-shot compatibility wrapper over the
// default engine.
//
// Deprecated: use Engine.PrepareOrder and PreparedQuery.Run — a prepared
// query validates once, reuses the engine's persistent pool, and caches its
// factor tries across runs; InsideOut re-does all of that every call.
func InsideOut[V any](q *Query[V], order []int, opts Options) (*Result[V], error) {
	return core.InsideOut(q, order, opts)
}

// InsideOutCtx is InsideOut under a context: cancellation is observed
// between elimination steps and at block boundaries, with no goroutine
// leaked.
//
// Deprecated: use Engine.PrepareOrder and PreparedQuery.Run with the
// context, for the same reasons as InsideOut.
func InsideOutCtx[V any](ctx context.Context, q *Query[V], order []int, opts Options) (*Result[V], error) {
	return core.InsideOutCtx(ctx, q, order, opts)
}

// Solve plans an ordering (exact DP over LinEx(P) for small queries, the
// Section 7 approximation otherwise) and runs InsideOut.  One-shot
// compatibility wrapper over the default engine.
//
// Deprecated: use Engine.Prepare and PreparedQuery.Run — Solve re-runs the
// Section 6–7 planners on every call and rebuilds every trie; the prepared
// path plans once per shape (LRU-cached across value types) and serves
// repeat runs from cached tries.
func Solve[V any](q *Query[V], opts Options) (*Result[V], *Plan, error) {
	return core.Solve(q, opts)
}

// SolveCtx is Solve under a context, observed by the exact planner and at
// the block boundaries of every scan.
//
// Deprecated: use Engine.PrepareCtx and PreparedQuery.Run with the context,
// for the same reasons as Solve.
func SolveCtx[V any](ctx context.Context, q *Query[V], opts Options) (*Result[V], *Plan, error) {
	return core.SolveCtx(ctx, q, opts)
}

// BruteForce evaluates the query by enumeration — the testing oracle and
// the "no non-trivial algorithm" baseline.
func BruteForce[V any](q *Query[V]) (*Factor[V], error) { return core.BruteForce(q) }

// BruteForcePar is BruteForce with the outermost variable's domain fanned
// out over a worker pool (0 = GOMAXPROCS); partials fold back in domain
// order, so every worker count returns the bit-identical factor.
func BruteForcePar[V any](q *Query[V], workers int) (*Factor[V], error) {
	return core.BruteForcePar(q, workers)
}

// BruteForceScalar is BruteForce for queries without free variables.
func BruteForceScalar[V any](q *Query[V]) (V, error) { return core.BruteForceScalar(q) }

// Planning and width analysis.
var (
	// BuildExprTree constructs the (flat-rewriting-sound) expression tree.
	BuildExprTree = core.BuildExprTree
	// BuildExprTreeScoped is Definition 6.18 verbatim (Figures 2–6).
	BuildExprTreeScoped = core.BuildExprTreeScoped
	// NewPoset derives the precedence poset of an expression tree.
	NewPoset = core.NewPoset
	// InEVO tests membership in EVO(φ) via CW-equivalence.
	InEVO = core.InEVO
	// EnumerateEVO lists EVO(φ) exhaustively (tests/tools).
	EnumerateEVO = core.EnumerateEVO
	// CWEquivalent tests component-wise equivalence of two orderings.
	CWEquivalent = core.CWEquivalent
	// FAQWidth computes faqw(σ) (Definition 5.10).
	FAQWidth = core.FAQWidth
	// PlanExpression, PlanExact, PlanGreedy, PlanApprox and ChoosePlan are
	// the ordering planners of Sections 6–7.
	PlanExpression = core.PlanExpression
	PlanExact      = core.PlanExact
	PlanGreedy     = core.PlanGreedy
	PlanApprox     = core.PlanApprox
	ChoosePlan     = core.ChoosePlan
	// ExactDecomp and GreedyDecomp are fhtw black boxes for PlanApprox.
	ExactDecomp  = core.ExactDecomp
	GreedyDecomp = core.GreedyDecomp
	// NewWidthCalc builds a width calculator over a hypergraph.
	NewWidthCalc = hypergraph.NewWidthCalc
)

// NewHypergraph builds a hypergraph on n vertices from vertex-list edges.
func NewHypergraph(n int, edges ...[]int) *Hypergraph {
	return hypergraph.NewWithEdges(n, edges...)
}
