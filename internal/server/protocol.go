// The faqd wire protocol: the request/response types shared by the server
// handlers, the Go client and the cmd tools (faqload, faqplan -json).
// Control flow is plain HTTP/JSON — the serving win of the FAQ engine is
// plan amortization, and JSON keeps curl and load tools first-class
// citizens — while bulk factor data may alternatively travel as the
// internal/wire binary framing (Content-Type: application/x-faq-factors),
// which skips the JSON tuple-decoding cost that dominates refresh-heavy
// workloads.  docs/PROTOCOL.md is the complete reference.
package server

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"github.com/faqdb/faq/internal/obs"
)

// QueryRequest is the body of POST /v1/query: a query in the internal/spec
// text format, optionally with fresh factor data and per-request execution
// knobs.  As JSON it is the whole body; in a binary factor stream it is the
// envelope header (without Factors — the frames carry the data).
type QueryRequest struct {
	// Spec is the query in the internal/spec format: an optional domain
	// directive, variable declarations (domain size + aggregate) and
	// factor blocks with listing data.  The spec's untyped shape is the
	// plan-cache key, so requests that differ only in data — or only in
	// value domain — share one planning pass.
	Spec string `json:"spec"`
	// Factors optionally replaces the spec's factor data with fresh
	// same-shape data — the RunWithFactors path of a serving loop.  One
	// entry per spec factor, in spec order; tuple columns follow the
	// factor block's variable *declaration* order, i.e. the same column
	// layout as the spec's own data lines (the server permutes to sorted
	// storage order, exactly as the spec parser does for inline data).
	// Binary requests must leave Factors empty and ship frames instead.
	Factors []FactorData `json:"factors,omitempty"`
	// TimeoutMS bounds planning + execution; 0 means the server default.
	// The run is also cancelled when the client disconnects.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Workers caps the run's executor concurrency below the engine pool:
	// 0 means the pool's full width, 1 forces the sequential executor.
	Workers int `json:"workers,omitempty"`
}

// FactorData is fresh listing data for one factor: parallel tuple/value
// slices, zero values dropped server-side.  Values are JSON numbers for
// every domain: int-domain values must be integral (and within ±2^53, the
// exact range of a float64 — use the binary encoding for full int64
// precision), bool-domain values must be 0 or 1.
type FactorData struct {
	// Tuples are the data rows, columns in the spec factor block's
	// declaration order.
	Tuples [][]int `json:"tuples"`
	// Values are the row values, parallel to Tuples.
	Values []float64 `json:"values"`
}

// DeltaRequest is the body of POST /v1/delta: a delta batch against an
// evolving query session.  As JSON it is the whole body; in a binary delta
// stream (Content-Type application/x-faq-deltas) it is the envelope header
// (without Deltas — the delta frames carry the changes).
type DeltaRequest struct {
	// Spec is the query in the internal/spec format.  On the session's
	// first request the spec's inline factor data seeds the evolving state;
	// on later requests it identifies the query shape (and, when Session is
	// empty, the session itself).
	Spec string `json:"spec"`
	// Session optionally names the evolving state.  Requests sharing a
	// session name evolve one database; when empty, the spec text is the
	// session key, so identical specs share state.
	Session string `json:"session,omitempty"`
	// Deltas is the batch, applied atomically in order: either the whole
	// batch commits and the response carries the maintained result, or the
	// state is untouched and the response is an error.  Binary requests
	// must leave Deltas empty and ship delta frames instead.
	Deltas []DeltaData `json:"deltas,omitempty"`
	// TimeoutMS bounds the incremental run; 0 means the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Workers caps executor concurrency for the session's first prepare;
	// an established session keeps the concurrency it was prepared with.
	Workers int `json:"workers,omitempty"`
}

// DeltaData is one batch entry: row changes against a single factor.
type DeltaData struct {
	// Factor is the spec-order index of the factor the rows change.
	Factor int `json:"factor"`
	// Op is "insert" (upsert; a zero value removes the row) or "delete"
	// (every named row must be present).
	Op string `json:"op"`
	// Tuples are the changed rows, columns in the spec factor block's
	// declaration order, exactly as in FactorData.
	Tuples [][]int `json:"tuples"`
	// Values are the inserted row values, parallel to Tuples; deletes
	// carry none.  The same JSON number conventions as FactorData apply.
	Values []float64 `json:"values,omitempty"`
}

// DeltaResponse is the body of a successful POST /v1/delta: the maintained
// query result after the batch, plus how it was maintained.  Value/Output
// follow the QueryResponse convention.
type DeltaResponse struct {
	// Domain names the value domain the spec declared.
	Domain string `json:"domain"`
	// Value is the scalar result (no free variables), typed as in
	// QueryResponse.
	Value any `json:"value,omitempty"`
	// Output is the listing result (free variables).
	Output *OutputData `json:"output,omitempty"`
	// Strategy names the maintenance path the session uses: "ring"
	// (Δ-propagation), "blocks" (affected-block re-execution) or
	// "recompute" (full re-run).
	Strategy string `json:"strategy"`
	// Applied is the number of deltas committed by this request.
	Applied int `json:"applied"`
	// Stats are the incremental run's work counters.
	Stats RunStats `json:"stats"`
	// ElapsedMS is the server-side wall time of the request.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Trace is the stage-timing span tree, present when the request asked
	// for it (?trace=1 or the X-FAQ-Trace: 1 header).
	Trace *obs.TraceData `json:"trace,omitempty"`
}

// FloatValue returns the scalar result of a float- or tropical-domain
// delta response.
func (r *DeltaResponse) FloatValue() (float64, error) { return floatOf(r.Value) }

// IntValue returns the scalar result of an int-domain delta response.
func (r *DeltaResponse) IntValue() (int64, error) { return intOf(r.Value) }

// BoolValue returns the scalar result of a bool-domain delta response.
func (r *DeltaResponse) BoolValue() (bool, error) { return boolOf(r.Value) }

// QueryResponse is the body of a successful POST /v1/query.  Exactly one
// of Value (no free variables) and Output (free variables) is set, typed
// by Domain.
type QueryResponse struct {
	// Domain names the value domain the spec declared: "float", "int",
	// "bool" or "tropical".
	Domain string `json:"domain"`
	// Value is the scalar result of a query without free variables: a
	// JSON number (float/int/tropical) or boolean (bool).  Use the typed
	// accessors (FloatValue, IntValue, BoolValue) rather than asserting —
	// a client-side decode yields json.Number, an in-process response the
	// native Go value.
	Value any `json:"value,omitempty"`
	// Output is the listing result of a query with free variables.
	Output *OutputData `json:"output,omitempty"`
	// Plan summarizes the ordering the run executed.
	Plan PlanSummary `json:"plan"`
	// Stats are the run's InsideOut work counters.
	Stats RunStats `json:"stats"`
	// ElapsedMS is the server-side wall time of the request.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Trace is the stage-timing span tree, present when the request asked
	// for it (?trace=1 or the X-FAQ-Trace: 1 header).
	Trace *obs.TraceData `json:"trace,omitempty"`
}

// FloatValue returns the scalar result of a float- or tropical-domain
// query.
func (r *QueryResponse) FloatValue() (float64, error) {
	v, err := floatOf(r.Value)
	if err != nil {
		return 0, fmt.Errorf("faqd: %s-domain scalar: %w", r.Domain, err)
	}
	return v, nil
}

// IntValue returns the scalar result of an int-domain query, exact over
// the full int64 range.
func (r *QueryResponse) IntValue() (int64, error) {
	v, err := intOf(r.Value)
	if err != nil {
		return 0, fmt.Errorf("faqd: %s-domain scalar: %w", r.Domain, err)
	}
	return v, nil
}

// BoolValue returns the scalar result of a bool-domain query.
func (r *QueryResponse) BoolValue() (bool, error) {
	v, err := boolOf(r.Value)
	if err != nil {
		return false, fmt.Errorf("faqd: %s-domain scalar: %w", r.Domain, err)
	}
	return v, nil
}

// OutputData is a free-variable result in listing representation, typed by
// the response's Domain.
type OutputData struct {
	// Vars are the free variables' spec names, in output column order.
	Vars []string `json:"vars"`
	// Tuples are the output rows.
	Tuples [][]int `json:"tuples"`
	// Values are the row values: JSON numbers or booleans per the
	// response domain.  Use the typed accessors (FloatValues, IntValues,
	// BoolValues) rather than asserting.
	Values any `json:"values"`
}

// FloatValues returns the output column of a float- or tropical-domain
// query.
func (o *OutputData) FloatValues() ([]float64, error) { return columnOf(o.Values, floatOf) }

// IntValues returns the output column of an int-domain query.
func (o *OutputData) IntValues() ([]int64, error) { return columnOf(o.Values, intOf) }

// BoolValues returns the output column of a bool-domain query.
func (o *OutputData) BoolValues() ([]bool, error) { return columnOf(o.Values, boolOf) }

// floatOf, intOf and boolOf read one domain value from its native Go form
// (server-side) or its decoded JSON form (client-side: json.Number, or
// float64/bool from a vanilla decoder).  Non-finite float values travel
// as the strings "inf", "-inf", "nan" — JSON numbers cannot express them;
// +Inf in particular is the tropical domain's additive identity (an empty
// min), so it is a legitimate result.
func floatOf(v any) (float64, error) {
	switch x := v.(type) {
	case float64:
		return x, nil
	case json.Number:
		return strconv.ParseFloat(x.String(), 64)
	case string:
		switch x {
		case "inf", "-inf", "nan": // the wire spellings, exactly
			return strconv.ParseFloat(x, 64)
		}
		return 0, fmt.Errorf("string value %q is not a float spelling", x)
	case nil:
		return 0, fmt.Errorf("no value")
	}
	return 0, fmt.Errorf("value %v (%T) is not a number", v, v)
}

func intOf(v any) (int64, error) {
	switch x := v.(type) {
	case int64:
		return x, nil
	case json.Number:
		return x.Int64()
	case float64:
		if x != math.Trunc(x) || math.Abs(x) > 1<<53 {
			return 0, fmt.Errorf("value %v is not an exact int64", x)
		}
		return int64(x), nil
	case nil:
		return 0, fmt.Errorf("no value")
	}
	return 0, fmt.Errorf("value %v (%T) is not an integer", v, v)
}

func boolOf(v any) (bool, error) {
	switch x := v.(type) {
	case bool:
		return x, nil
	case nil:
		return false, fmt.Errorf("no value")
	}
	return false, fmt.Errorf("value %v (%T) is not a bool", v, v)
}

// columnOf reads a whole output column through one of the scalar readers.
func columnOf[V any](vs any, one func(any) (V, error)) ([]V, error) {
	switch col := vs.(type) {
	case []V: // server-side native column
		return col, nil
	case []any: // client-side decoded column
		out := make([]V, len(col))
		for i, v := range col {
			x, err := one(v)
			if err != nil {
				return nil, fmt.Errorf("faqd: output value %d: %w", i, err)
			}
			out[i] = x
		}
		return out, nil
	case nil:
		return nil, fmt.Errorf("faqd: output has no values")
	}
	return nil, fmt.Errorf("faqd: output values have unexpected type %T", vs)
}

// PlanSummary is one planned ordering with its FAQ-width.
type PlanSummary struct {
	// Method names the planner that produced the ordering.
	Method string `json:"method"`
	// Width is the ordering's FAQ-width.
	Width float64 `json:"width"`
	// Order lists the variables in elimination order (outermost first).
	Order []string `json:"order"`
}

// RunStats are the InsideOut work counters of one run.
type RunStats struct {
	// Eliminations counts the variable-elimination steps executed.
	Eliminations int `json:"eliminations"`
	// IntermediateRows totals the rows of every intermediate factor.
	IntermediateRows int64 `json:"intermediate_rows"`
	// MaxIntermediate is the largest single intermediate factor.
	MaxIntermediate int64 `json:"max_intermediate"`
	// JoinProbes counts OutsideIn trie probes.
	JoinProbes int64 `json:"join_probes"`
}

// PlanReport is the Figure-1 ordering-theory pipeline for one query shape:
// hypergraph → expression tree → precedence poset → planned orderings and
// widths.  It is served by /v1/plan and emitted by faqplan -json.
type PlanReport struct {
	// Hypergraph renders the query hypergraph.
	Hypergraph string `json:"hypergraph"`
	// Vars are the variable names in expression order.
	Vars []string `json:"vars"`
	// NumFree counts the free prefix.
	NumFree int `json:"num_free"`
	// Tags are the per-variable aggregate tags of the untyped shape.
	Tags []string `json:"tags"`
	// ExpressionTree is the Definition 6.18 tree (Figures 2–6);
	// SoundExpressionTree is set only when the flat-rewriting-sound form
	// (non-closed Σ anchored) differs from it.
	ExpressionTree      string `json:"expression_tree"`
	SoundExpressionTree string `json:"sound_expression_tree,omitempty"`
	// PosetPairs counts the precedence poset's order pairs.
	PosetPairs int `json:"poset_pairs"`
	// LinearExtensions counts |LinEx(P)|, capped at 10000.
	LinearExtensions int `json:"linear_extensions"`
	// Plans are the planned orderings, one per planner that ran.
	Plans []PlanSummary `json:"plans"`
	// FHTW is the fractional hypertree width of the query hypergraph.
	FHTW float64 `json:"fhtw"`
}

// DatasetInfo describes one stored dataset: the body of a successful
// GET /v1/datasets/{name} and the acknowledgment of a PUT.
type DatasetInfo struct {
	// Name is the dataset name.
	Name string `json:"name"`
	// Domain is the value domain shared by every factor ("float", "int",
	// "bool" or "tropical").
	Domain string `json:"domain"`
	// Bytes is the on-disk (and mapped) file size.
	Bytes int64 `json:"bytes"`
	// Factors lists the stored factors in reference order (@0, @1, …).
	Factors []DatasetFactorInfo `json:"factors"`
}

// DatasetFactorInfo is the shape, size and checksum of one stored factor.
type DatasetFactorInfo struct {
	// Arity is the number of columns per row.
	Arity int `json:"arity"`
	// Rows is the number of stored (non-zero) tuples.
	Rows int `json:"rows"`
	// Bytes is the factor's padded segment length on disk.
	Bytes int64 `json:"bytes"`
	// CRC32 is the segment's CRC-32 (IEEE), in hex.
	CRC32 string `json:"crc32"`
}

// DatasetListResponse is the body of GET /v1/datasets.
type DatasetListResponse struct {
	// Datasets lists every resident dataset, sorted by name.
	Datasets []DatasetInfo `json:"datasets"`
}

// StoreStatz are the dataset-store counters of /statsz, present when the
// server was started with a data directory.
type StoreStatz struct {
	// Datasets is the number of resident (mapped) datasets.
	Datasets int64 `json:"datasets"`
	// BytesMapped is the total mapped bytes across resident datasets.
	BytesMapped int64 `json:"bytes_mapped"`
	// ChecksumFailures counts dataset opens rejected by a CRC mismatch
	// over the store's lifetime.
	ChecksumFailures int64 `json:"store_checksum_failures"`
	// DatasetQueries counts /v1/query requests served against resident
	// dataset factors (specs with a use directive).
	DatasetQueries int64 `json:"dataset_queries"`
	// ResidentPrepared is the current population of the dataset
	// prepared-query registry (queries kept warm against resident data).
	ResidentPrepared int64 `json:"resident_prepared"`
	// LoadErrors counts files skipped at startup because they failed
	// verification.
	LoadErrors int64 `json:"load_errors"`
}

// StatszResponse is the body of GET /statsz: a race-safe snapshot of the
// engine counters plus server-level serving metrics.
type StatszResponse struct {
	// UptimeSeconds is the time since the server was created.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Engine mirrors core.EngineStats; one engine runtime serves every
	// domain, so these counters are process-wide.
	Engine EngineStatz `json:"engine"`
	// Server holds the HTTP-level counters.
	Server ServerStatz `json:"server"`
	// Store holds the dataset-store counters; nil when the server runs
	// without a data directory.
	Store *StoreStatz `json:"store,omitempty"`
	// Sort holds the data-plane sort and scan-split counters.
	Sort SortStatz `json:"sort"`
}

// SortStatz are the process-wide data-plane counters of the shared radix
// sort kernel and the block-parallel scan splitter.
type SortStatz struct {
	// RadixSorts / ComparisonSorts count row-block argsorts by strategy:
	// the packed-key radix kernel vs the below-cutoff comparison sort.
	RadixSorts      int64 `json:"radix_sorts"`
	ComparisonSorts int64 `json:"comparison_sorts"`
	// ParallelScans counts scans split into parallel blocks;
	// CacheAwareSplits the subset whose block count was sized to the
	// cache footprint target rather than the worker floor.
	ParallelScans    int64 `json:"parallel_scans"`
	CacheAwareSplits int64 `json:"cache_aware_splits"`
	// LastBlockKeys is the lead-keys-per-block choice of the most recent
	// split.
	LastBlockKeys int64 `json:"last_block_keys"`
}

// EngineStatz mirrors core.EngineStats (see Engine.Stats).
type EngineStatz struct {
	// Prepared counts Prepare calls that returned a prepared query.
	Prepared int64 `json:"prepared"`
	// PlanCacheHits / PlanCacheMisses count plan-LRU outcomes.
	PlanCacheHits   int64 `json:"plan_cache_hits"`
	PlanCacheMisses int64 `json:"plan_cache_misses"`
	// PlanCoalesced counts prepares that adopted another request's
	// in-flight planning pass.
	PlanCoalesced int64 `json:"plan_coalesced"`
	// PlansCached is the current plan-LRU population.
	PlansCached int64 `json:"plans_cached"`
	// Runs / RunsCancelled count completed and context-aborted runs.
	Runs          int64 `json:"runs"`
	RunsCancelled int64 `json:"runs_cancelled"`
	// DeltasApplied counts committed ApplyDeltas batches; the three run
	// counters attribute them to maintenance strategies (ring
	// Δ-propagation, affected-block re-execution, full recompute).
	DeltasApplied   int64 `json:"deltas_applied"`
	DeltaRingRuns   int64 `json:"delta_ring_runs"`
	DeltaBlockRuns  int64 `json:"delta_block_runs"`
	DeltaRecomputes int64 `json:"delta_recomputes"`
	// TrieCache* sum the lookups of every prepared query's own trie cache:
	// lookup outcomes and entries dropped by factor updates.  Evictions is
	// always 0 — a query's cache lives as long as the query and has no
	// capacity bound — and stays for existing readers.
	TrieCacheHits          int64 `json:"trie_cache_hits"`
	TrieCacheMisses        int64 `json:"trie_cache_misses"`
	TrieCacheInvalidations int64 `json:"trie_cache_invalidations"`
	TrieCacheEvictions     int64 `json:"trie_cache_evictions"`
}

// ServerStatz are the HTTP-level counters.  InFlight excludes the
// monitoring endpoints (/healthz, /statsz) — an idle daemon reads 0 even
// while being polled.  Latency percentiles are over a ring of the most
// recent /v1/query requests (successful or not), so they track current
// behavior, not lifetime history.
type ServerStatz struct {
	// Requests counts every request on any endpoint; RequestsOK and
	// RequestsErr split them by status (< 400 vs >= 400).
	Requests    int64 `json:"requests"`
	RequestsOK  int64 `json:"requests_ok"`
	RequestsErr int64 `json:"requests_err"`
	// InFlight is the number of non-monitoring requests currently being
	// handled.
	InFlight int64 `json:"in_flight"`
	// Queries counts POST /v1/query requests; QueriesBinary the subset
	// that shipped binary factor streams; QueriesBinaryResp the subset
	// whose response was negotiated into the binary factor encoding
	// (Accept: application/x-faq-factors).
	Queries           int64 `json:"queries"`
	QueriesBinary     int64 `json:"queries_binary"`
	QueriesBinaryResp int64 `json:"queries_binary_responses"`
	// Batches counts POST /v1/batch requests; BatchesBinary the subset
	// that shipped the binary batch envelope; BatchStreams the subset
	// whose response was streamed as binary result records (Accept:
	// application/x-faq-results).  BatchItems counts executed batch items
	// across all batches; BatchItemsErr the items that failed.
	Batches       int64 `json:"batches"`
	BatchesBinary int64 `json:"batches_binary"`
	BatchStreams  int64 `json:"batch_streams"`
	BatchItems    int64 `json:"batch_items"`
	BatchItemsErr int64 `json:"batch_items_err"`
	// QueriesByDomain counts executed queries per value domain.
	QueriesByDomain map[string]int64 `json:"queries_by_domain"`
	// Deltas counts POST /v1/delta requests; DeltasBinary the subset that
	// shipped binary delta streams.  DeltaSessions is the current session
	// registry population (LRU-bounded by Config.MaxSessions).
	Deltas        int64 `json:"deltas"`
	DeltasBinary  int64 `json:"deltas_binary"`
	DeltaSessions int64 `json:"delta_sessions"`
	// Rejected counts queries shed with 429 (backpressure).
	Rejected int64 `json:"rejected"`
	// LatencyP50MS / LatencyP90MS / LatencyP99MS / LatencyMaxMS are
	// percentiles over the recent-query latency ring; LatencyWindow is the
	// number of samples they were computed over (at most the ring size),
	// so a reader can judge how trustworthy the tail percentiles are.
	LatencyP50MS  float64 `json:"latency_p50_ms"`
	LatencyP90MS  float64 `json:"latency_p90_ms"`
	LatencyP99MS  float64 `json:"latency_p99_ms"`
	LatencyMaxMS  float64 `json:"latency_max_ms"`
	LatencyWindow int64   `json:"latency_window"`
	// Goroutines is runtime.NumGoroutine at snapshot time.
	Goroutines int `json:"goroutines"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	// Error is a human-readable description of what was wrong.
	Error string `json:"error"`
}
