// The server half of the observability layer (internal/obs): per-request
// stage timing, the Prometheus /metrics surface, the slow-query log and
// opt-in pprof execution labels.
//
// Every API request gets a reqObs carried on its context.  Stage
// checkpoints (parse → resolve → prepare → execute → encode) always feed
// the per-stage latency histograms; when the request asked for a trace
// (?trace=1 or X-FAQ-Trace: 1) — or a slow-query log is configured — the
// reqObs also carries an obs.Trace, and the same checkpoints open spans on
// it, so the span tree and the histograms can never disagree about where
// time went.  The engine layers deepen the trace (per-elimination spans,
// plan-cache annotations) through the same context; with no trace attached
// those hooks are nil-checked no-ops.
package server

import (
	"context"
	"net/http"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/faqdb/faq/internal/core"
	"github.com/faqdb/faq/internal/join"
	"github.com/faqdb/faq/internal/obs"
	"github.com/faqdb/faq/internal/sortx"
)

// The stage names, in request-pipeline order.  They are the fixed label
// set of faqd_stage_duration_seconds and the top-level span names of a
// request trace.
const (
	stageParse   = "parse"
	stageResolve = "resolve"
	stagePrepare = "prepare"
	stageExecute = "execute"
	stageEncode  = "encode"
)

var stageNames = []string{stageParse, stageResolve, stagePrepare, stageExecute, stageEncode}

// endpointNames is the fixed label set of faqd_request_duration_seconds.
var endpointNames = []string{"query", "batch", "delta", "plan", "dataset"}

// shapeTopK bounds how many per-shape series /metrics exposes (the table
// itself holds obs.DefaultMaxShapes; the exposition shows the top K by
// count plus the overflow counter).
const shapeTopK = 32

// isMonitoringPath reports whether the path is a monitoring or
// introspection endpoint.  These stay out of the in-flight gauge so an
// idle daemon reads in_flight == 0 even while being polled ("wait for
// in_flight == 0, then stop" must terminate).
func isMonitoringPath(path string) bool {
	return path == "/healthz" || path == "/statsz" || path == "/metrics" ||
		strings.HasPrefix(path, "/debug/pprof/")
}

// endpointOf maps a request to its metric endpoint label, "" for requests
// outside the instrumented API surface.
func endpointOf(r *http.Request) string {
	switch {
	case r.URL.Path == "/v1/query" && r.Method == http.MethodPost:
		return "query"
	case r.URL.Path == "/v1/batch" && r.Method == http.MethodPost:
		return "batch"
	case r.URL.Path == "/v1/delta" && r.Method == http.MethodPost:
		return "delta"
	case r.URL.Path == "/v1/plan":
		return "plan"
	case r.URL.Path == "/v1/datasets" || strings.HasPrefix(r.URL.Path, "/v1/datasets/"):
		return "dataset"
	}
	return ""
}

// serverObs owns the server's metric registry, stage/endpoint histograms,
// the bounded per-shape table and the slow-query log.  One per Server,
// built in New.
type serverObs struct {
	reg       *obs.Registry
	stageHist map[string]*obs.Histogram
	epHist    map[string]*obs.Histogram
	shapes    *obs.ShapeTable
	slowLog   *obs.SlowLog // nil unless Config.SlowQueryLog was set
	slowAfter time.Duration
	labels    bool // attach pprof labels around execution
}

// newServerObs builds the observability state and registers every metric.
// Counters that already exist as /statsz atomics are exposed through
// scrape-time callbacks so nothing is ever double-counted.
func newServerObs(s *Server) *serverObs {
	o := &serverObs{
		reg:       obs.NewRegistry(),
		stageHist: map[string]*obs.Histogram{},
		epHist:    map[string]*obs.Histogram{},
		shapes:    obs.NewShapeTable(obs.DefaultMaxShapes),
		slowLog:   obs.NewSlowLog(s.cfg.SlowQueryLog),
		slowAfter: s.cfg.SlowQuery,
		labels:    s.cfg.ProfileLabels,
	}
	reg := o.reg
	reg.GaugeFunc("faqd_uptime_seconds", "Seconds since the server was created.",
		func() float64 { return time.Since(s.m.start).Seconds() })
	reg.CounterFunc("faqd_requests_total", "Requests on any endpoint.",
		func() float64 { return float64(s.m.requests.Load()) })
	reg.CounterFunc("faqd_requests_ok_total", "Responses with status < 400.",
		func() float64 { return float64(s.m.ok.Load()) })
	reg.CounterFunc("faqd_requests_err_total", "Responses with status >= 400.",
		func() float64 { return float64(s.m.errs.Load()) })
	reg.GaugeFunc("faqd_in_flight", "Non-monitoring requests currently being handled.",
		func() float64 { return float64(s.m.inFlight.Load()) })
	reg.CounterFunc("faqd_queries_total", "POST /v1/query requests.",
		func() float64 { return float64(s.m.queries.Load()) })
	reg.CounterFunc("faqd_queries_binary_total", "Queries shipping binary factor streams.",
		func() float64 { return float64(s.m.binary.Load()) })
	reg.CounterFunc("faqd_queries_binary_responses_total", "Query responses in the binary factor encoding.",
		func() float64 { return float64(s.m.binaryResp.Load()) })
	reg.CounterFunc("faqd_queries_rejected_total", "Queries shed with 429 (backpressure).",
		func() float64 { return float64(s.m.rejected.Load()) })
	reg.CounterFunc("faqd_batches_total", "POST /v1/batch requests.",
		func() float64 { return float64(s.m.batches.Load()) })
	reg.CounterFunc("faqd_batches_binary_total", "Batch requests shipping the binary envelope.",
		func() float64 { return float64(s.m.batchBinary.Load()) })
	reg.CounterFunc("faqd_batch_streams_total", "Batch responses streamed as binary result records.",
		func() float64 { return float64(s.m.batchStreams.Load()) })
	reg.CounterFunc("faqd_batch_items_total", "Executed batch items across all batches.",
		func() float64 { return float64(s.m.batchItems.Load()) })
	reg.CounterFunc("faqd_batch_items_err_total", "Batch items that failed.",
		func() float64 { return float64(s.m.batchItemErr.Load()) })
	reg.CounterFunc("faqd_dataset_queries_total", "Queries served from resident datasets.",
		func() float64 { return float64(s.m.datasetQ.Load()) })
	reg.CounterFunc("faqd_deltas_total", "POST /v1/delta requests.",
		func() float64 { return float64(s.m.deltas.Load()) })
	reg.CounterFunc("faqd_deltas_binary_total", "Delta requests shipping binary streams.",
		func() float64 { return float64(s.m.deltasBinary.Load()) })
	reg.GaugeFunc("faqd_delta_sessions", "Evolving delta sessions currently resident.",
		func() float64 { return float64(s.sessions.len()) })
	reg.GaugeFunc("faqd_goroutines", "runtime.NumGoroutine at scrape time.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	for _, dom := range []struct {
		name string
		v    interface{ Load() int64 }
	}{
		{"float", &s.m.domFloat}, {"int", &s.m.domInt},
		{"bool", &s.m.domBool}, {"tropical", &s.m.domTrop},
	} {
		v := dom.v
		reg.CounterFunc("faqd_queries_domain_total", "Executed queries per value domain.",
			func() float64 { return float64(v.Load()) }, obs.Label{Name: "domain", Value: dom.name})
	}
	reg.CounterFunc("faqd_slow_queries_total", "Requests written to the slow-query log.",
		func() float64 { return float64(o.slowLog.Count()) })

	// Data-plane sort and scan-split strategy counters, process-wide like
	// the atomics they read.
	reg.CounterFunc("faqd_sort_radix_total", "Row-block argsorts served by the packed-key radix kernel.",
		func() float64 { return float64(sortx.RadixSorts()) })
	reg.CounterFunc("faqd_sort_comparison_total", "Row-block argsorts below the radix cutoff (comparison sort).",
		func() float64 { return float64(sortx.ComparisonSorts()) })
	reg.CounterFunc("faqd_scan_splits_total", "Scans split into parallel blocks.",
		func() float64 { scans, _, _ := join.SplitStats(); return float64(scans) })
	reg.CounterFunc("faqd_scan_splits_cache_aware_total", "Parallel scans whose block count was cache-target sized.",
		func() float64 { _, cache, _ := join.SplitStats(); return float64(cache) })
	reg.GaugeFunc("faqd_scan_block_keys", "Lead keys per block chosen by the most recent split.",
		func() float64 { _, _, keys := join.SplitStats(); return float64(keys) })

	// Engine counters mirror core.EngineStats; each callback takes its own
	// snapshot (a handful of atomic loads — scraping is the cold path).
	engCounter := func(name, help string, f func(core.EngineStats) int64) {
		reg.CounterFunc(name, help, func() float64 { return float64(f(s.eng.StatsSnapshot())) })
	}
	engGauge := func(name, help string, f func(core.EngineStats) int64) {
		reg.GaugeFunc(name, help, func() float64 { return float64(f(s.eng.StatsSnapshot())) })
	}
	engCounter("faqd_engine_prepared_total", "Prepared queries.",
		func(e core.EngineStats) int64 { return e.Prepared })
	engCounter("faqd_engine_plan_cache_hits_total", "Plan-LRU hits.",
		func(e core.EngineStats) int64 { return e.PlanCacheHits })
	engCounter("faqd_engine_plan_cache_misses_total", "Plan-LRU misses.",
		func(e core.EngineStats) int64 { return e.PlanCacheMisses })
	engCounter("faqd_engine_plan_coalesced_total", "Prepares that adopted an in-flight planning pass.",
		func(e core.EngineStats) int64 { return e.PlanCoalesced })
	engGauge("faqd_engine_plans_cached", "Current plan-LRU population.",
		func(e core.EngineStats) int64 { return e.PlansCached })
	engCounter("faqd_engine_runs_total", "Completed engine runs.",
		func(e core.EngineStats) int64 { return e.Runs })
	engCounter("faqd_engine_runs_cancelled_total", "Context-aborted engine runs.",
		func(e core.EngineStats) int64 { return e.RunsCancelled })
	engCounter("faqd_engine_deltas_applied_total", "Committed ApplyDeltas batches.",
		func(e core.EngineStats) int64 { return e.DeltasApplied })
	engCounter("faqd_engine_delta_ring_runs_total", "Delta batches maintained by ring propagation.",
		func(e core.EngineStats) int64 { return e.DeltaRingRuns })
	engCounter("faqd_engine_delta_block_runs_total", "Delta batches maintained by block re-execution.",
		func(e core.EngineStats) int64 { return e.DeltaBlockRuns })
	engCounter("faqd_engine_delta_recomputes_total", "Delta batches maintained by full recompute.",
		func(e core.EngineStats) int64 { return e.DeltaRecomputes })
	engCounter("faqd_engine_trie_cache_hits_total", "Trie-cache hits.",
		func(e core.EngineStats) int64 { return e.TrieCacheHits })
	engCounter("faqd_engine_trie_cache_misses_total", "Trie-cache misses.",
		func(e core.EngineStats) int64 { return e.TrieCacheMisses })
	engCounter("faqd_engine_trie_cache_invalidations_total", "Trie-cache entries dropped by factor updates.",
		func(e core.EngineStats) int64 { return e.TrieCacheInvalidations })
	engCounter("faqd_engine_trie_cache_evictions_total", "Trie-cache capacity evictions (always 0: caches live as long as their query).",
		func(e core.EngineStats) int64 { return e.TrieCacheEvictions })

	if s.store != nil {
		st := s.store
		reg.GaugeFunc("faqd_store_datasets", "Resident (mapped) datasets.",
			func() float64 { return float64(st.Len()) })
		reg.GaugeFunc("faqd_store_bytes_mapped", "Mapped bytes across resident datasets.",
			func() float64 { return float64(st.BytesMapped()) })
		reg.CounterFunc("faqd_store_checksum_failures_total", "Dataset opens rejected by CRC mismatch.",
			func() float64 { return float64(st.ChecksumFailures()) })
		reg.GaugeFunc("faqd_store_resident_prepared", "Prepared queries kept warm against resident data.",
			func() float64 { return float64(s.resident.len()) })
		reg.CounterFunc("faqd_store_load_errors_total", "Dataset files skipped at startup.",
			func() float64 { return float64(len(st.LoadErrors())) })
	}

	for _, ep := range endpointNames {
		o.epHist[ep] = reg.Histogram("faqd_request_duration_seconds",
			"Request wall time per endpoint.", nil, obs.Label{Name: "endpoint", Value: ep})
	}
	for _, st := range stageNames {
		o.stageHist[st] = reg.Histogram("faqd_stage_duration_seconds",
			"Request-pipeline stage time (parse, resolve, prepare, execute, encode).",
			nil, obs.Label{Name: "stage", Value: st})
	}
	return o
}

// reqObs is one request's observation state, carried on the request
// context.  The handler goroutine writes domain/dataset/shape before the
// response; the middleware reads them after ServeHTTP returns — same
// goroutine, no races.  A nil *reqObs is valid everywhere (handlers
// invoked outside the middleware, e.g. direct-mux tests) and does nothing.
type reqObs struct {
	o        *serverObs
	endpoint string
	// tr is non-nil when this request is being traced (the client asked,
	// or a slow-query log wants stage breakdowns for slow requests).
	tr *obs.Trace
	// wantTrace is set when the client asked for the trace in the
	// response (?trace=1 or X-FAQ-Trace: 1).
	wantTrace bool
	domain    string
	dataset   string
	shape     string
}

type reqObsKey struct{}

// reqObsFrom returns the request's observation state, nil outside the
// middleware.
func reqObsFrom(ctx context.Context) *reqObs {
	ro, _ := ctx.Value(reqObsKey{}).(*reqObs)
	return ro
}

// begin attaches a reqObs (and, when tracing, an obs.Trace) to the
// request context.
func (o *serverObs) begin(r *http.Request, endpoint string) (*reqObs, *http.Request) {
	ro := &reqObs{o: o, endpoint: endpoint}
	if endpoint == "query" || endpoint == "batch" || endpoint == "delta" {
		// The RawQuery check keeps the no-query-string hot path free of the
		// url.Values allocation r.URL.Query() would pay on every request.
		if r.URL.RawQuery != "" && r.URL.Query().Get("trace") == "1" {
			ro.wantTrace = true
		} else if r.Header.Get("X-FAQ-Trace") == "1" {
			ro.wantTrace = true
		}
		if ro.wantTrace || o.slowLog != nil {
			ro.tr = obs.NewTrace()
		}
	}
	ctx := context.WithValue(r.Context(), reqObsKey{}, ro)
	if ro.tr != nil {
		ctx = obs.WithTrace(ctx, ro.tr)
	}
	return ro, r.WithContext(ctx)
}

// finish closes out a request: endpoint histogram, shape table, and the
// slow-query log when the request crossed the threshold.
func (o *serverObs) finish(ro *reqObs, status int, wall time.Duration) {
	if h := o.epHist[ro.endpoint]; h != nil {
		h.Observe(wall)
	}
	if ro.shape != "" {
		o.shapes.Observe(ro.shape, wall)
	}
	if o.slowLog != nil && wall >= o.slowAfter && ro.tr != nil {
		o.slowLog.Log(&obs.SlowQueryEntry{
			Time:     time.Now().UTC().Format(time.RFC3339Nano),
			Endpoint: ro.endpoint,
			Domain:   ro.domain,
			Dataset:  ro.dataset,
			Shape:    ro.shape,
			Status:   status,
			WallMS:   durationMS(wall),
			Trace:    ro.tr.Finish(),
		})
	}
}

// stage begins one pipeline stage: the returned func (idempotent, so it
// can be deferred for early returns AND called explicitly on the main
// path) feeds the stage histogram and ends the stage's trace span.
func (ro *reqObs) stage(name string) func() {
	if ro == nil {
		return func() {}
	}
	sp := ro.tr.Start(name) // nil-safe: no span unless tracing
	start := time.Now()
	done := false
	return func() {
		if done {
			return
		}
		done = true
		ro.o.stageHist[name].Observe(time.Since(start))
		sp.End()
	}
}

// setQuery records what the request resolved to, for the shape table,
// pprof labels and the slow-query log.
func (ro *reqObs) setQuery(domain, dataset, shape string) {
	if ro == nil {
		return
	}
	ro.domain, ro.dataset, ro.shape = domain, dataset, shape
}

// recordItemSpan appends one completed batch item's span to the trace,
// under the batch's open execute stage.  Batch items run concurrently, so
// their spans cannot use the sequential stage Start/End discipline; each
// item times itself and is recorded here from the serialized completion
// callback (see core.RunBatch), which keeps the trace's span stack
// single-writer.
func (ro *reqObs) recordItemSpan(index int, start time.Time, d time.Duration, errored bool) {
	if ro == nil || ro.tr == nil {
		return
	}
	attrs := []obs.Attr{{Key: "index", Val: index}}
	if errored {
		attrs = append(attrs, obs.Attr{Key: "error", Val: true})
	}
	ro.tr.RecordSpan("item", start, d, attrs...)
}

// traceData returns the finished span tree when the client asked for it,
// nil otherwise (server-side-only traces stay out of responses).
func (ro *reqObs) traceData() *obs.TraceData {
	if ro == nil || !ro.wantTrace {
		return nil
	}
	return ro.tr.Finish()
}

// runLabeled runs f under pprof labels (endpoint, domain, shape) when
// profiling labels are enabled, so CPU profiles attribute execution
// samples to what was being served.
func (ro *reqObs) runLabeled(ctx context.Context, f func(context.Context)) {
	if ro == nil || !ro.o.labels {
		f(ctx)
		return
	}
	pprof.Do(ctx, pprof.Labels(
		"endpoint", ro.endpoint, "domain", ro.domain, "shape", ro.shape), f)
}

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format: the registered families plus the bounded per-shape table.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.obs.reg.WritePrometheus(w)
	s.obs.shapes.WritePrometheus(w, shapeTopK)
}
