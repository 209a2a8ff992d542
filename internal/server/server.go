// Server is the faqd HTTP front end over a shared engine runtime: the
// network half of the paper's "questions asked frequently" workload.
// Every /v1/query request is parsed with internal/spec, routed by its
// declared value domain to the engine handle of the matching value type
// (all handles share one runtime via core.Retype, so every domain shares
// the plan LRU), resolved to a PreparedQuery through the shape-keyed plan
// cache (same-shape concurrent requests share one plan, and a cold shape
// is planned exactly once under a thundering herd — see engineRT.planFor),
// and executed under the request's context: the run observes the
// timeout_ms deadline and client disconnects at block boundaries, so
// abandoned queries stop consuming the pool.
//
// Fresh factor data arrives either as JSON ("factors" in the request body)
// or as the internal/wire binary framing (Content-Type:
// application/x-faq-factors), which decodes straight into the flat row
// blocks factors store natively.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"github.com/faqdb/faq/internal/core"
	"github.com/faqdb/faq/internal/factor"
	"github.com/faqdb/faq/internal/join"
	"github.com/faqdb/faq/internal/sortx"
	"github.com/faqdb/faq/internal/spec"
	"github.com/faqdb/faq/internal/store"
	"github.com/faqdb/faq/internal/wire"
)

// Config tunes a Server.  The zero value serves with GOMAXPROCS workers,
// the default plan cache and planner, a 30s default query deadline and a
// 16 MiB request-body cap.
type Config struct {
	// Workers, PlanCacheSize and Planner configure the shared engine (see
	// core.EngineOptions).
	Workers       int
	PlanCacheSize int
	Planner       string
	// DefaultTimeout bounds queries that carry no timeout_ms; <= 0 means
	// defaultQueryTimeout.  MaxTimeout clamps client-requested deadlines;
	// <= 0 means no clamp.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxBodyBytes caps /v1/query request bodies; <= 0 means
	// defaultMaxBodyBytes.
	MaxBodyBytes int64
	// MaxInflight bounds concurrent /v1/query runs (connection-level
	// backpressure): beyond the bound the server answers 429 with a
	// Retry-After hint instead of queueing work onto a saturated engine
	// pool.  <= 0 means unbounded.
	MaxInflight int
	// MaxSessions bounds the /v1/delta session registry: beyond it the
	// least recently used session's evolving state is dropped (a later
	// request for it re-seeds from its spec).  <= 0 means
	// defaultMaxSessions.  The resident dataset-query registry shares the
	// same bound.
	MaxSessions int
	// DataDir names the dataset directory: uploads under
	// PUT /v1/datasets/{name} persist there and are memory-mapped back on
	// restart.  Empty disables the dataset endpoints (they answer 503).
	DataDir string
	// SlowQueryLog receives the structured slow-query log as JSON lines;
	// nil disables slow-query logging.  SlowQuery is the wall-time
	// threshold at or above which a /v1/query or /v1/delta request is
	// logged — 0 logs every request (useful for smoke tests and short
	// captures).
	SlowQueryLog io.Writer
	SlowQuery    time.Duration
	// ProfileLabels attaches pprof labels (endpoint, domain, shape) around
	// query execution, so CPU profiles attribute samples to what was being
	// served.  faqd enables it with -debug-addr.
	ProfileLabels bool
}

const (
	defaultQueryTimeout = 30 * time.Second
	defaultMaxBodyBytes = 16 << 20
)

// Server serves the faqd API over one engine runtime.  Create with New,
// expose with Handler, stop with Close after the HTTP server has drained
// (Close stops the engine pool, so it must not race in-flight runs).
type Server struct {
	cfg Config
	// eng is the float64 handle; engInt and engBool are core.Retype
	// handles onto the same runtime (tropical shares eng's value type).
	// One plan LRU, one pool, one stats block serve every domain.
	eng      *core.Engine[float64]
	engInt   *core.Engine[int64]
	engBool  *core.Engine[bool]
	mux      *http.ServeMux
	m        metrics
	sem      chan struct{} // query-run slots; nil when MaxInflight <= 0
	sessions *sessionRegistry
	store    *store.Store // nil without Config.DataDir
	resident *residentRegistry
	obs      *serverObs
}

// Validate checks the engine-facing configuration.  New calls it; command
// front ends (faqd) call it at flag-parse time for a usage-style exit.
func (c Config) Validate() error {
	switch c.Planner {
	case "", "auto", "exact", "greedy", "approx", "expression":
	default:
		return fmt.Errorf("unknown planner %q (want auto, exact, greedy, approx or expression)", c.Planner)
	}
	if c.Workers < 0 {
		return fmt.Errorf("workers must be >= 0 (0 = GOMAXPROCS, 1 = sequential), got %d", c.Workers)
	}
	if c.MaxInflight < 0 {
		return fmt.Errorf("max-inflight must be >= 0 (0 = unbounded), got %d", c.MaxInflight)
	}
	return nil
}

// New builds a server and its engine.  Config mistakes surface here, not
// as per-request 400s blamed on clients.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = defaultQueryTimeout
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = defaultMaxBodyBytes
	}
	s := &Server{
		cfg: cfg,
		eng: core.NewEngine[float64](core.EngineOptions{
			Workers:       cfg.Workers,
			PlanCacheSize: cfg.PlanCacheSize,
			Planner:       cfg.Planner,
		}),
		mux: http.NewServeMux(),
	}
	s.engInt = core.Retype[int64](s.eng)
	s.engBool = core.Retype[bool](s.eng)
	if cfg.MaxInflight > 0 {
		s.sem = make(chan struct{}, cfg.MaxInflight)
	}
	s.sessions = newSessionRegistry(cfg.MaxSessions)
	s.resident = newResidentRegistry(cfg.MaxSessions)
	if cfg.DataDir != "" {
		st, err := store.OpenDir(cfg.DataDir)
		if err != nil {
			s.eng.Close()
			return nil, fmt.Errorf("server: opening dataset store: %w", err)
		}
		s.store = st
	}
	s.m.start = time.Now()
	s.obs = newServerObs(s)
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/delta", s.handleDelta)
	s.mux.HandleFunc("GET /v1/plan", s.handlePlan)
	s.mux.HandleFunc("POST /v1/plan", s.handlePlan)
	s.mux.HandleFunc("PUT /v1/datasets/{name}", s.handleDatasetPut)
	s.mux.HandleFunc("GET /v1/datasets/{name}", s.handleDatasetGet)
	s.mux.HandleFunc("DELETE /v1/datasets/{name}", s.handleDatasetDelete)
	s.mux.HandleFunc("GET /v1/datasets", s.handleDatasetList)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// Engine exposes the underlying float64 engine handle (the faqd process
// shares it between the HTTP front end and any embedded instrumentation;
// its stats are runtime-wide, covering every domain).
func (s *Server) Engine() *core.Engine[float64] { return s.eng }

// Close stops the engine's persistent workers, drops resident prepared
// queries and unmaps the dataset store.  Call after the HTTP server has
// shut down gracefully: http.Server.Shutdown drains in-flight handlers,
// and every run belongs to some handler.
func (s *Server) Close() {
	s.eng.Close()
	s.resident.purgeAll()
	if s.store != nil {
		s.store.Close()
	}
}

// Handler returns the root handler: the API mux wrapped in the metrics
// and observability middleware.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.m.requests.Add(1)
		if !isMonitoringPath(r.URL.Path) {
			s.m.inFlight.Add(1)
			defer s.m.inFlight.Add(-1)
		}
		// Per-endpoint request counters move on arrival, like requests: a
		// streamed response reaches the client before the handler returns,
		// so a count taken afterwards could lag a response already read.
		var endpoint *atomic.Int64
		if r.Method == http.MethodPost {
			switch r.URL.Path {
			case "/v1/query":
				endpoint = &s.m.queries
			case "/v1/batch":
				endpoint = &s.m.batches
			case "/v1/delta":
				endpoint = &s.m.deltas
			}
		}
		if endpoint != nil {
			endpoint.Add(1)
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		var ro *reqObs
		if ep := endpointOf(r); ep != "" {
			ro, r = s.obs.begin(r, ep)
		}
		s.mux.ServeHTTP(cw, r)
		wall := time.Since(start)
		if endpoint != nil {
			s.m.lat.observe(wall)
		}
		if cw.status() < 400 {
			s.m.ok.Add(1)
		} else {
			s.m.errs.Add(1)
		}
		if ro != nil {
			s.obs.finish(ro, cw.status(), wall)
		}
	})
}

// countingWriter records the response status for the ok/err counters.
type countingWriter struct {
	http.ResponseWriter
	wrote int
}

func (w *countingWriter) WriteHeader(code int) {
	if w.wrote == 0 {
		w.wrote = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	if w.wrote == 0 {
		w.wrote = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap exposes the underlying writer so http.ResponseController can
// reach Flush through the wrapper — the streamed batch path flushes after
// every result record.
func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *countingWriter) status() int {
	if w.wrote == 0 {
		return http.StatusOK
	}
	return w.wrote
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v) // nothing to do about a broken connection here
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeDecodeError distinguishes an oversized body or frame (413:
// actionable — shrink the factors or raise MaxBodyBytes) from a malformed
// one (400).
func writeDecodeError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		writeError(w, http.StatusRequestEntityTooLarge,
			"request body exceeds the %d-byte limit", tooBig.Limit)
	case errors.Is(err, wire.ErrTooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, "%v", err)
	default:
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
}

// statusClientClosedRequest is the nginx convention for "the client went
// away before we could answer"; no standard code fits.
const statusClientClosedRequest = 499

// maxTimeoutMS bounds client-supplied timeout_ms before the Duration
// multiply: a larger value would overflow int64 nanoseconds to a negative
// duration, expire instantly and dodge the MaxTimeout clamp.
const maxTimeoutMS = int64(24 * time.Hour / time.Millisecond)

// queryTimeout resolves a client's timeout_ms against the server default
// and the operator's MaxTimeout clamp.
func (s *Server) queryTimeout(timeoutMS int64) time.Duration {
	timeout := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(min(timeoutMS, maxTimeoutMS)) * time.Millisecond
	}
	if s.cfg.MaxTimeout > 0 && timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	return timeout
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Statsz())
}

// Statsz assembles the /statsz snapshot: engine counters (atomic, untorn)
// plus the server-level metrics.
func (s *Server) Statsz() StatszResponse {
	es := s.eng.Stats()
	sv := s.m.snapshot()
	sv.DeltaSessions = int64(s.sessions.len())
	var st *StoreStatz
	if s.store != nil {
		st = &StoreStatz{
			Datasets:         int64(s.store.Len()),
			BytesMapped:      s.store.BytesMapped(),
			ChecksumFailures: s.store.ChecksumFailures(),
			DatasetQueries:   s.m.datasetQ.Load(),
			ResidentPrepared: int64(s.resident.len()),
			LoadErrors:       int64(len(s.store.LoadErrors())),
		}
	}
	splitScans, splitCache, splitKeys := join.SplitStats()
	return StatszResponse{
		Store:         st,
		UptimeSeconds: time.Since(s.m.start).Seconds(),
		Sort: SortStatz{
			RadixSorts:       sortx.RadixSorts(),
			ComparisonSorts:  sortx.ComparisonSorts(),
			ParallelScans:    splitScans,
			CacheAwareSplits: splitCache,
			LastBlockKeys:    splitKeys,
		},
		Engine: EngineStatz{
			Prepared:        es.Prepared,
			PlanCacheHits:   es.PlanCacheHits,
			PlanCacheMisses: es.PlanCacheMisses,
			PlanCoalesced:   es.PlanCoalesced,
			PlansCached:     es.PlansCached,
			Runs:            es.Runs,
			RunsCancelled:   es.RunsCancelled,

			DeltasApplied:   es.DeltasApplied,
			DeltaRingRuns:   es.DeltaRingRuns,
			DeltaBlockRuns:  es.DeltaBlockRuns,
			DeltaRecomputes: es.DeltaRecomputes,

			TrieCacheHits:          es.TrieCacheHits,
			TrieCacheMisses:        es.TrieCacheMisses,
			TrieCacheInvalidations: es.TrieCacheInvalidations,
			TrieCacheEvictions:     es.TrieCacheEvictions,
		},
		Server: sv,
	}
}

// acquireRunSlot claims a query-run slot without blocking; it reports false
// when the server is at MaxInflight.  A nil semaphore always admits.
func (s *Server) acquireRunSlot() bool {
	if s.sem == nil {
		return true
	}
	select {
	case s.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

func (s *Server) releaseRunSlot() {
	if s.sem != nil {
		<-s.sem
	}
}

// retryAfterSeconds is the backpressure hint sent with 429 responses: the
// window p50 query latency rounded up, at least one second — roughly when a
// run slot should free up.
func (s *Server) retryAfterSeconds() int {
	qs, _, _ := s.m.lat.quantiles(0.50)
	if sec := int((qs[0] + time.Second - 1) / time.Second); sec > 1 {
		return sec
	}
	return 1
}

// maxStreamHeaderBytes bounds the JSON envelope of a binary request; the
// spec text lives there, so it shares the request-body scale, not the
// frame scale.
const maxStreamHeaderBytes = 4 << 20

// decodeQueryRequest reads the request body in either encoding: a plain
// JSON QueryRequest, or — under Content-Type application/x-faq-factors — a
// wire stream whose envelope header is the QueryRequest JSON (without
// "factors") and whose frames carry the factor data.  The binary flag
// feeds the queries_binary counter.
func (s *Server) decodeQueryRequest(w http.ResponseWriter, r *http.Request) (req QueryRequest, frames []*wire.Frame, binary bool, err error) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	ct := r.Header.Get("Content-Type")
	if mt, _, mtErr := mime.ParseMediaType(ct); mtErr == nil && mt == wire.ContentType {
		dec := wire.NewDecoder(body)
		dec.SetMaxFrameBytes(int(min(s.cfg.MaxBodyBytes, int64(wire.DefaultMaxFrameBytes))))
		header, n, hErr := dec.ReadStreamHeader(maxStreamHeaderBytes)
		if hErr != nil {
			return req, nil, true, hErr
		}
		jdec := json.NewDecoder(strings.NewReader(string(header)))
		jdec.DisallowUnknownFields()
		if jErr := jdec.Decode(&req); jErr != nil {
			return req, nil, true, fmt.Errorf("stream header: %w", jErr)
		}
		if req.Factors != nil {
			return req, nil, true, errors.New(`binary requests carry factors as frames, not as JSON "factors"`)
		}
		// Grow the slice as frames actually arrive: n is attacker-chosen,
		// and preallocating by it would let a few header bytes demand a
		// huge slice.  A missing frame surfaces as truncation below.
		frames = make([]*wire.Frame, 0, min(n, 1024))
		for i := 0; i < n; i++ {
			f, fErr := dec.Decode()
			if fErr != nil {
				return req, nil, true, fmt.Errorf("factor frame %d of %d: %w", i, n, fErr)
			}
			frames = append(frames, f)
		}
		// A frame count that undersells the body would silently drop data.
		if _, tErr := dec.Decode(); tErr != io.EOF {
			return req, nil, true, fmt.Errorf("stream declares %d frames but carries more", n)
		}
		return req, frames, true, nil
	}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err = dec.Decode(&req)
	return req, nil, false, err
}

// domainCodec binds one value domain's serving pieces: its spec builder,
// wire code, JSON value conversion and response encoding.  The four
// instances below are what handleQuery dispatches on.
type domainCodec[V any] struct {
	name     string
	wireDom  wire.Domain
	build    func(*spec.Document, ...spec.Resolver[V]) (*core.Query[V], [][]int, error)
	fromJSON func(float64) (V, error)
	frameCol func(*wire.Frame) []V
	// storeCol reads one stored factor's value column from a mapped dataset
	// (the zero-copy feed for datasetResolver).
	storeCol func(*store.Dataset, int) []V
	// encode and encodeColumn render response values.  They exist for the
	// float domains: JSON has no Inf or NaN, so non-finite float64 values
	// — the tropical additive identity +Inf in particular — travel as the
	// strings "inf", "-inf", "nan" (the spec text vocabulary), which the
	// client accessors parse back exactly.
	encode       func(V) any
	encodeColumn func([]V) any
}

// encodeFloat renders a float64 response value; non-finite values become
// their spec-text string forms (json.Marshal rejects them as numbers).
func encodeFloat(v float64) any {
	switch {
	case math.IsInf(v, 1):
		return "inf"
	case math.IsInf(v, -1):
		return "-inf"
	case math.IsNaN(v):
		return "nan"
	}
	return v
}

// encodeFloatColumn keeps the raw slice when every value is finite (the
// common case, marshaled identically) and falls back to element-wise
// encoding otherwise.
func encodeFloatColumn(vs []float64) any {
	for i, v := range vs {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			out := make([]any, len(vs))
			for j, w := range vs[:i] {
				out[j] = w
			}
			for j := i; j < len(vs); j++ {
				out[j] = encodeFloat(vs[j])
			}
			return out
		}
	}
	return vs
}

func identityEncode[V any](v V) any    { return v }
func identityColumn[V any](vs []V) any { return vs }
func jsonToInt(v float64) (int64, error) {
	if v != math.Trunc(v) || math.Abs(v) > 1<<53 {
		return 0, fmt.Errorf("value %v is not an exact int64 (ship int factors in the binary encoding for full precision)", v)
	}
	return int64(v), nil
}

func jsonToBool(v float64) (bool, error) {
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	}
	return false, fmt.Errorf("value %v is not a bool (want 0 or 1)", v)
}

var (
	floatCodec = domainCodec[float64]{
		name: spec.DomainFloat, wireDom: wire.DomainFloat,
		build:    (*spec.Document).BuildFloat,
		fromJSON: func(v float64) (float64, error) { return v, nil },
		frameCol: func(f *wire.Frame) []float64 { return f.Floats },
		storeCol: (*store.Dataset).Floats,
		encode:   encodeFloat, encodeColumn: encodeFloatColumn,
	}
	tropicalCodec = domainCodec[float64]{
		name: spec.DomainTropical, wireDom: wire.DomainTropical,
		build:    (*spec.Document).BuildTropical,
		fromJSON: func(v float64) (float64, error) { return v, nil },
		frameCol: func(f *wire.Frame) []float64 { return f.Floats },
		storeCol: (*store.Dataset).Floats,
		encode:   encodeFloat, encodeColumn: encodeFloatColumn,
	}
	intCodec = domainCodec[int64]{
		name: spec.DomainInt, wireDom: wire.DomainInt,
		build:    (*spec.Document).BuildInt,
		fromJSON: jsonToInt,
		frameCol: func(f *wire.Frame) []int64 { return f.Ints },
		storeCol: (*store.Dataset).Ints,
		encode:   identityEncode[int64], encodeColumn: identityColumn[int64],
	}
	boolCodec = domainCodec[bool]{
		name: spec.DomainBool, wireDom: wire.DomainBool,
		build:    (*spec.Document).BuildBool,
		fromJSON: jsonToBool,
		frameCol: func(f *wire.Frame) []bool { return f.Bools },
		storeCol: (*store.Dataset).Bools,
		encode:   identityEncode[bool], encodeColumn: identityColumn[bool],
	}
)

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	ro := reqObsFrom(r.Context())
	endParse := ro.stage(stageParse)
	defer endParse() // idempotent; covers the early error returns
	req, frames, binary, err := s.decodeQueryRequest(w, r)
	if err != nil {
		writeDecodeError(w, err)
		return
	}
	if binary {
		s.m.binary.Add(1)
	}
	if strings.TrimSpace(req.Spec) == "" {
		writeError(w, http.StatusBadRequest, "empty spec")
		return
	}
	if req.Workers < 0 {
		writeError(w, http.StatusBadRequest, "workers must be >= 0, got %d", req.Workers)
		return
	}
	doc, err := spec.ParseDocument(strings.NewReader(req.Spec))
	endParse()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Per-domain dispatch: each branch runs the same generic pipeline
	// against the engine handle of its value type.  All handles share one
	// runtime (plan LRU, pool, stats) via core.Retype, so an int request
	// for a shape the float path already planned is a cache hit.
	switch doc.Domain {
	case spec.DomainFloat:
		serveDomain(s, w, r, start, &req, doc, frames, s.eng, floatCodec)
	case spec.DomainInt:
		serveDomain(s, w, r, start, &req, doc, frames, s.engInt, intCodec)
	case spec.DomainBool:
		serveDomain(s, w, r, start, &req, doc, frames, s.engBool, boolCodec)
	case spec.DomainTropical:
		serveDomain(s, w, r, start, &req, doc, frames, s.eng, tropicalCodec)
	default:
		writeError(w, http.StatusBadRequest, "unsupported spec domain %q", doc.Domain)
	}
}

// serveDomain is the domain-generic tail of handleQuery: build the typed
// query, decode fresh factors (JSON or frames), run under the request
// context and the MaxInflight bound, and write the typed response.
func serveDomain[V any](s *Server, w http.ResponseWriter, r *http.Request, start time.Time,
	req *QueryRequest, doc *spec.Document, frames []*wire.Frame,
	eng *core.Engine[V], cv domainCodec[V]) {

	if doc.Dataset != "" {
		// A dataset spec runs against resident mapped factors: fresh factor
		// data in the same request would be ambiguous (which source wins?),
		// so it is rejected outright.
		if frames != nil || req.Factors != nil {
			writeError(w, http.StatusBadRequest,
				"spec uses dataset %q: drop the shipped factors (resident factors serve this query)", doc.Dataset)
			return
		}
		serveDatasetQuery(s, w, r, start, req, doc, eng, cv)
		return
	}

	ro := reqObsFrom(r.Context())
	endResolve := ro.stage(stageResolve)
	defer endResolve()
	q, layout, err := cv.build(doc)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Decode fresh factor data before claiming a run slot: body I/O and
	// decoding work are client-paced and must not pin the concurrency
	// bound.
	var factors []*factor.Factor[V]
	switch {
	case frames != nil:
		if factors, err = buildFactorsWire(q, layout, frames, cv); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	case req.Factors != nil:
		if factors, err = buildFactorsJSON(q, layout, req.Factors, cv); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	endResolve()

	// The run's context: cancelled when the client disconnects, bounded by
	// the request deadline (clamped to the server maximum).
	ctx, cancel := context.WithTimeout(r.Context(), s.queryTimeout(req.TimeoutMS))
	defer cancel()

	opts := core.DefaultOptions()
	opts.Workers = req.Workers

	// The run slot covers exactly the engine work — prepare through run —
	// not request decoding above or response encoding below, so MaxInflight
	// bounds concurrent runs, and a slow client can't starve the bound.
	if !s.acquireRunSlot() {
		s.m.rejected.Add(1)
		w.Header().Set("Retry-After", fmt.Sprintf("%d", s.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests,
			"server is at its %d-run concurrency bound, retry later", s.cfg.MaxInflight)
		return
	}
	var prep *core.PreparedQuery[V]
	var res *core.Result[V]
	err = func() (err error) {
		// Deferred so a panicking run (recovered by net/http) cannot leak
		// the slot and wedge the bound shut.
		defer s.releaseRunSlot()
		endPrep := ro.stage(stagePrepare)
		prep, err = eng.PrepareCtx(ctx, q, opts)
		endPrep()
		if err != nil {
			return err
		}
		ro.setQuery(cv.name, "", prep.ShapeKey())
		endExec := ro.stage(stageExecute)
		defer endExec()
		ro.runLabeled(ctx, func(ctx context.Context) {
			if factors != nil {
				res, err = prep.RunWithFactors(ctx, factors)
			} else {
				res, err = prep.Run(ctx)
			}
		})
		return err
	}()
	if err != nil {
		s.writeRunError(w, ctx, err)
		return
	}
	s.m.countDomain(cv.name)
	endEncode := ro.stage(stageEncode)
	if acceptsMediaType(r, wire.ContentType) {
		// Binary response negotiation: the free-variable output travels as
		// one factor frame instead of JSON rows (see
		// encodeBinaryQueryResponse), closing the PR 5 wire asymmetry.
		s.m.binaryResp.Add(1)
		stream, encErr := encodeBinaryQueryResponse(cv, q, prep, res, start, ro.traceData())
		endEncode()
		if encErr != nil {
			writeError(w, http.StatusInternalServerError, "encoding binary response: %v", encErr)
			return
		}
		w.Header().Set("Content-Type", wire.ContentType)
		w.Write(stream) // nothing to do about a broken connection here
		return
	}
	resp := encodeQueryResponse(cv, q, prep, res, start)
	endEncode()
	resp.Trace = ro.traceData()
	writeJSON(w, http.StatusOK, resp)
}

// acceptsMediaType reports whether the request's Accept header names the
// given media type exactly.  Parameters are ignored and wildcards do not
// match: the binary response encodings are strictly opt-in, so a plain
// */* keeps meaning JSON.
func acceptsMediaType(r *http.Request, mediaType string) bool {
	for _, hdr := range r.Header.Values("Accept") {
		for _, part := range strings.Split(hdr, ",") {
			if mt, _, err := mime.ParseMediaType(strings.TrimSpace(part)); err == nil && mt == mediaType {
				return true
			}
		}
	}
	return false
}

// encodeQueryResponse renders a completed run as the /v1/query response
// body; shared by the fresh-data path and the resident dataset path.
func encodeQueryResponse[V any](cv domainCodec[V], q *core.Query[V],
	prep *core.PreparedQuery[V], res *core.Result[V], start time.Time) *QueryResponse {

	resp := &QueryResponse{
		Domain: cv.name,
		Plan:   planSummary(prep.Plan(), q.VarName),
		Stats: RunStats{
			Eliminations:     res.Stats.Eliminations,
			IntermediateRows: res.Stats.IntermediateRows,
			MaxIntermediate:  res.Stats.MaxIntermediate,
			JoinProbes:       res.Stats.Join.Probes,
		},
		ElapsedMS: durationMS(time.Since(start)),
	}
	if q.NumFree == 0 {
		resp.Value = cv.encode(res.Scalar())
	} else {
		tuples := res.Output.Tuples()
		if tuples == nil {
			tuples = [][]int{} // an empty output is [], not null
		}
		values := res.Output.Values
		if values == nil {
			values = []V{}
		}
		out := &OutputData{Tuples: tuples, Values: cv.encodeColumn(values)}
		for _, v := range res.Output.Vars {
			out.Vars = append(out.Vars, q.VarName(v))
		}
		resp.Output = out
	}
	return resp
}

// writeRunError maps a prepare/run failure to a status: deadline → 504,
// client disconnect → 499, a planner that died serving someone's in-flight
// prepare → 500 (server bug, not this client's query), anything else is a
// bad query → 400.
func (s *Server) writeRunError(w http.ResponseWriter, ctx context.Context, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "query deadline exceeded")
	case errors.Is(err, context.Canceled) && ctx.Err() != nil:
		writeError(w, statusClientClosedRequest, "client closed request")
	case errors.Is(err, core.ErrPlannerPanic):
		writeError(w, http.StatusInternalServerError, "%v", err)
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

// declPerm returns the permutation from a factor block's declaration-order
// columns to the sorted storage order, and whether it is the identity.
func declPerm(decl []int) (perm []int, identity bool) {
	perm = make([]int, len(decl))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return decl[perm[a]] < decl[perm[b]] })
	identity = true
	for i, p := range perm {
		if p != i {
			identity = false
			break
		}
	}
	return perm, identity
}

// buildFactorsJSON turns the request's JSON factor data into factors with
// the spec query's variable scopes — the same-shape contract
// RunWithFactors enforces.  Request tuple columns are in the spec factor
// block's *declaration* order (the same column order as the spec's own
// data lines); they are permuted here to the sorted order factors store,
// exactly as the spec parser permutes inline data, so a client can ship
// fresh data in the layout of its own spec without silent transposition.
func buildFactorsJSON[V any](q *core.Query[V], layout [][]int, data []FactorData,
	cv domainCodec[V]) ([]*factor.Factor[V], error) {

	if len(data) != len(q.Factors) {
		return nil, fmt.Errorf("request has %d factors, spec declares %d", len(data), len(q.Factors))
	}
	factors := make([]*factor.Factor[V], len(data))
	for i, fd := range data {
		decl := layout[i]
		perm, _ := declPerm(decl)
		// Decode straight into the factor's flat row block — the fresh-data
		// path ships whole relations per request, so skipping the [][]int
		// intermediate is a measurable slice of triangle-fresh latency.
		rows := make([]int32, 0, len(fd.Tuples)*len(decl))
		for _, tup := range fd.Tuples {
			if len(tup) != len(decl) {
				return nil, fmt.Errorf("factor %d: tuple %v has arity %d, want %d", i, tup, len(tup), len(decl))
			}
			for _, p := range perm {
				if tup[p] < math.MinInt32 || tup[p] > math.MaxInt32 {
					return nil, fmt.Errorf("factor %d: tuple %v exceeds the int32 domain-value range", i, tup)
				}
				rows = append(rows, int32(tup[p]))
			}
		}
		values := make([]V, len(fd.Values))
		for j, raw := range fd.Values {
			v, err := cv.fromJSON(raw)
			if err != nil {
				return nil, fmt.Errorf("factor %d value %d: %v", i, j, err)
			}
			values[j] = v
		}
		f, err := factor.NewRows(q.D, q.Factors[i].Vars, rows, values, nil)
		if err != nil {
			return nil, fmt.Errorf("factor %d: %v", i, err)
		}
		factors[i] = f
	}
	return factors, nil
}

// buildFactorsWire is buildFactorsJSON for binary frames: the frame's row
// block and value column feed factor.NewRows directly — when the spec
// declared the block's variables in sorted order (the common case) both
// columns are adopted without copying.
func buildFactorsWire[V any](q *core.Query[V], layout [][]int, frames []*wire.Frame,
	cv domainCodec[V]) ([]*factor.Factor[V], error) {

	if len(frames) != len(q.Factors) {
		return nil, fmt.Errorf("request has %d factor frames, spec declares %d", len(frames), len(q.Factors))
	}
	factors := make([]*factor.Factor[V], len(frames))
	for i, fr := range frames {
		decl := layout[i]
		if fr.Domain != cv.wireDom {
			return nil, fmt.Errorf("factor frame %d carries domain %v, spec declares %s",
				i, fr.Domain, cv.name)
		}
		if fr.Arity != len(decl) {
			return nil, fmt.Errorf("factor frame %d has arity %d, spec factor has %d",
				i, fr.Arity, len(decl))
		}
		rows := fr.Rows
		if perm, identity := declPerm(decl); !identity {
			// The spec declared this block's columns out of sorted order:
			// permute each row, exactly as the spec parser does for the
			// block's own data lines.
			k := len(decl)
			rows = make([]int32, len(fr.Rows))
			for r := 0; r < fr.NumRows(); r++ {
				src := fr.Rows[r*k : r*k+k]
				dst := rows[r*k : r*k+k]
				for j, p := range perm {
					dst[j] = src[p]
				}
			}
		}
		f, err := factor.NewRows(q.D, q.Factors[i].Vars, rows, cv.frameCol(fr), nil)
		if err != nil {
			return nil, fmt.Errorf("factor frame %d: %v", i, err)
		}
		factors[i] = f
	}
	return factors, nil
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var shape *core.Shape
	var name func(int) string
	var timeoutMS int64
	switch {
	case r.Method == http.MethodGet && r.URL.Query().Get("example") != "":
		var err error
		shape, name, err = BuiltinExample(r.URL.Query().Get("example"))
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	case r.Method == http.MethodPost:
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
		dec.DisallowUnknownFields()
		var req QueryRequest
		if err := dec.Decode(&req); err != nil {
			writeDecodeError(w, err)
			return
		}
		var err error
		shape, name, err = planShape(req.Spec)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		timeoutMS = req.TimeoutMS
	default:
		writeError(w, http.StatusBadRequest,
			"plan wants GET ?example=<name> or POST {\"spec\": ...}")
		return
	}
	// Like /v1/query, the report honors the request's timeout_ms (and the
	// operator's clamp) and is cancelled when the client disconnects: the
	// exact DP inside is the one exponential stage a wide shape could wedge
	// the daemon on.
	ctx, cancel := context.WithTimeout(r.Context(), s.queryTimeout(timeoutMS))
	defer cancel()
	rep, err := BuildPlanReport(ctx, shape, name)
	if err != nil {
		s.writeRunError(w, ctx, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// planShape resolves a spec of any domain to its untyped shape: plans are
// domain-independent, so /v1/plan serves every domain through one path.
func planShape(specText string) (*core.Shape, func(int) string, error) {
	doc, err := spec.ParseDocument(strings.NewReader(specText))
	if err != nil {
		return nil, nil, err
	}
	switch doc.Domain {
	case spec.DomainInt:
		return shapeOf(doc, intCodec.build)
	case spec.DomainBool:
		return shapeOf(doc, boolCodec.build)
	case spec.DomainTropical:
		return shapeOf(doc, tropicalCodec.build)
	default:
		return shapeOf(doc, floatCodec.build)
	}
}

// shapeOf builds the typed query just long enough to extract its untyped
// shape and name table.  Dataset references resolve through the stub
// resolver: a plan needs variable scopes, not factor data.
func shapeOf[V any](doc *spec.Document, build func(*spec.Document, ...spec.Resolver[V]) (*core.Query[V], [][]int, error)) (*core.Shape, func(int) string, error) {
	q, _, err := build(doc, spec.StubResolver[V]())
	if err != nil {
		return nil, nil, err
	}
	return q.Shape(), q.VarName, nil
}
