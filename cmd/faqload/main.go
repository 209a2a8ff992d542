// faqload is the load generator and serving benchmark for faqd: it drives
// shapes × concurrency × duration against a running daemon and reports a
// throughput/latency table plus the server's plan-cache counters, so the
// amortization claim of the serving story — same-shape requests hit one
// cached plan — is measurable from outside the process.
//
// Usage:
//
//	faqload -addr http://127.0.0.1:8080 [-shapes triangle,triangle-fresh,star,chain]
//	        [-concurrency 8] [-duration 3s] [-dom 48] [-wire json|binary|both]
//	        [-json BENCH_PR3.json] [-trace]
//	faqload -addr ... -smoke     # healthz + one verified query, then exit
//	faqload -addr ... -smoke-obs [-slow-log path]   # observability gate
//
// -trace attaches a server-side stage breakdown (one traced probe query
// per shape, milliseconds per pipeline stage) to each report row.
// -smoke-obs runs traced triangle and triangle-dataset queries (the
// daemon needs -data), requires their span trees to account for wall
// time within 10%, asserts /metrics parses as Prometheus text with the
// stage histograms and shape table, and — given -slow-log — that the
// daemon's slow-query log holds valid JSON entries.
//
// Shapes: triangle, triangle-fresh (same spec, fresh factor data per
// request), star, chain, triangle-int (the int domain), triangle-tropical
// (the tropical min-plus domain), triangle-delta (per-client /v1/delta
// sessions cycling insert/delete batches that return to baseline),
// triangle-dataset (the triangle data uploaded once as a named dataset,
// then queried by name with zero factor bytes on the wire — needs a
// daemon started with -data).  -wire
// selects the encoding of fresh factor or delta data: json (the default),
// binary (the internal/wire framing), or both — which drives each
// data-shipping shape twice and labels the binary row "<shape>+bin", the
// comparison behind make bench-wire and make bench-delta.  -batch N
// additionally re-drives every query shape as /v1/batch requests of N
// items (labelled "<shape>+batchN"; binary shapes ship the batch
// envelope and stream binary result records), each item verified against
// the same oracle — the same-run A/B behind make bench-batch.
//
// Every response is verified against a local single-threaded engine run of
// the same spec, so a load run is also a correctness run.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/faqdb/faq/internal/core"
	"github.com/faqdb/faq/internal/factor"
	"github.com/faqdb/faq/internal/obs"
	"github.com/faqdb/faq/internal/server"
	"github.com/faqdb/faq/internal/spec"
	"github.com/faqdb/faq/internal/wire"
)

type config struct {
	addr         string
	shapes       string
	concurrency  int
	duration     time.Duration
	dom          int
	wire         string
	batch        int
	jsonOut      string
	smoke        bool
	smokeDataset string
	smokeObs     bool
	slowLogPath  string
	trace        bool
	wait         time.Duration
}

func (c config) validate() error {
	if c.addr == "" {
		return fmt.Errorf("missing required -addr")
	}
	if c.concurrency < 1 {
		return fmt.Errorf("-concurrency must be >= 1, got %d", c.concurrency)
	}
	if c.duration <= 0 {
		return fmt.Errorf("-duration must be > 0, got %v", c.duration)
	}
	if c.dom < 4 {
		return fmt.Errorf("-dom must be >= 4, got %d", c.dom)
	}
	switch c.wire {
	case "json", "binary", "both":
	default:
		return fmt.Errorf("-wire must be json, binary or both, got %q", c.wire)
	}
	if c.batch < 0 {
		return fmt.Errorf("-batch must be >= 0, got %d", c.batch)
	}
	switch c.smokeDataset {
	case "", "put", "cold":
	default:
		return fmt.Errorf("-smoke-dataset must be put or cold, got %q", c.smokeDataset)
	}
	return nil
}

// workload is one named drive target: a fixed spec (the plan-cache key
// under load), an optional per-request factor refresh with its encoding,
// and a verifier holding every response to the local oracle.
type workload struct {
	name    string
	spec    string
	factors []server.FactorData // nil: run the spec's own data
	binary  bool                // ship factors/deltas as wire frames, not JSON
	wireDom wire.Domain         // frame domain when binary
	verify  func(*server.QueryResponse) error
	// setup runs once before the drive — dataset workloads upload their
	// factors here, so the drive itself ships zero factor bytes.
	setup func(ctx context.Context, client *server.Client) error
	// Delta workloads drive /v1/delta instead of /v1/query: each client
	// owns a session and cycles through steps, verifying the maintained
	// output row for row at every one.  seedVerify checks the session's
	// freshly seeded state before the cycle starts.
	steps      []deltaStep
	seedVerify func(*server.DeltaResponse) error
}

// deltaStep is one step of a delta workload's cycle: the batch in both
// encodings, plus the expected maintained output (precomputed by a local
// single-threaded recompute of the state the step produces).
type deltaStep struct {
	deltas []server.DeltaData
	frames []*wire.DeltaFrame
	verify func(*server.DeltaResponse) error
}

// shapeResult is one row of the throughput/latency table; the JSON form
// feeds the BENCH_PR*.json reports.
type shapeResult struct {
	Shape       string  `json:"shape"`
	Wire        string  `json:"wire"`
	Concurrency int     `json:"concurrency"`
	DurationSec float64 `json:"duration_sec"`
	Requests    int64   `json:"requests"`
	Errors      int64   `json:"errors"`
	RPS         float64 `json:"rps"`
	P50MS       float64 `json:"p50_ms"`
	P90MS       float64 `json:"p90_ms"`
	P99MS       float64 `json:"p99_ms"`
	MaxMS       float64 `json:"max_ms"`
	// Stages is the server-side stage breakdown (milliseconds per request
	// pipeline stage) of one traced probe query, attached in -trace mode.
	Stages map[string]float64 `json:"stage_ms,omitempty"`
}

// benchReport is the BENCH_PR*.json payload.
type benchReport struct {
	Tool        string                 `json:"tool"`
	GitSHA      string                 `json:"git_sha,omitempty"`
	UnixTime    int64                  `json:"unix_time"`
	Addr        string                 `json:"addr"`
	Dom         int                    `json:"dom"`
	Results     []shapeResult          `json:"results"`
	FinalStatsz *server.StatszResponse `json:"final_statsz,omitempty"`
}

// gitSHA resolves the working tree's commit, best-effort: reports compare
// across commits, so the stamp matters, but a missing git is no reason to
// fail a load run.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "", "faqd base URL (http://host:port or host:port)")
	flag.StringVar(&cfg.shapes, "shapes", "triangle,triangle-fresh,star,chain", "comma-separated workload names")
	flag.IntVar(&cfg.concurrency, "concurrency", 8, "concurrent clients per shape")
	flag.DurationVar(&cfg.duration, "duration", 3*time.Second, "load duration per shape")
	flag.IntVar(&cfg.dom, "dom", 48, "domain size of the generated workloads")
	flag.StringVar(&cfg.wire, "wire", "json", "fresh-factor encoding: json, binary, or both (drives data shapes twice)")
	flag.IntVar(&cfg.batch, "batch", 0, "also drive each query shape as /v1/batch requests of N items (0 disables)")
	flag.StringVar(&cfg.jsonOut, "json", "", "write the benchmark report to this file")
	flag.BoolVar(&cfg.smoke, "smoke", false, "smoke mode: healthz + one verified query, then exit")
	flag.StringVar(&cfg.smokeDataset, "smoke-dataset", "", "dataset smoke mode: put (upload + verified dataset query) or cold (verify a restart-surviving dataset), then exit")
	flag.BoolVar(&cfg.smokeObs, "smoke-obs", false, "observability smoke mode: traced queries, /metrics parse, slow-log check, then exit")
	flag.StringVar(&cfg.slowLogPath, "slow-log", "", "path of the daemon's slow-query log, validated in -smoke-obs mode")
	flag.BoolVar(&cfg.trace, "trace", false, "attach a server-side stage breakdown (one traced probe per shape) to the report")
	flag.DurationVar(&cfg.wait, "wait", 10*time.Second, "how long to wait for the daemon to become healthy")
	flag.Parse()
	if err := cfg.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "faqload: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(cfg, os.Stdout); err != nil {
		log.Fatalf("faqload: %v", err)
	}
}

func run(cfg config, out *os.File) error {
	if !strings.Contains(cfg.addr, "://") {
		cfg.addr = "http://" + cfg.addr
	}
	ctx := context.Background()
	client := server.NewClient(cfg.addr)
	// http.DefaultTransport keeps only 2 idle connections per host: at
	// higher concurrency most requests would pay a fresh TCP handshake and
	// the table would measure connection churn, not serving throughput.
	client.HTTPClient = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        cfg.concurrency * 2,
		MaxIdleConnsPerHost: cfg.concurrency * 2,
	}}
	if err := client.WaitHealthy(ctx, cfg.wait); err != nil {
		return err
	}

	if cfg.smokeDataset != "" {
		return smokeDataset(ctx, client, cfg, out)
	}
	if cfg.smokeObs {
		return smokeObs(ctx, client, cfg, out)
	}
	if cfg.smoke {
		return smoke(ctx, client, cfg, out)
	}

	var report benchReport
	report.Tool, report.Addr, report.Dom = "faqload", cfg.addr, cfg.dom
	report.GitSHA, report.UnixTime = gitSHA(), time.Now().Unix()
	fmt.Fprintf(out, "%-20s %6s %5s %8s %6s %9s %9s %9s %9s %9s\n",
		"shape", "wire", "conc", "reqs", "errs", "rps", "p50(ms)", "p90(ms)", "p99(ms)", "max(ms)")
	for _, name := range strings.Split(cfg.shapes, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		w, err := buildWorkload(name, cfg.dom)
		if err != nil {
			return err
		}
		if w.setup != nil {
			if err := w.setup(ctx, client); err != nil {
				return fmt.Errorf("shape %s setup: %v", name, err)
			}
		}
		for _, v := range encodings(w, cfg.wire) {
			res, err := drive(ctx, client, v, cfg)
			if err != nil {
				return err
			}
			if cfg.trace && v.steps == nil {
				if res.Stages, err = stageProbe(ctx, client, v); err != nil {
					return fmt.Errorf("shape %s trace probe: %v", v.name, err)
				}
			}
			report.Results = append(report.Results, res)
			fmt.Fprintf(out, "%-20s %6s %5d %8d %6d %9.1f %9.2f %9.2f %9.2f %9.2f\n",
				res.Shape, res.Wire, res.Concurrency, res.Requests, res.Errors, res.RPS,
				res.P50MS, res.P90MS, res.P99MS, res.MaxMS)
			if cfg.batch > 0 && v.steps == nil && v.setup == nil {
				// Same-run A/B: the same shape again as /v1/batch requests of
				// -batch items, every item verified against the oracle.  The
				// row's Requests/RPS count items, so it compares directly
				// against the single-query row above.
				bres, err := driveBatch(ctx, client, v, cfg)
				if err != nil {
					return err
				}
				report.Results = append(report.Results, bres)
				fmt.Fprintf(out, "%-20s %6s %5d %8d %6d %9.1f %9.2f %9.2f %9.2f %9.2f\n",
					bres.Shape, bres.Wire, bres.Concurrency, bres.Requests, bres.Errors, bres.RPS,
					bres.P50MS, bres.P90MS, bres.P99MS, bres.MaxMS)
			}
		}
	}

	st, err := client.Statsz(ctx)
	if err != nil {
		return err
	}
	report.FinalStatsz = st
	fmt.Fprintf(out, "statsz: plan hits %d, misses %d, coalesced %d, runs %d, binary %d, in-flight %d\n",
		st.Engine.PlanCacheHits, st.Engine.PlanCacheMisses, st.Engine.PlanCoalesced,
		st.Engine.Runs, st.Server.QueriesBinary, st.Server.InFlight)
	if st.Engine.PlanCacheHits+st.Engine.PlanCoalesced <= st.Engine.PlanCacheMisses {
		fmt.Fprintf(out, "warning: plan cache hits do not dominate misses — is something else hitting this daemon?\n")
	}

	if cfg.jsonOut != "" {
		buf, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.jsonOut, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", cfg.jsonOut)
	}
	return nil
}

// encodings expands one workload into the encoding variants -wire asks
// for.  Shapes with no fresh data have nothing to encode and run once.
func encodings(w workload, mode string) []workload {
	if w.factors == nil && w.steps == nil {
		return []workload{w}
	}
	switch mode {
	case "binary":
		w.binary = true
		return []workload{w}
	case "both":
		bin := w
		bin.name += "+bin"
		bin.binary = true
		return []workload{w, bin}
	}
	return []workload{w}
}

// smoke is the CI handshake: one verified query end to end.
func smoke(ctx context.Context, client *server.Client, cfg config, out *os.File) error {
	w, err := buildWorkload("triangle", cfg.dom)
	if err != nil {
		return err
	}
	resp, err := client.Query(ctx, &server.QueryRequest{Spec: w.spec})
	if err != nil {
		return err
	}
	if err := w.verify(resp); err != nil {
		return fmt.Errorf("smoke query: %v", err)
	}
	st, err := client.Statsz(ctx)
	if err != nil {
		return err
	}
	v, _ := resp.FloatValue()
	fmt.Fprintf(out, "smoke ok: value=%g plan=%s width=%.3f runs=%d\n",
		v, resp.Plan.Method, resp.Plan.Width, st.Engine.Runs)
	return nil
}

// stageProbe runs one traced query of the workload's spec and folds the
// top-level span tree into per-stage milliseconds for the BENCH report.
// Delta workloads have no /v1/query form and are skipped by the caller.
func stageProbe(ctx context.Context, client *server.Client, w workload) (map[string]float64, error) {
	req := &server.QueryRequest{Spec: w.spec}
	if w.factors != nil {
		// The probe always ships JSON — it measures server-side stages, not
		// the wire encoding, and the traced JSON path exercises every stage.
		req.Factors = w.factors
	}
	resp, err := client.QueryWithTrace(ctx, req)
	if err != nil {
		return nil, err
	}
	if err := w.verify(resp); err != nil {
		return nil, err
	}
	if resp.Trace == nil || len(resp.Trace.Spans) == 0 {
		return nil, fmt.Errorf("traced response carried no span tree")
	}
	stages := make(map[string]float64, len(resp.Trace.Spans))
	for _, sp := range resp.Trace.Spans {
		stages[sp.Name] += sp.DurMS
	}
	return stages, nil
}

// checkTraceAccounts holds a span tree to the accounting contract: the
// top-level stage spans must cover the traced wall time to within 10%
// (with a 1ms absolute floor for sub-millisecond queries) and must not
// exceed it — stages are sequential, so overlap would be a bug.
func checkTraceAccounts(name string, td *obs.TraceData) error {
	if td == nil || len(td.Spans) == 0 {
		return fmt.Errorf("%s: traced response carried no span tree", name)
	}
	var sum float64
	for _, sp := range td.Spans {
		sum += sp.DurMS
	}
	slack := td.DurMS * 0.10
	if slack < 1 {
		slack = 1
	}
	if gap := td.DurMS - sum; gap > slack || gap < -0.01 {
		return fmt.Errorf("%s: stage spans sum to %.3fms of %.3fms wall (gap %.3fms > slack %.3fms)",
			name, sum, td.DurMS, td.DurMS-sum, slack)
	}
	return nil
}

// smokeObs is the observability gate behind make obs-smoke: traced
// queries whose span trees must account for the request wall time, a
// /metrics scrape that must parse as Prometheus text and carry the stage
// histograms and shape table, and — when the daemon runs with
// -slow-query=0 and -slow-query-log — a slow-query log that must hold
// valid JSON entries (checked via -slow-log).
func smokeObs(ctx context.Context, client *server.Client, cfg config, out *os.File) error {
	// One traced plain-triangle query, verified against the oracle.
	tri, err := buildWorkload("triangle", cfg.dom)
	if err != nil {
		return err
	}
	resp, err := client.QueryWithTrace(ctx, &server.QueryRequest{Spec: tri.spec})
	if err != nil {
		return err
	}
	if err := tri.verify(resp); err != nil {
		return fmt.Errorf("traced triangle: %v", err)
	}
	if err := checkTraceAccounts("triangle", resp.Trace); err != nil {
		return err
	}

	// The acceptance query: a traced triangle-dataset run (the daemon must
	// have -data), whose spans must likewise account for the wall time.
	ds, err := buildWorkload("triangle-dataset", cfg.dom)
	if err != nil {
		return err
	}
	if err := ds.setup(ctx, client); err != nil {
		return fmt.Errorf("dataset upload: %v", err)
	}
	dresp, err := client.QueryWithTrace(ctx, &server.QueryRequest{Spec: ds.spec})
	if err != nil {
		return err
	}
	if err := ds.verify(dresp); err != nil {
		return fmt.Errorf("traced dataset query: %v", err)
	}
	if err := checkTraceAccounts("triangle-dataset", dresp.Trace); err != nil {
		return err
	}

	// /metrics must parse as Prometheus text and carry the new series.
	// The request histogram is fed after the response bytes flush, so
	// scrape until both queries have landed.
	var samples obs.PromSamples
	deadline := time.Now().Add(5 * time.Second)
	for {
		raw, err := client.Metrics(ctx)
		if err != nil {
			return err
		}
		if samples, err = obs.ParsePromText(bytes.NewReader(raw)); err != nil {
			return fmt.Errorf("/metrics does not parse as Prometheus text: %v", err)
		}
		if samples[`faqd_request_duration_seconds_count{endpoint="query"}`] >= 2 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("/metrics never recorded the smoke queries: %v",
				samples[`faqd_request_duration_seconds_count{endpoint="query"}`])
		}
		time.Sleep(20 * time.Millisecond)
	}
	if samples["faqd_queries_total"] < 2 {
		return fmt.Errorf("faqd_queries_total = %v, want >= 2", samples["faqd_queries_total"])
	}
	for _, st := range []string{"parse", "resolve", "prepare", "execute", "encode"} {
		key := fmt.Sprintf("faqd_stage_duration_seconds_count{stage=%q}", st)
		if samples[key] < 1 {
			return fmt.Errorf("%s = %v, want >= 1", key, samples[key])
		}
	}
	// The sort-strategy counters must round-trip the exposition parser.
	// The smoke queries sort factor blocks below the radix cutoff, so only
	// presence is asserted, not a minimum.
	for _, key := range []string{
		"faqd_sort_radix_total",
		"faqd_sort_comparison_total",
		"faqd_scan_splits_total",
		"faqd_scan_splits_cache_aware_total",
		"faqd_scan_block_keys",
	} {
		if _, ok := samples[key]; !ok {
			return fmt.Errorf("/metrics is missing %s", key)
		}
	}
	// Both smoke queries share one structural shape key (the dataset query
	// is the same triangle hypergraph), so one series with two counts.
	shapes := 0
	var shapeCount float64
	for k := range samples {
		if strings.HasPrefix(k, "faqd_shape_queries_total{") {
			shapes++
			shapeCount += samples[k]
		}
	}
	if shapes < 1 || shapeCount < 2 {
		return fmt.Errorf("/metrics shape table: %d series counting %v queries, want >= 1 series counting >= 2", shapes, shapeCount)
	}

	// With -slow-log, the daemon ran -slow-query=0: every query must have
	// produced one valid JSON entry with its stage trace.
	entries := 0
	if cfg.slowLogPath != "" {
		deadline := time.Now().Add(5 * time.Second)
		for {
			data, err := os.ReadFile(cfg.slowLogPath)
			if err == nil && len(data) > 0 {
				for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
					var entry obs.SlowQueryEntry
					if err := json.Unmarshal([]byte(line), &entry); err != nil {
						return fmt.Errorf("slow-query log line is not JSON: %v\n%s", err, line)
					}
					if entry.Endpoint == "" || entry.Trace == nil {
						return fmt.Errorf("slow-query log entry missing endpoint or trace: %s", line)
					}
					entries++
				}
			}
			if entries >= 2 {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("slow-query log %s has %d entries, want >= 2", cfg.slowLogPath, entries)
			}
			time.Sleep(20 * time.Millisecond)
			entries = 0
		}
	}

	fmt.Fprintf(out, "obs smoke ok: traced=2 metric_samples=%d shape_series=%d slow_log_entries=%d\n",
		len(samples), shapes, entries)
	return nil
}

// drive runs one workload at the configured concurrency for the configured
// duration and folds per-client latencies into one table row.
func drive(ctx context.Context, client *server.Client, w workload, cfg config) (shapeResult, error) {
	if w.steps != nil {
		return driveDelta(ctx, client, w, cfg)
	}
	wireLabel := "-"
	req := &server.QueryRequest{Spec: w.spec}
	var stream []byte
	switch {
	case w.factors != nil && w.binary:
		wireLabel = "binary"
		frames := make([]*wire.Frame, len(w.factors))
		for i, fd := range w.factors {
			f, err := server.FactorFrame(w.wireDom, fd)
			if err != nil {
				return shapeResult{}, fmt.Errorf("shape %s: %v", w.name, err)
			}
			frames[i] = f
		}
		// Encode once, post many: the refresh payload is identical per
		// request, so per-request work is one POST of prebuilt bytes.
		var err error
		if stream, err = server.EncodeQueryStream(req, frames); err != nil {
			return shapeResult{}, fmt.Errorf("shape %s: %v", w.name, err)
		}
	case w.factors != nil:
		wireLabel = "json"
		req.Factors = w.factors
	}
	query := func() (*server.QueryResponse, error) {
		if stream != nil {
			return client.QueryStream(ctx, stream)
		}
		return client.Query(ctx, req)
	}

	stop := time.Now().Add(cfg.duration)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var lats []time.Duration
	var requests, errCount int64
	var firstErr error

	start := time.Now()
	for g := 0; g < cfg.concurrency; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []time.Duration
			var mineReqs, mineErrs int64
			var myErr error
			for time.Now().Before(stop) {
				t0 := time.Now()
				resp, err := query()
				mine = append(mine, time.Since(t0))
				mineReqs++
				if err == nil {
					err = w.verify(resp)
				}
				if err != nil {
					mineErrs++
					if myErr == nil {
						myErr = fmt.Errorf("shape %s: %v", w.name, err)
					}
				}
			}
			mu.Lock()
			lats = append(lats, mine...)
			requests += mineReqs
			errCount += mineErrs
			if firstErr == nil {
				firstErr = myErr
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	return foldResult(w.name, wireLabel, cfg, lats, requests, errCount, time.Since(start), firstErr)
}

// driveBatch drives a workload as /v1/batch requests of cfg.batch items —
// each item shipping the workload's factor data (or running the spec's
// own data when it has none) — and verifies every item of every response
// against the same oracle the single-query drive uses, plus the batch
// contract itself (status ok, completed == n, items in index order).
// The result row counts items, not POSTs, so its RPS is the per-item
// throughput: directly comparable with the single-query row, which is
// the whole point of the A/B.  Latency percentiles are per batch POST.
func driveBatch(ctx context.Context, client *server.Client, w workload, cfg config) (shapeResult, error) {
	n := cfg.batch
	name := fmt.Sprintf("%s+batch%d", w.name, n)
	breq := &server.BatchRequest{Spec: w.spec}
	wireLabel := "json"
	var stream []byte
	switch {
	case w.binary:
		// Fully binary: the FAQB request envelope in, streamed FAQR result
		// records out.  Encode once, post many.
		wireLabel = "binary"
		groups := make([][]*wire.Frame, n)
		if w.factors != nil {
			frames := make([]*wire.Frame, len(w.factors))
			for i, fd := range w.factors {
				f, err := server.FactorFrame(w.wireDom, fd)
				if err != nil {
					return shapeResult{}, fmt.Errorf("shape %s: %v", name, err)
				}
				frames[i] = f
			}
			for i := range groups {
				groups[i] = frames
			}
		}
		var err error
		if stream, err = server.EncodeBatchStream(breq, groups); err != nil {
			return shapeResult{}, fmt.Errorf("shape %s: %v", name, err)
		}
	default:
		items := make([]server.BatchItem, n)
		for i := range items {
			items[i] = server.BatchItem{Factors: w.factors}
		}
		breq.Items = items
	}

	checkBatch := func(resp *server.BatchResponse, err error) error {
		if err != nil {
			return err
		}
		if resp.Status != server.BatchStatusOK || resp.Completed != n || len(resp.Items) != n {
			return fmt.Errorf("batch status=%q completed=%d items=%d, want ok/%d/%d",
				resp.Status, resp.Completed, len(resp.Items), n, n)
		}
		for i := range resp.Items {
			item := &resp.Items[i]
			if item.Index != i {
				return fmt.Errorf("item %d carries index %d", i, item.Index)
			}
			if item.Error != "" {
				return fmt.Errorf("item %d failed: %s", i, item.Error)
			}
			// The per-item oracle: each item re-verified exactly as a
			// single-query response would be.
			if err := w.verify(&server.QueryResponse{Value: item.Value, Output: item.Output}); err != nil {
				return fmt.Errorf("item %d: %v", i, err)
			}
		}
		return nil
	}
	post := func() error {
		if stream != nil {
			resp, err := client.QueryBatchStream(ctx, wire.BatchContentType, stream, nil)
			return checkBatch(resp, err)
		}
		resp, err := client.QueryBatch(ctx, breq)
		return checkBatch(resp, err)
	}

	stop := time.Now().Add(cfg.duration)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var lats []time.Duration
	var requests, errCount int64
	var firstErr error

	start := time.Now()
	for g := 0; g < cfg.concurrency; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []time.Duration
			var mineReqs, mineErrs int64
			var myErr error
			for time.Now().Before(stop) {
				t0 := time.Now()
				err := post()
				mine = append(mine, time.Since(t0))
				mineReqs += int64(n) // the row counts items, not POSTs
				if err != nil {
					mineErrs++
					if myErr == nil {
						myErr = fmt.Errorf("shape %s: %v", name, err)
					}
				}
			}
			mu.Lock()
			lats = append(lats, mine...)
			requests += mineReqs
			errCount += mineErrs
			if firstErr == nil {
				firstErr = myErr
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	return foldResult(name, wireLabel, cfg, lats, requests, errCount, time.Since(start), firstErr)
}

// driveDelta drives a delta workload: every client seeds its own session,
// then cycles the workload's steps, verifying each maintained response
// row for row against the precomputed recompute.  A client stops at its
// first error — a failed step desynchronizes the session state, and every
// later verification would report the same divergence.
func driveDelta(ctx context.Context, client *server.Client, w workload, cfg config) (shapeResult, error) {
	wireLabel := "json"
	if w.binary {
		wireLabel = "binary"
	}
	// Session names carry a nonce so repeated faqload runs against one
	// daemon never adopt a mid-cycle state from a previous run.
	nonce := time.Now().UnixNano()
	stop := time.Now().Add(cfg.duration)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var lats []time.Duration
	var requests, errCount int64
	var firstErr error

	start := time.Now()
	for g := 0; g < cfg.concurrency; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			session := fmt.Sprintf("faqload-%s-%d-%d", w.name, nonce, g)
			var mine []time.Duration
			var mineReqs, mineErrs int64
			var myErr error
			fail := func(err error) {
				mineErrs++
				if myErr == nil {
					myErr = fmt.Errorf("shape %s session %s: %v", w.name, session, err)
				}
			}

			// Encode once, post many: each step's stream is identical for
			// this client's whole run.
			var seedStream []byte
			var streams [][]byte
			if w.binary {
				var err error
				hdr := &server.DeltaRequest{Spec: w.spec, Session: session}
				if seedStream, err = server.EncodeDeltaStream(hdr, nil); err != nil {
					fail(err)
				}
				for _, st := range w.steps {
					s, err := server.EncodeDeltaStream(hdr, st.frames)
					if err != nil {
						fail(err)
						break
					}
					streams = append(streams, s)
				}
			}
			post := func(step int) (*server.DeltaResponse, error) {
				switch {
				case w.binary && step < 0:
					return client.DeltaStream(ctx, seedStream)
				case w.binary:
					return client.DeltaStream(ctx, streams[step])
				case step < 0:
					return client.Delta(ctx, &server.DeltaRequest{Spec: w.spec, Session: session})
				}
				return client.Delta(ctx, &server.DeltaRequest{
					Spec: w.spec, Session: session, Deltas: w.steps[step].deltas})
			}

			if myErr == nil {
				// Seed the session (a real, counted request) and verify the
				// pristine state before evolving it.
				t0 := time.Now()
				resp, err := post(-1)
				mine = append(mine, time.Since(t0))
				mineReqs++
				if err == nil {
					err = w.seedVerify(resp)
				}
				if err != nil {
					fail(err)
				}
			}
			for i := 0; myErr == nil && time.Now().Before(stop); i++ {
				step := i % len(w.steps)
				t0 := time.Now()
				resp, err := post(step)
				mine = append(mine, time.Since(t0))
				mineReqs++
				if err == nil {
					err = w.steps[step].verify(resp)
				}
				if err != nil {
					fail(fmt.Errorf("step %d (cycle pos %d): %v", i, step, err))
				}
			}

			mu.Lock()
			lats = append(lats, mine...)
			requests += mineReqs
			errCount += mineErrs
			if firstErr == nil {
				firstErr = myErr
			}
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	return foldResult(w.name, wireLabel, cfg, lats, requests, errCount, time.Since(start), firstErr)
}

// foldResult folds per-client latencies into one table row.
func foldResult(name, wireLabel string, cfg config, lats []time.Duration,
	requests, errCount int64, elapsed time.Duration, firstErr error) (shapeResult, error) {
	if firstErr != nil {
		return shapeResult{}, fmt.Errorf("shape %s: %d/%d requests failed, first: %v",
			name, errCount, requests, firstErr)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	q := func(p float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		return float64(lats[int(p*float64(len(lats)-1))]) / float64(time.Millisecond)
	}
	return shapeResult{
		Shape:       name,
		Wire:        wireLabel,
		Concurrency: cfg.concurrency,
		DurationSec: elapsed.Seconds(),
		Requests:    requests,
		Errors:      errCount,
		RPS:         float64(requests) / elapsed.Seconds(),
		P50MS:       q(0.50),
		P90MS:       q(0.90),
		P99MS:       q(0.99),
		MaxMS:       q(1),
	}, nil
}

// floatVerifier returns a verifier holding responses to the bit pattern of
// an expected float64 scalar.
func floatVerifier(want float64) func(*server.QueryResponse) error {
	bits := math.Float64bits(want)
	return func(resp *server.QueryResponse) error {
		got, err := resp.FloatValue()
		if err != nil {
			return err
		}
		if math.Float64bits(got) != bits {
			return fmt.Errorf("got %v, want %v", got, want)
		}
		return nil
	}
}

// buildWorkload generates a named workload over domain size dom and
// computes its expected answer with a local single-threaded engine run.
func buildWorkload(name string, dom int) (workload, error) {
	w := workload{name: name}
	switch name {
	case "triangle":
		w.spec = triangleSpec(dom)
	case "triangle-fresh":
		// Same spec (and so the same plan-cache key) as "triangle", but
		// every request ships fresh factor data: the RunWithFactors path.
		w.spec = triangleSpec(dom)
		fd := server.FactorData{}
		for a := 0; a < dom; a++ {
			for b := 0; b < dom; b++ {
				if a < b {
					fd.Tuples = append(fd.Tuples, []int{a, b})
					fd.Values = append(fd.Values, 1)
				}
			}
		}
		w.factors = []server.FactorData{fd, fd, fd}
		w.wireDom = wire.DomainFloat
	case "star":
		w.spec = starSpec(dom)
	case "chain":
		w.spec = chainSpec(dom)
	case "triangle-int":
		// The triangle shape in the counting domain: same hypergraph and
		// aggregate tags as "triangle", so it shares the float plan-cache
		// entry through core.Retype.
		return intWorkload(name, "domain int\n"+triangleSpec(dom))
	case "triangle-tropical":
		return tropicalWorkload(name, tropicalTriangleSpec(dom))
	case "triangle-delta":
		return deltaWorkload(name, dom)
	case "triangle-dataset":
		return datasetWorkload(name, dom)
	default:
		return w, fmt.Errorf("unknown shape %q (want triangle, triangle-fresh, star, chain, triangle-int, triangle-tropical, triangle-delta or triangle-dataset)", name)
	}

	q, err := parseFloatSpec(w.spec)
	if err != nil {
		return w, fmt.Errorf("shape %s: %v", name, err)
	}
	if w.factors != nil {
		// The oracle must see the fresh data, not the spec placeholder.
		for i, fd := range w.factors {
			f, err := factor.New(q.D, q.Factors[i].Vars, fd.Tuples, fd.Values, nil)
			if err != nil {
				return w, err
			}
			q.Factors[i] = f
		}
	}
	want, err := solveScalar(q)
	if err != nil {
		return w, fmt.Errorf("shape %s oracle: %v", name, err)
	}
	w.verify = floatVerifier(want)
	return w, nil
}

// parseFloatSpec parses a float-domain spec and builds its query.
func parseFloatSpec(text string) (*core.Query[float64], error) {
	doc, err := spec.ParseDocument(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	q, _, err := doc.BuildFloat()
	return q, err
}

// intWorkload builds an int-domain workload verified against the int64
// oracle exactly (no float round-trip).
func intWorkload(name, specText string) (workload, error) {
	w := workload{name: name, spec: specText, wireDom: wire.DomainInt}
	doc, err := spec.ParseDocument(strings.NewReader(specText))
	if err != nil {
		return w, fmt.Errorf("shape %s: %v", name, err)
	}
	q, _, err := doc.BuildInt()
	if err != nil {
		return w, fmt.Errorf("shape %s: %v", name, err)
	}
	want, err := solveScalar(q)
	if err != nil {
		return w, fmt.Errorf("shape %s oracle: %v", name, err)
	}
	w.verify = func(resp *server.QueryResponse) error {
		got, err := resp.IntValue()
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("got %d, want %d", got, want)
		}
		return nil
	}
	return w, nil
}

// tropicalWorkload builds a tropical-domain workload (min-plus shortest
// structure) verified bit-for-bit against the float64 oracle.
func tropicalWorkload(name, specText string) (workload, error) {
	w := workload{name: name, spec: specText, wireDom: wire.DomainTropical}
	doc, err := spec.ParseDocument(strings.NewReader(specText))
	if err != nil {
		return w, fmt.Errorf("shape %s: %v", name, err)
	}
	q, _, err := doc.BuildTropical()
	if err != nil {
		return w, fmt.Errorf("shape %s: %v", name, err)
	}
	want, err := solveScalar(q)
	if err != nil {
		return w, fmt.Errorf("shape %s oracle: %v", name, err)
	}
	w.verify = floatVerifier(want)
	return w, nil
}

// deltaWorkload builds the /v1/delta drive target: a free-variable
// triangle listing over the triangleSpec edge set, evolved by a 4-step
// cycle — insert K loop edges into the first relation, insert them into
// the second, delete them from the first, delete them from the second —
// which returns the session to its seeded baseline.  The expected output
// of every step is precomputed by applying the batch to local factor
// copies and re-solving single-threaded, so each maintained response is
// verified row for row against a full recompute.
func deltaWorkload(name string, dom int) (workload, error) {
	w := workload{name: name, wireDom: wire.DomainFloat}
	var b strings.Builder
	fmt.Fprintf(&b, "var x %d free\nvar y %d sum\nvar z %d sum\n", dom, dom, dom)
	for _, e := range [][2]string{{"x", "y"}, {"y", "z"}, {"x", "z"}} {
		fmt.Fprintf(&b, "factor %s %s\n", e[0], e[1])
		for a := 0; a < dom; a++ {
			for c := 0; c < dom; c++ {
				if (a*7+c*3)%5 == 0 && a != c {
					fmt.Fprintf(&b, "%d %d = 1\n", a, c)
				}
			}
		}
		b.WriteString("end\n")
	}
	w.spec = b.String()

	// K loop edges (i, i): the baseline excludes the diagonal, so inserts
	// are new rows and the matching deletes restore the baseline exactly.
	k := 8
	if k > dom {
		k = dom
	}
	tuples := make([][]int, k)
	values := make([]float64, k)
	for i := range tuples {
		tuples[i] = []int{i, i}
		values[i] = 1
	}
	batches := []server.DeltaData{
		{Factor: 0, Op: "insert", Tuples: tuples, Values: values},
		{Factor: 1, Op: "insert", Tuples: tuples, Values: values},
		{Factor: 0, Op: "delete", Tuples: tuples},
		{Factor: 1, Op: "delete", Tuples: tuples},
	}

	q, err := parseFloatSpec(w.spec)
	if err != nil {
		return w, fmt.Errorf("shape %s: %v", name, err)
	}
	cur := append([]*factor.Factor[float64](nil), q.Factors...)
	oracle := func() (*factor.Factor[float64], error) {
		nq := *q
		nq.Factors = append([]*factor.Factor[float64](nil), cur...)
		res, err := solveLocal(&nq)
		if err != nil {
			return nil, err
		}
		return res.Output, nil
	}
	base, err := oracle()
	if err != nil {
		return w, fmt.Errorf("shape %s oracle: %v", name, err)
	}
	w.seedVerify = deltaOutputVerifier(base)

	for _, dd := range batches {
		op := factor.DeltaInsert
		if dd.Op == "delete" {
			op = factor.DeltaDelete
		}
		rows := make([]int32, 0, len(dd.Tuples)*2)
		for _, tup := range dd.Tuples {
			rows = append(rows, int32(tup[0]), int32(tup[1]))
		}
		nf, err := cur[dd.Factor].ApplyDelta(q.D, factor.Delta[float64]{
			Op: op, Rows: rows, Values: dd.Values}, nil)
		if err != nil {
			return w, fmt.Errorf("shape %s step oracle: %v", name, err)
		}
		cur[dd.Factor] = nf
		want, err := oracle()
		if err != nil {
			return w, fmt.Errorf("shape %s step oracle: %v", name, err)
		}
		frame := &wire.DeltaFrame{Op: wire.DeltaOpInsert, Domain: wire.DomainFloat,
			Factor: dd.Factor, Arity: 2, Rows: rows, Floats: dd.Values}
		if op == factor.DeltaDelete {
			frame.Op = wire.DeltaOpDelete
			frame.Floats = nil
		}
		w.steps = append(w.steps, deltaStep{
			deltas: []server.DeltaData{dd},
			frames: []*wire.DeltaFrame{frame},
			verify: deltaOutputVerifier(want),
		})
	}
	// The cycle must end where it started, or long runs would drift.
	if !cur[0].Equal(q.D, q.Factors[0]) || !cur[1].Equal(q.D, q.Factors[1]) {
		return w, fmt.Errorf("shape %s: delta cycle does not return to baseline", name)
	}
	return w, nil
}

// deltaOutputVerifier holds a maintained listing response to the expected
// output, row for row and bit for bit.
func deltaOutputVerifier(want *factor.Factor[float64]) func(*server.DeltaResponse) error {
	wantTuples := want.Tuples()
	wantVals := want.Values
	return func(resp *server.DeltaResponse) error {
		if resp.Output == nil {
			return fmt.Errorf("no output in delta response")
		}
		vals, err := resp.Output.FloatValues()
		if err != nil {
			return err
		}
		if len(resp.Output.Tuples) != len(wantTuples) || len(vals) != len(wantVals) {
			return fmt.Errorf("output has %d rows, want %d", len(resp.Output.Tuples), len(wantTuples))
		}
		for i, tup := range wantTuples {
			for j := range tup {
				if resp.Output.Tuples[i][j] != tup[j] {
					return fmt.Errorf("row %d: tuple %v, want %v", i, resp.Output.Tuples[i], tup)
				}
			}
			if math.Float64bits(vals[i]) != math.Float64bits(wantVals[i]) {
				return fmt.Errorf("row %d: value %v, want %v", i, vals[i], wantVals[i])
			}
		}
		return nil
	}
}

// triangleEdgeFrame is the triangleSpec edge relation as one wire frame:
// the upload body of dataset workloads.
func triangleEdgeFrame(dom int) *wire.Frame {
	f := &wire.Frame{Domain: wire.DomainFloat, Arity: 2}
	for a := 0; a < dom; a++ {
		for c := 0; c < dom; c++ {
			if (a*7+c*3)%5 == 0 && a != c {
				f.Rows = append(f.Rows, int32(a), int32(c))
				f.Floats = append(f.Floats, 1)
			}
		}
	}
	return f
}

// datasetTriangleSpec is the triangle query against a resident dataset:
// same shape and data as triangleSpec, zero factor bytes in the spec.
func datasetTriangleSpec(name string, dom int) string {
	return fmt.Sprintf("use %s\nvar x %d sum\nvar y %d sum\nvar z %d sum\n"+
		"factor x y @0\nfactor y z @1\nfactor x z @2\n", name, dom, dom, dom)
}

// datasetName keys the uploaded triangle dataset by domain size, so runs
// with different -dom never read each other's data.
func datasetName(dom int) string { return fmt.Sprintf("faqload-tri-%d", dom) }

// datasetWorkload builds the triangle-dataset drive target: setup uploads
// the triangle edge relations as a named dataset, and every request runs
// the `use`-spec against the server's resident mapped factors — the
// query-by-name path bench-store compares against triangle-fresh.  The
// oracle is the same local solve as "triangle" (identical data), so each
// response is verified bit for bit.
func datasetWorkload(name string, dom int) (workload, error) {
	dsName := datasetName(dom)
	w := workload{name: name, spec: datasetTriangleSpec(dsName, dom), wireDom: wire.DomainFloat}
	q, err := parseFloatSpec(triangleSpec(dom))
	if err != nil {
		return w, fmt.Errorf("shape %s: %v", name, err)
	}
	want, err := solveScalar(q)
	if err != nil {
		return w, fmt.Errorf("shape %s oracle: %v", name, err)
	}
	w.verify = floatVerifier(want)
	w.setup = func(ctx context.Context, client *server.Client) error {
		f := triangleEdgeFrame(dom)
		_, err := client.PutDataset(ctx, dsName, []*wire.Frame{f, f, f})
		return err
	}
	return w, nil
}

// smokeDataset is the persistence handshake of the serve-smoke gate.  In
// "put" mode it uploads the triangle dataset and runs one verified
// dataset query; in "cold" mode it uploads nothing — the dataset must
// already be resident, loaded from disk by a restarted daemon — and runs
// the same verified query, proving the warm restart serves correct
// results from the mapped file.
func smokeDataset(ctx context.Context, client *server.Client, cfg config, out *os.File) error {
	w, err := buildWorkload("triangle-dataset", cfg.dom)
	if err != nil {
		return err
	}
	if cfg.smokeDataset == "put" {
		if err := w.setup(ctx, client); err != nil {
			return err
		}
	}
	resp, err := client.Query(ctx, &server.QueryRequest{Spec: w.spec})
	if err != nil {
		return err
	}
	if err := w.verify(resp); err != nil {
		return fmt.Errorf("dataset smoke query (%s): %v", cfg.smokeDataset, err)
	}
	st, err := client.Statsz(ctx)
	if err != nil {
		return err
	}
	if st.Store == nil {
		return fmt.Errorf("dataset smoke: /statsz reports no store section")
	}
	if st.Store.Datasets < 1 {
		return fmt.Errorf("dataset smoke: /statsz reports %d datasets, want >= 1", st.Store.Datasets)
	}
	if st.Store.DatasetQueries < 1 {
		return fmt.Errorf("dataset smoke: /statsz reports %d dataset queries, want >= 1", st.Store.DatasetQueries)
	}
	v, _ := resp.FloatValue()
	fmt.Fprintf(out, "dataset smoke ok (%s): value=%g datasets=%d bytes_mapped=%d dataset_queries=%d\n",
		cfg.smokeDataset, v, st.Store.Datasets, st.Store.BytesMapped, st.Store.DatasetQueries)
	return nil
}

// solveLocal is the local oracle: q planned and run on a single-threaded
// engine of its own.
func solveLocal[V any](q *core.Query[V]) (*core.Result[V], error) {
	eng := core.NewEngine[V](core.EngineOptions{Workers: 1})
	defer eng.Close()
	prep, err := eng.Prepare(q)
	if err != nil {
		return nil, err
	}
	return prep.Run(context.Background())
}

// solveScalar is solveLocal for queries without free variables.
func solveScalar[V any](q *core.Query[V]) (V, error) {
	res, err := solveLocal(q)
	if err != nil {
		var zero V
		return zero, err
	}
	return res.Scalar(), nil
}

// triangleSpec is Σ ψ(x,y)·ψ(y,z)·ψ(x,z) over a deterministic edge set.
func triangleSpec(dom int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "var x %d sum\nvar y %d sum\nvar z %d sum\n", dom, dom, dom)
	edge := func(u, v string) {
		fmt.Fprintf(&b, "factor %s %s\n", u, v)
		for a := 0; a < dom; a++ {
			for c := 0; c < dom; c++ {
				if (a*7+c*3)%5 == 0 && a != c {
					fmt.Fprintf(&b, "%d %d = 1\n", a, c)
				}
			}
		}
		b.WriteString("end\n")
	}
	edge("x", "y")
	edge("y", "z")
	edge("x", "z")
	return b.String()
}

// tropicalTriangleSpec is min_{x,y,z} ψ(x,y)+ψ(y,z)+ψ(x,z): the cheapest
// triangle under per-edge costs.
func tropicalTriangleSpec(dom int) string {
	var b strings.Builder
	b.WriteString("domain tropical\n")
	fmt.Fprintf(&b, "var x %d min\nvar y %d min\nvar z %d min\n", dom, dom, dom)
	for _, e := range [][2]string{{"x", "y"}, {"y", "z"}, {"x", "z"}} {
		fmt.Fprintf(&b, "factor %s %s\n", e[0], e[1])
		for a := 0; a < dom; a++ {
			for c := 0; c < dom; c++ {
				if (a*7+c*3)%5 == 0 && a != c {
					fmt.Fprintf(&b, "%d %d = %d.5\n", a, c, 1+(a+2*c)%9)
				}
			}
		}
		b.WriteString("end\n")
	}
	return b.String()
}

// starSpec is Σ_c Σ_l1..l3 ψ(c,l1)·ψ(c,l2)·ψ(c,l3): a 3-leaf star join.
func starSpec(dom int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "var c %d sum\n", dom)
	for i := 1; i <= 3; i++ {
		fmt.Fprintf(&b, "var l%d %d sum\n", i, dom)
	}
	for i := 1; i <= 3; i++ {
		fmt.Fprintf(&b, "factor c l%d\n", i)
		for a := 0; a < dom; a++ {
			for c := 0; c < dom; c++ {
				if (a*11+c*(2+i))%7 == 0 {
					fmt.Fprintf(&b, "%d %d = 1\n", a, c)
				}
			}
		}
		b.WriteString("end\n")
	}
	return b.String()
}

// chainSpec is a 4-variable path query Σ ψ(a,b)·ψ(b,c)·ψ(c,d).
func chainSpec(dom int) string {
	var b strings.Builder
	for _, n := range []string{"a", "b", "c", "d"} {
		fmt.Fprintf(&b, "var %s %d sum\n", n, dom)
	}
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}} {
		fmt.Fprintf(&b, "factor %s %s\n", e[0], e[1])
		for a := 0; a < dom; a++ {
			for c := 0; c < dom; c++ {
				if (a*5+c*3)%6 == 0 {
					fmt.Fprintf(&b, "%d %d = 1\n", a, c)
				}
			}
		}
		b.WriteString("end\n")
	}
	return b.String()
}
