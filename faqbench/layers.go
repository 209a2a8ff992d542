package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/faqdb/faq/internal/obs"
	"github.com/faqdb/faq/internal/server"
)

// perLayer lists every per-layer metric a traced run reports, with its
// unit.  A layer that does no work on a workload reports 0.  Times are per
// operation (server.*) or per call of the layer's public function (all
// other *_ms); counts are per operation, except the store's mapped bytes.
var perLayer = []struct{ name, unit string }{
	{"traced.latency_p50_ms", "ms"},
	{"server.parse_ms", "ms"},
	{"server.resolve_ms", "ms"},
	{"server.prepare_ms", "ms"},
	{"server.execute_ms", "ms"},
	{"server.encode_ms", "ms"},
	{"server.http_ms", "ms"},
	{"server.request_bytes", "B"},
	{"server.response_bytes", "B"},
	{"spec.parse_ms", "ms"},
	{"wire.decode_ms", "ms"},
	{"wire.encode_ms", "ms"},
	{"wire.delta_decode_ms", "ms"},
	{"core.prepare_hit_ms", "ms"},
	{"core.plan_ms", "ms"},
	{"core.run_ms", "ms"},
	{"core.run_with_factors_ms", "ms"},
	{"core.run_batch_item_ms", "ms"},
	{"core.apply_deltas_ms", "ms"},
	{"core.intermediate_rows", "1/op"},
	{"core.max_intermediate_rows", "1/op"},
	{"core.plan_cache_hits", "1/op"},
	{"core.plan_cache_misses", "1/op"},
	{"core.delta_ring_runs", "1/op"},
	{"core.delta_block_runs", "1/op"},
	{"core.delta_recomputes", "1/op"},
	{"hypergraph.elimdp_ms", "ms"},
	{"linprog.cover_ms", "ms"},
	{"join.trie_build_ms", "ms"},
	{"join.scan_ms", "ms"},
	{"join.probes", "1/op"},
	{"join.parallel_scans", "1/op"},
	{"join.blocks", "1/op"},
	{"join.pool_wait_ms", "ms"},
	{"join.trie_cache_hits", "1/op"},
	{"join.trie_cache_misses", "1/op"},
	{"join.trie_cache_evictions", "1/op"},
	{"join.trie_cache_invalidations", "1/op"},
	{"factor.new_rows_ms", "ms"},
	{"factor.apply_delta_ms", "ms"},
	{"sortx.argsort_ms", "ms"},
	{"sortx.radix_sorts", "1/op"},
	{"sortx.comparison_sorts", "1/op"},
	{"store.put_ms", "ms"},
	{"store.bytes_mapped", "B"},
	{"runtime.gc_cycles", "1/op"},
	{"runtime.gc_pause_ms", "ms"},
}

// span is one traced interval.  Start and end are offsets from the run's
// time base; spans of one request share req, and parent links a span to
// the one that caused it (0 for a root).
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Req    int64   `json:"req"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// layers collects the per-layer figures of a traced run: spans around the
// benchmark's direct calls into each layer, and the daemon's own spans.
type layers struct {
	on     bool
	t0     time.Time
	spans  []span
	nextID int64
	reqs   int64
	calls  map[string][2]float64 // name → (total ms, calls)
	vals   map[string]float64
}

func newLayers(on bool) *layers {
	return &layers{on: on, t0: time.Now(), calls: map[string][2]float64{}, vals: map[string]float64{}}
}

func (l *layers) ms(t time.Time) float64 { return float64(t.Sub(l.t0)) / 1e6 }

// timeCall runs fn as one call of the named layer function and records its
// span; the metric is the mean over calls.  Untraced runs still run fn
// (set-up needs its effect) but record nothing.
func (l *layers) timeCall(metric string, fn func() error) error {
	return l.timeCalls(metric, 1, fn)
}

// timeCalls is timeCall for fn making n calls of the layer function.
func (l *layers) timeCalls(metric string, n int, fn func() error) error {
	t0 := time.Now()
	err := fn()
	if !l.on || err != nil {
		return err
	}
	t1 := time.Now()
	l.nextID++
	l.reqs++
	l.spans = append(l.spans, span{ID: l.nextID, Req: -l.reqs, Name: metric, Start: l.ms(t0), End: l.ms(t1)})
	c := l.calls[metric]
	l.calls[metric] = [2]float64{c[0] + float64(t1.Sub(t0))/1e6, c[1] + float64(n)}
	return nil
}

// fromPhase derives the per-operation figures of the measured phase: the
// daemon's stage spans, the run counters of the responses, and the deltas
// of the /statsz counters and of the Go runtime.
func (l *layers) fromPhase(p *phase, st0, st1 *server.StatszResponse, u0, u1 usage, reqB, resB float64) {
	ops := float64(p.ok())
	v := l.vals
	sort.Float64s(p.lat)
	v["traced.latency_p50_ms"] = quantile(p.lat, 0.5)
	var httpMS, inter, maxInter, probes float64
	stages := map[string]float64{}
	var blocks, poolWait float64
	var walk func(sp []obs.SpanData, top bool)
	walk = func(sp []obs.SpanData, top bool) {
		for _, s := range sp {
			if top {
				stages[s.Name] += s.DurMS
			}
			if s.Name == "eliminate" {
				blocks += num(s.Attrs["blocks"])
				poolWait += num(s.Attrs["pool_wait_ms"])
			}
			walk(s.Spans, false)
		}
	}
	for _, o := range p.ops {
		httpMS += o.latMS - o.rep.serverMS
		inter += float64(o.rep.stats.IntermediateRows)
		maxInter += float64(o.rep.stats.MaxIntermediate)
		probes += float64(o.rep.stats.JoinProbes)
		for _, td := range o.rep.traces {
			if td != nil {
				walk(td.Spans, true)
			}
		}
	}
	for _, s := range []string{"parse", "resolve", "prepare", "execute", "encode"} {
		v["server."+s+"_ms"] = stages[s] / ops
	}
	v["server.http_ms"] = httpMS / ops
	v["server.request_bytes"] = reqB / ops
	v["server.response_bytes"] = resB / ops
	v["core.intermediate_rows"] = inter / ops
	v["core.max_intermediate_rows"] = maxInter / ops
	v["join.probes"] = probes / ops
	v["join.blocks"] = blocks / ops
	v["join.pool_wait_ms"] = poolWait / ops
	e0, e1 := st0.Engine, st1.Engine
	per := func(a, b int64) float64 { return float64(b-a) / ops }
	v["core.plan_cache_hits"] = per(e0.PlanCacheHits, e1.PlanCacheHits)
	v["core.plan_cache_misses"] = per(e0.PlanCacheMisses, e1.PlanCacheMisses)
	v["core.delta_ring_runs"] = per(e0.DeltaRingRuns, e1.DeltaRingRuns)
	v["core.delta_block_runs"] = per(e0.DeltaBlockRuns, e1.DeltaBlockRuns)
	v["core.delta_recomputes"] = per(e0.DeltaRecomputes, e1.DeltaRecomputes)
	v["join.trie_cache_hits"] = per(e0.TrieCacheHits, e1.TrieCacheHits)
	v["join.trie_cache_misses"] = per(e0.TrieCacheMisses, e1.TrieCacheMisses)
	v["join.trie_cache_evictions"] = per(e0.TrieCacheEvictions, e1.TrieCacheEvictions)
	v["join.trie_cache_invalidations"] = per(e0.TrieCacheInvalidations, e1.TrieCacheInvalidations)
	v["join.parallel_scans"] = per(st0.Sort.ParallelScans, st1.Sort.ParallelScans)
	v["sortx.radix_sorts"] = per(st0.Sort.RadixSorts, st1.Sort.RadixSorts)
	v["sortx.comparison_sorts"] = per(st0.Sort.ComparisonSorts, st1.Sort.ComparisonSorts)
	if st1.Store != nil {
		v["store.bytes_mapped"] = float64(st1.Store.BytesMapped)
	}
	v["runtime.gc_cycles"] = float64(u1.gcs-u0.gcs) / ops
	v["runtime.gc_pause_ms"] = float64(u1.pauseNs-u0.pauseNs) / 1e6 / ops
}

// num reads a numeric span attribute (absent reads 0).
func num(a any) float64 {
	switch x := a.(type) {
	case float64:
		return x
	case int:
		return float64(x)
	case int64:
		return float64(x)
	case json.Number:
		f, _ := x.Float64() // a malformed attribute counts as absent
		return f
	}
	return 0
}

// metrics is the traced run's metrics object: every per-layer metric.
func (l *layers) metrics() map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		val := l.vals[m.name]
		if c, ok := l.calls[m.name]; ok && c[1] > 0 {
			val = c[0] / c[1]
		}
		out[m.name] = metric{val, m.unit}
	}
	return out
}

// writeSpans writes every span of the run as JSON lines: the client's
// operations with the daemon's spans beneath them, then the direct layer
// calls, then one summary line with each span name's count, total time
// and self time (its time minus the part its children cover).
func (l *layers) writeSpans(path string, p *phase) error {
	base := l.ms(p.start)
	spans := make([]span, 0, len(l.spans)+4*len(p.ops))
	id := l.nextID
	var add func(sp []obs.SpanData, parent, req int64, at float64)
	add = func(sp []obs.SpanData, parent, req int64, at float64) {
		for _, s := range sp {
			id++
			me := id
			spans = append(spans, span{ID: me, Parent: parent, Req: req, Name: "server." + s.Name,
				Start: at + s.StartMS, End: at + s.StartMS + s.DurMS})
			add(s.Spans, me, req, at)
		}
	}
	for i, o := range p.ops {
		id++
		root := id
		start := base + float64(o.start)/1e6
		spans = append(spans, span{ID: root, Req: int64(i + 1), Name: "client." + o.kind, Start: start, End: start + o.latMS})
		for _, td := range o.rep.traces {
			if td != nil {
				add(td.Spans, root, int64(i+1), start)
			}
		}
	}
	spans = append(spans, l.spans...)

	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := enc.Encode(map[string]any{"summary": selfTimes(spans)}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type spanTotals struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes sums, per span name, each span's duration and its self time:
// the duration minus the union of its children's intervals.
func selfTimes(spans []span) map[string]spanTotals {
	kids := map[int64][][2]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	out := map[string]spanTotals{}
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, reach := 0.0, s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		t := out[s.Name]
		t.Count++
		t.TotalMS += s.End - s.Start
		t.SelfMS += s.End - s.Start - covered
		out[s.Name] = t
	}
	return out
}
