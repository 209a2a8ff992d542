package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/faqdb/faq/internal/obs"
	"github.com/faqdb/faq/internal/server"
)

// reply is what one operation hands back to the harness after checking
// the daemon's answer.
type reply struct {
	serverMS float64          // the daemon's own elapsed_ms for the request
	traces   []*obs.TraceData // the daemon's span trees, when traced
	stats    server.RunStats  // the run counters (summed over batch items)
	runs     int64            // engine runs plus delta batches the request must add
}

// wrongAnswer marks an answer that failed its check, as opposed to an
// operation that failed outright.
type wrongAnswer struct{ error }

func wrong(format string, args ...any) error {
	return wrongAnswer{fmt.Errorf(format, args...)}
}

type op struct {
	kind string
	fn   func(ctx context.Context, c *server.Client) (reply, error)
}

// bench is one workload, built from a seed: its inputs and expected
// answers exist before the daemon starts.
type bench struct {
	// setup, when set, uploads datasets and seeds sessions.
	setup func(ctx context.Context, c *server.Client, lay *layers) error
	// round returns client ci's operations for its next round.  Every run
	// attempts whole rounds, so the mix is the same in every run.
	round func(ci int) []op
	// warmRounds are run by every client before measuring; settle, when
	// set, runs after them.
	warmRounds int
	settle     func(ctx context.Context, c *server.Client) error
	// verify runs the checks deferred past the measured phase.
	verify func() error
	// totals checks the /statsz counters against the client's own count of
	// what it sent.
	totals func(before, after *server.StatszResponse, p *phase) error
	// direct times the layers' public functions on the workload's inputs
	// (traced runs only).
	direct func(ctx context.Context, lay *layers) error
}

// phase is what the clients saw over one measured (or warm-up) phase.
type phase struct {
	start     time.Time
	wall      time.Duration
	attempted int64
	failed    int64
	lat       []float64       // ms, successful operations only
	end       []time.Duration // completion offsets from start, parallel to lat
	samples   []sample        // process usage every sampleEvery, from start
	runs      int64
	ops       []opRecord // traced runs only
	wrong     []error
	firstFail error
}

type opRecord struct {
	kind  string
	start time.Duration // from the phase start
	latMS float64
	rep   reply
}

func (p *phase) ok() int64 { return p.attempted - p.failed }

// sample is the process's CPU time, allocated bytes and resident set at
// one instant.
type sample struct {
	at     time.Duration
	cpu    time.Duration
	allocs uint64
	rss    int64 // bytes; 0 when /proc/self/statm cannot be read
}

func takeSample(start time.Time) sample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return sample{at: time.Since(start), cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs: s[0].Value.Uint64(), rss: residentBytes()}
}

// residentBytes reads the process's current resident set (the second field
// of /proc/self/statm, in pages).
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// sampleEvery is the window length of the measured phase (a quarter of the
// phase in runs shorter than 8 s): the end-to-end metrics are medians over
// its windows, so a burst of load from outside the process moves one
// window, not the run's figure.
const sampleEvery = 2 * time.Second

// drive runs every client until the deadline (checked between rounds) or
// for the given number of rounds.  With a window, the process's usage is
// sampled every window until the clients are done.
func drive(ctx context.Context, b *bench, c *server.Client, clients, rounds int, until time.Time, keep bool, window time.Duration) *phase {
	parts := make([]phase, clients)
	start := time.Now()
	var samples []sample
	stopSampler, samplerDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(samplerDone)
		if window <= 0 {
			return
		}
		tick := time.NewTicker(window)
		defer tick.Stop()
		samples = append(samples, takeSample(start))
		for {
			select {
			case <-tick.C:
				samples = append(samples, takeSample(start))
			case <-stopSampler:
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			p := &parts[ci]
			for r := 0; ; r++ {
				if ctx.Err() != nil || (rounds > 0 && r >= rounds) || (rounds == 0 && !time.Now().Before(until)) {
					return
				}
				for _, o := range b.round(ci) {
					t0 := time.Now()
					rep, err := o.fn(ctx, c)
					lat := time.Since(t0)
					p.attempted++
					var w wrongAnswer
					switch {
					case errors.As(err, &w):
						p.wrong = append(p.wrong, fmt.Errorf("%s: %w", o.kind, w.error))
					case err != nil:
						p.failed++
						if p.firstFail == nil {
							p.firstFail = fmt.Errorf("%s: %w", o.kind, err)
						}
						continue
					}
					ms := float64(lat) / 1e6
					p.lat = append(p.lat, ms)
					p.end = append(p.end, time.Since(start))
					p.runs += rep.runs
					if keep {
						p.ops = append(p.ops, opRecord{kind: o.kind, start: t0.Sub(start), latMS: ms, rep: rep})
					}
				}
			}
		}(ci)
	}
	wg.Wait()
	close(stopSampler)
	<-samplerDone
	all := &phase{start: start, wall: time.Since(start), samples: samples}
	for i := range parts {
		p := &parts[i]
		all.attempted += p.attempted
		all.failed += p.failed
		all.lat = append(all.lat, p.lat...)
		all.end = append(all.end, p.end...)
		all.runs += p.runs
		all.ops = append(all.ops, p.ops...)
		all.wrong = append(all.wrong, p.wrong...)
		if all.firstFail == nil {
			all.firstFail = p.firstFail
		}
	}
	return all
}

// usage is the Go runtime's garbage-collection count and total pause.
type usage struct {
	gcs     uint32
	pauseNs uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{gcs: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// quantile is the linearly interpolated q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// run is one benchmark run: generate, start, set up, warm up, measure,
// check, shut down.
func run(ctx context.Context, o options, log io.Writer) (*result, error) {
	gen0 := time.Now()
	b, err := workloads[o.workload](o.seed, o.clients)
	if err != nil {
		return nil, fmt.Errorf("generating %s inputs: %w", o.workload, err)
	}
	widths := newWidthSet()
	// The generator's garbage goes back to the OS before the daemon
	// starts, so rss_mb measures the daemon and the load, not the
	// generator.
	debug.FreeOSMemory()
	genTime := time.Since(gen0)

	d, err := startDaemon(o.out, o.clients)
	if err != nil {
		return nil, fmt.Errorf("starting faqd: %w", err)
	}
	addr, dir := d.ln.Addr().String(), d.dir
	res, err := measure(ctx, o, b, widths, d, genTime, log)
	if errStop := d.stop(); errStop != nil {
		err = errors.Join(err, fmt.Errorf("stopping faqd: %w", errStop))
	}
	if err == nil {
		err = checkGone(addr, dir)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// checkGone confirms that the listener is closed and the data directory
// removed.
func checkGone(addr, dir string) error {
	if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		conn.Close()
		return fmt.Errorf("faqd listener %s still accepts connections after shutdown", addr)
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("faqd data directory %s still exists after shutdown (%v)", dir, err)
	}
	return nil
}

func measure(ctx context.Context, o options, b *bench, widths *widthSet, d *daemon,
	genTime time.Duration, log io.Writer) (*result, error) {

	lay := newLayers(o.trace)
	if err := d.client.WaitHealthy(ctx, 10*time.Second); err != nil {
		return nil, err
	}
	if b.setup != nil {
		if err := b.setup(ctx, d.client, lay); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	widthMean, err := widths.plan(ctx, d.client)
	if err != nil {
		return nil, err
	}
	warm := drive(ctx, b, d.client, o.clients, b.warmRounds, time.Time{}, false, 0)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if warm.failed > 0 || len(warm.wrong) > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d operations failed, %d wrong: %v %v",
			warm.failed, warm.attempted, len(warm.wrong), warm.firstFail, firstErr(warm.wrong))
	}
	if b.settle != nil {
		if err := b.settle(ctx, d.client); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	setup := time.Since(procStart) - genTime

	st0, err := d.statsz(ctx)
	if err != nil {
		return nil, err
	}
	d.rt.trace.Store(o.trace)
	req0, res0 := d.rt.reqBytes.Load(), d.rt.resBytes.Load()
	u0 := readUsage()
	length := time.Duration(o.seconds) * time.Second
	p := drive(ctx, b, d.client, o.clients, 0, time.Now().Add(length), o.trace, min(sampleEvery, length/4))
	u1 := readUsage()
	req1, res1 := d.rt.reqBytes.Load(), d.rt.resBytes.Load()
	d.rt.trace.Store(false)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st1, err := d.statsz(ctx)
	if err != nil {
		return nil, err
	}

	correct := len(p.wrong) == 0
	for i, w := range p.wrong {
		if i == 5 {
			fmt.Fprintf(log, "... %d more wrong answers\n", len(p.wrong)-i)
			break
		}
		fmt.Fprintln(log, "wrong answer:", w)
	}
	if p.firstFail != nil {
		fmt.Fprintf(log, "%d of %d operations failed; first: %v\n", p.failed, p.attempted, p.firstFail)
	}
	if p.ok() == 0 {
		return nil, fmt.Errorf("no operation completed in %v", p.wall)
	}
	for _, check := range []func() error{
		b.verify,
		func() error { return b.totals(st0, st1, p) },
	} {
		if check == nil {
			continue
		}
		if err := check(); err != nil {
			fmt.Fprintln(log, "check failed:", err)
			correct = false
		}
	}

	res := &result{Correct: correct, Attempted: p.attempted, Failed: p.failed, Metrics: map[string]metric{}}
	if !o.trace {
		w := p.windows()
		if len(w.rate) == 0 {
			return nil, fmt.Errorf("no operation completed within a sampling window")
		}
		m := res.Metrics
		m["ops_per_s"] = metric{median(w.rate), "op/s"}
		m["latency_p50_ms"] = metric{median(w.p50), "ms"}
		m["latency_p90_ms"] = metric{median(w.p90), "ms"}
		m["cpu_ms_per_op"] = metric{median(w.cpu), "ms"}
		m["alloc_kb_per_op"] = metric{median(w.alloc), "KiB"}
		m["rss_mb"] = metric{median(w.rss), "MiB"}
		m["setup_s"] = metric{setup.Seconds(), "s"}
		m["plan_width_mean"] = metric{widthMean, "width"}
		return res, nil
	}

	if b.direct != nil {
		if err := b.direct(ctx, lay); err != nil {
			return nil, fmt.Errorf("direct layer calls: %w", err)
		}
	}
	lay.fromPhase(p, st0, st1, u0, u1, float64(req1-req0), float64(res1-res0))
	res.Metrics = lay.metrics()
	path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
	if err := lay.writeSpans(path, p); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintln(log, "spans written to", path)
	return res, nil
}

// windowed holds one figure per full sampling window of the measured phase.
type windowed struct {
	rate, p50, p90, cpu, alloc, rss []float64
}

// windows splits the measured phase at its usage samples.  Operations
// belong to the window in which they completed; windows in which none did
// are skipped.
func (p *phase) windows() windowed {
	var w windowed
	for i := 0; i+1 < len(p.samples); i++ {
		s0, s1 := p.samples[i], p.samples[i+1]
		var lat []float64
		for j, e := range p.end {
			if e >= s0.at && e < s1.at {
				lat = append(lat, p.lat[j])
			}
		}
		if len(lat) == 0 {
			continue
		}
		n := float64(len(lat))
		sort.Float64s(lat)
		w.rate = append(w.rate, n/(s1.at-s0.at).Seconds())
		w.p50 = append(w.p50, quantile(lat, 0.5))
		w.p90 = append(w.p90, quantile(lat, 0.9))
		w.cpu = append(w.cpu, float64(s1.cpu-s0.cpu)/1e6/n)
		w.alloc = append(w.alloc, float64(s1.allocs-s0.allocs)/1024/n)
		w.rss = append(w.rss, float64(s1.rss)/(1<<20))
	}
	return w
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func firstErr(errs []error) error {
	if len(errs) == 0 {
		return nil
	}
	return errs[0]
}
