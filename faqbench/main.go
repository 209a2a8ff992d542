// Command faqbench is the benchmark of faqd and its layers.  It hosts the
// daemon in its own process, drives it over loopback HTTP as a closed loop
// of a few clients, checks every answer against its own computation, and
// prints one JSON result line: every end-to-end metric, or with --trace 1
// every per-layer metric.  See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// procStart is taken at package initialisation, before main runs: setup_s
// is measured from here, the closest a Go program gets to its process start.
var procStart = time.Now()

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	clients  int
	out      string // directory for the data directory and span files
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+fmt.Sprint(workloadNames))
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 runs traced and reports per-layer metrics")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "out"), "directory for the daemon's data and the span files")
	flag.Parse()
	o.trace = trace == 1
	// A closed loop of at most two clients, one connection each: on a
	// shared two-core machine more would measure queueing, not the daemon.
	o.clients = min(2, runtime.NumCPU())
	if err := o.validate(trace); err != nil {
		fmt.Fprintln(os.Stderr, "faqbench:", err)
		os.Exit(2)
	}
	// SIGINT and SIGTERM cancel ctx: the clients stop at their next
	// operation and the run takes the same shutdown path as a normal end.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	res, err := run(ctx, o, os.Stderr)
	if err == nil && ctx.Err() != nil {
		err = errors.New("interrupted")
	}
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "faqbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faqbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func (o options) validate(trace int) error {
	if _, ok := workloads[o.workload]; !ok {
		return fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames)
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	return nil
}
