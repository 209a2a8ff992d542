// faqrun evaluates an FAQ query from a specification file (format in
// internal/spec) on the Engine API, printing the plan, statistics and the
// output (listing representation, truncated for large outputs).
//
// Usage:
//
//	faqrun -spec query.faq [-order "2,0,1"] [-mode solve|prepared] [-repeat n]
//	       [-max-rows 50] [-no-filters] [-no-indicators] [-workers n]
//
// -mode solve (the default) prepares and runs once.  -mode prepared is the
// serving demo: the query is prepared once and run -repeat times, printing
// per-run wall time and the engine's plan-cache/run counters, so the
// amortization of the Section 6–7 planning phase is visible directly.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/faqdb/faq/internal/core"
	"github.com/faqdb/faq/internal/spec"
)

// config collects the flag values; validate rejects unusable combinations
// before any work happens.
type config struct {
	specFile string
	order    string
	mode     string
	repeat   int
	maxRows  int
	workers  int
}

func (c config) validate() error {
	if c.specFile == "" {
		return fmt.Errorf("missing required -spec")
	}
	if c.workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 = GOMAXPROCS, 1 = sequential), got %d", c.workers)
	}
	switch c.mode {
	case "solve", "prepared":
	default:
		return fmt.Errorf("unknown -mode %q (want solve or prepared)", c.mode)
	}
	if c.repeat < 1 {
		return fmt.Errorf("-repeat must be >= 1, got %d", c.repeat)
	}
	if c.repeat > 1 && c.mode != "prepared" {
		return fmt.Errorf("-repeat %d needs -mode prepared", c.repeat)
	}
	if c.maxRows < 0 {
		return fmt.Errorf("-max-rows must be >= 0, got %d", c.maxRows)
	}
	return nil
}

func parseOrder(s string) ([]int, error) {
	var order []int
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return nil, fmt.Errorf("bad ordering entry %q", tok)
		}
		order = append(order, v)
	}
	return order, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program on an explicit argument list and output pair,
// returning the exit status: 0 on success, 2 on a usage error, 1 when the
// query cannot be read, planned or run.  Flags live on a FlagSet of their
// own, so run can be called any number of times in one process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("faqrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.specFile, "spec", "", "query specification file")
	fs.StringVar(&cfg.order, "order", "", "explicit variable ordering, comma-separated ids")
	fs.StringVar(&cfg.mode, "mode", "solve", "solve (plan+run once) or prepared (prepare once, run -repeat times)")
	fs.IntVar(&cfg.repeat, "repeat", 1, "prepared-mode run count")
	fs.IntVar(&cfg.maxRows, "max-rows", 50, "maximum output rows to print")
	noFilters := fs.Bool("no-filters", false, "disable the 01-OR output filters")
	noIndicators := fs.Bool("no-indicators", false, "disable indicator projections")
	fs.IntVar(&cfg.workers, "workers", 0, "executor worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := cfg.validate(); err != nil {
		fmt.Fprintf(stderr, "faqrun: %v\n", err)
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "faqrun: %v\n", err)
		return 1
	}

	f, err := os.Open(cfg.specFile)
	if err != nil {
		return fail(err)
	}
	doc, err := spec.ParseDocument(f)
	f.Close()
	if err != nil {
		return fail(err)
	}
	q, _, err := doc.BuildFloat()
	if err != nil {
		return fail(err)
	}

	opts := core.DefaultOptions()
	opts.FilterOutput = !*noFilters
	opts.IndicatorProjections = !*noIndicators

	eng := core.NewEngine[float64](core.EngineOptions{Workers: cfg.workers})
	defer eng.Close()

	var prep *core.PreparedQuery[float64]
	if cfg.order != "" {
		order, err := parseOrder(cfg.order)
		if err != nil {
			return fail(err)
		}
		if ok, err := core.InEVO(q.Shape(), order); err != nil {
			return fail(err)
		} else if !ok {
			return fail(fmt.Errorf("ordering %v is not φ-equivalent; refusing to compute a different function", order))
		}
		prep, err = eng.PrepareOrder(q, order, opts)
		if err != nil {
			return fail(err)
		}
	} else {
		prep, err = eng.PrepareOpts(q, opts)
		if err != nil {
			return fail(err)
		}
	}
	plan := prep.Plan()
	fmt.Fprintf(stdout, "ordering: %s via %s (width %.3f)\n",
		core.OrderString(plan.Order, q.VarName), plan.Method, plan.Width)

	ctx := context.Background()
	var res *core.Result[float64]
	for run := 0; run < cfg.repeat; run++ {
		start := time.Now()
		res, err = prep.Run(ctx)
		if err != nil {
			return fail(err)
		}
		if cfg.mode == "prepared" {
			fmt.Fprintf(stdout, "run %d: %s\n", run, time.Since(start).Round(time.Microsecond))
		}
	}
	if cfg.mode == "prepared" {
		// The full plan-cache snapshot, so prepared-mode amortization is
		// visible without a debugger: one miss (the Prepare), then pure runs.
		st := eng.StatsSnapshot()
		fmt.Fprintf(stdout, "engine: %d prepared, %d plan hits, %d plan misses, %d coalesced, %d plans cached\n",
			st.Prepared, st.PlanCacheHits, st.PlanCacheMisses, st.PlanCoalesced, st.PlansCached)
		fmt.Fprintf(stdout, "engine: %d runs, %d cancelled — planning amortized over %d run(s)\n",
			st.Runs, st.RunsCancelled, st.Runs)
	}
	fmt.Fprintf(stdout, "stats: %d eliminations, %d intermediate rows (max %d), %d join probes\n",
		res.Stats.Eliminations, res.Stats.IntermediateRows, res.Stats.MaxIntermediate, res.Stats.Join.Probes)

	if q.NumFree == 0 {
		fmt.Fprintf(stdout, "value: %v\n", res.Scalar())
		return 0
	}
	fmt.Fprintf(stdout, "output: %d tuples over (", res.Output.Size())
	for i, v := range res.Output.Vars {
		if i > 0 {
			fmt.Fprint(stdout, ", ")
		}
		fmt.Fprint(stdout, q.VarName(v))
	}
	fmt.Fprintln(stdout, ")")
	var tup []int
	for i := 0; i < res.Output.Size(); i++ {
		if i >= cfg.maxRows {
			fmt.Fprintf(stdout, "  ... %d more rows\n", res.Output.Size()-cfg.maxRows)
			break
		}
		tup = res.Output.Tuple(i, tup)
		fmt.Fprintf(stdout, "  %v = %v\n", tup, res.Output.Values[i])
	}
	return 0
}
