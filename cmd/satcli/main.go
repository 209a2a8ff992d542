// satcli decides satisfiability or counts models of a DIMACS CNF file,
// using the β-acyclic fast paths of Section 8.3 (Theorems 8.3/8.4) when the
// clause hypergraph admits a nested elimination order, and falling back to
// DPLL / reporting intractability otherwise.
//
// Usage:
//
//	satcli [-count] [-faq] [-workers n] [file.cnf]    (stdin when no file)
//
// -count -faq routes #SAT through the generic FAQ engine instead of the
// β-acyclic fast path: the formula compiles to a counting-semiring query
// (Table 1 row #SAT), the engine plans an elimination order, and InsideOut
// counts the models on the engine's worker pool.  It works on arbitrary
// clause hypergraphs within the planner's width limits.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/faqdb/faq/internal/cnf"
	"github.com/faqdb/faq/internal/core"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the whole program on an explicit argument list and streams (stdin
// is read when no file is named), returning the exit status: 0 on success,
// 2 on a usage error, 1 when the formula cannot be read or solved.  Flags
// live on a FlagSet of their own, so run can be called any number of times
// in one process.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("satcli", flag.ContinueOnError)
	fs.SetOutput(stderr)
	count := fs.Bool("count", false, "count satisfying assignments (#SAT)")
	useFAQ := fs.Bool("faq", false, "with -count: count via the FAQ engine instead of the beta-acyclic fast path")
	workers := fs.Int("workers", 0, "FAQ engine worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workers < 0 {
		fmt.Fprintf(stderr, "satcli: -workers must be >= 0, got %d\n", *workers)
		return 2
	}
	if *useFAQ && !*count {
		fmt.Fprintln(stderr, "satcli: -faq requires -count")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "satcli: %v\n", err)
		return 1
	}

	r := stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		r = f
	}
	f, err := cnf.ParseDIMACS(r)
	if err != nil {
		return fail(err)
	}

	order, beta := f.NestedEliminationOrder()
	fmt.Fprintf(stderr, "c %d variables, %d clauses, beta-acyclic: %v\n",
		f.NumVars, len(f.Clauses), beta)

	if *count {
		if *useFAQ {
			if f.NumVars > 62 {
				return fail(fmt.Errorf("-faq counts in int64 (max 2^62 models); formula has %d variables", f.NumVars))
			}
			eng := core.NewEngine[int64](core.EngineOptions{Workers: *workers})
			defer eng.Close()
			prep, err := eng.Prepare(f.FAQQuery())
			if err != nil {
				return fail(err)
			}
			res, err := prep.Run(context.Background())
			if err != nil {
				return fail(err)
			}
			fmt.Fprintf(stderr, "c faq plan: %s width %.3f\n",
				prep.Plan().Method, prep.Plan().Width)
			fmt.Fprintf(stdout, "s mc %d\n", res.Scalar())
			return 0
		}
		if beta {
			n, err := f.CountBetaAcyclic()
			if err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "s mc %s\n", n)
			return 0
		}
		if f.NumVars <= 28 {
			fmt.Fprintln(stderr, "c not beta-acyclic; falling back to enumeration")
			fmt.Fprintf(stdout, "s mc %s\n", f.CountAssignmentsBrute())
			return 0
		}
		return fail(fmt.Errorf("formula is not beta-acyclic and too large to enumerate"))
	}

	var sat bool
	if beta {
		sat, _ = f.SolveDirectional(order)
	} else {
		sat = f.SolveDPLL()
	}
	if sat {
		fmt.Fprintln(stdout, "s SATISFIABLE")
	} else {
		fmt.Fprintln(stdout, "s UNSATISFIABLE")
	}
	return 0
}
