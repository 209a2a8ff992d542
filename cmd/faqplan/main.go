// faqplan prints the ordering-theory pipeline of Figure 1 for a query:
// hypergraph → expression tree (compartmentalization + compression,
// Figures 2–6) → precedence poset → linear extensions → planned orderings
// and their FAQ-widths.
//
// Usage:
//
//	faqplan -example 6.2|6.19|5.6|chen-dalmau [-json]
//	faqplan -spec query.faq [-json]
//
// -json emits the report as JSON — the same PlanReport structure the faqd
// daemon serves on /v1/plan — instead of the human-readable pipeline.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"github.com/faqdb/faq/internal/core"
	"github.com/faqdb/faq/internal/server"
	"github.com/faqdb/faq/internal/spec"
)

func main() {
	// A fresh FlagSet per call keeps main re-runnable from tests.
	fs := flag.NewFlagSet("faqplan", flag.ExitOnError)
	example := fs.String("example", "", "built-in example: 6.2, 6.19, 5.6 or chen-dalmau")
	specFile := fs.String("spec", "", "query specification file (see internal/spec)")
	jsonOut := fs.Bool("json", false, "emit the plan report as JSON (the /v1/plan structure)")
	fs.Parse(os.Args[1:])

	var s *core.Shape
	var name func(int) string
	var specQuery *core.Query[float64]
	switch {
	case *specFile != "":
		f, err := os.Open(*specFile)
		if err != nil {
			log.Fatal(err)
		}
		doc, err := spec.ParseDocument(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		q, _, err := doc.BuildFloat()
		if err != nil {
			log.Fatal(err)
		}
		specQuery = q
		s = q.Shape()
		name = q.VarName
	case *example != "":
		var err error
		s, name, err = server.BuiltinExample(*example)
		if err != nil {
			log.Fatal(err)
		}
	default:
		fs.Usage()
		os.Exit(2)
	}

	// Both output modes render the same BuildPlanReport result — the
	// structure /v1/plan serves — so the human and JSON pipelines cannot
	// drift apart.
	rep, err := server.BuildPlanReport(context.Background(), s, name)
	if err != nil {
		log.Fatal(err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Printf("hypergraph: %s\n", rep.Hypergraph)
	fmt.Printf("tags:       %v\n", rep.Tags)

	fmt.Println("\nexpression tree (Definition 6.18, as in Figures 2–6):")
	fmt.Print(rep.ExpressionTree)
	if rep.SoundExpressionTree != "" {
		fmt.Println("expression tree (flat-rewriting sound form; non-closed Σ anchored):")
		fmt.Print(rep.SoundExpressionTree)
	}

	fmt.Printf("\nprecedence poset: %d ordered pairs, %d linear extensions (capped at 10000)\n",
		rep.PosetPairs, rep.LinearExtensions)

	fmt.Println("\nplans:")
	for _, p := range rep.Plans {
		fmt.Printf("  %-12s width %.3f  σ = (%s)\n", p.Method, p.Width, strings.Join(p.Order, ", "))
	}
	fmt.Printf("\nfhtw(H) = %.3f (lower bound when all orderings are equivalent)\n", rep.FHTW)

	// For an executable spec, show what an Engine would serve: the plan a
	// Prepare caches and the cache behavior of a repeated shape.
	if specQuery != nil {
		eng := core.NewEngine[float64](core.EngineOptions{Workers: 1})
		defer eng.Close()
		prep, err := eng.Prepare(specQuery)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := eng.Prepare(specQuery); err != nil { // same shape: cache hit
			log.Fatal(err)
		}
		st := eng.Stats()
		fmt.Printf("\nengine: Prepare caches %-12s width %.3f  σ = %s\n",
			prep.Plan().Method, prep.Plan().Width, core.OrderString(prep.Plan().Order, name))
		fmt.Printf("engine: repeated shape -> %d plan miss, %d plan hit\n",
			st.PlanCacheMisses, st.PlanCacheHits)
	}
}
