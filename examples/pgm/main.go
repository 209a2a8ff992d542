// PGM inference on a grid model: marginals (sum-product), the partition
// function, and MAP (max-product) — Table 1 rows "Marginal" and "MAP" —
// served through a long-lived FAQ engine.
//
// The model is a 3×4 grid Markov random field with random pairwise
// potentials.  InsideOut plans a variable ordering whose fractional
// hypertree width matches the grid's treewidth structure; brute force
// would enumerate d^12 assignments.  The model is bound to an engine
// through its Engine field: repeated shapes (notably the n·d conditioned MAP evaluations
// of MAPAssignment, which all share one shape) are answered from the plan
// cache — inference is the archetypal prepare-once-run-many workload.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"github.com/faqdb/faq/internal/core"
	"github.com/faqdb/faq/internal/pgm"
)

func main() {
	rng := rand.New(rand.NewSource(7))
	const rows, cols, dom = 3, 4, 4
	eng := core.NewEngine[float64](core.EngineOptions{})
	defer eng.Close()
	m := pgm.Grid(rng, rows, cols, dom)
	m.Engine = eng

	z, err := m.Partition()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("grid %dx%d, domain %d\n", rows, cols, dom)
	fmt.Printf("partition function Z = %.6g\n", z)

	mu, err := m.Marginal([]int{0})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("normalized marginal of x0:")
	for i := 0; i < mu.Size(); i++ {
		fmt.Printf("  P(x0=%d) = %.4f\n", mu.Row(i)[0], mu.Values[i]/z)
	}

	// A full single-site marginal sweep; symmetric site positions compile
	// to identical shapes and share cached plans.
	total := 0.0
	for v := 0; v < rows*cols; v++ {
		mv, err := m.Marginal([]int{v})
		if err != nil {
			log.Fatal(err)
		}
		for _, val := range mv.Values {
			total += val
		}
	}
	fmt.Printf("marginal sweep: Σ_v Σ_x μ_v(x) = %.6g (= %d·Z)\n", total, rows*cols)

	// Pairwise marginal of two opposite corners.
	corner, err := m.Marginal([]int{0, rows*cols - 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("joint marginal of x0 and x%d has %d entries\n", rows*cols-1, corner.Size())

	assignment, val, err := m.MAPAssignment()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MAP value = %.6g at assignment %v\n", val, assignment)

	// Consistency: the MAP value is the max-product objective, bounded by Z.
	if val > z {
		log.Fatal("MAP value exceeded the partition function")
	}
	fmt.Println("check: MAP ≤ Z ✓")

	st := eng.Stats()
	fmt.Printf("engine: %d prepares served by %d planning passes (%d cache hits), %d runs\n",
		st.Prepared, st.PlanCacheMisses, st.PlanCacheHits, st.Runs)
}
