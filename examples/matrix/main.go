// Matrix operations as FAQ instances (Table 1 rows MCM and DFT):
// matrix chain multiplication, where the planner's exact DP recovers the
// textbook parenthesization, and the DFT over Z_{2^m}, where variable
// elimination along the expression order is the Cooley–Tukey FFT.  The DFT
// runs on the prepared-transform API: matrixops.NewFFT plans the size-N
// transform once on an engine, then Transform streams signals through the
// cached plan — the repeated-transform loop of a DSP pipeline.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/cmplx"
	"math/rand"

	"github.com/faqdb/faq/internal/core"
	"github.com/faqdb/faq/internal/matrixops"
)

func main() {
	rng := rand.New(rand.NewSource(5))

	// --- Matrix chain multiplication ---
	dims := []int{10, 100, 5, 50}
	ms := make([]*matrixops.Matrix, len(dims)-1)
	for i := range ms {
		ms[i] = matrixops.NewMatrix(dims[i], dims[i+1])
		for j := range ms[i].Data {
			ms[i].Data[j] = rng.Float64()
		}
	}
	dpOut, dpCost, dpOps, err := matrixops.ChainDP(ms)
	if err != nil {
		log.Fatal(err)
	}
	chain := core.NewEngine[float64](core.EngineOptions{})
	defer chain.Close()
	faqOut, plan, err := matrixops.ChainFAQ(chain, ms)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MCM dims %v\n", dims)
	fmt.Printf("  DP parenthesization cost: %d scalar multiplies (performed %d)\n", dpCost, dpOps)
	fmt.Printf("  FAQ planner ordering:     %v (width %.2f)\n", plan.Order, plan.Width)
	maxDiff := 0.0
	for i := range dpOut.Data {
		if d := math.Abs(dpOut.Data[i] - faqOut.Data[i]); d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Printf("  max |DP − FAQ| entry:     %.2e\n", maxDiff)

	// --- DFT / FFT: prepare the transform once, stream signals through ---
	const m = 10
	n := 1 << m
	eng := core.NewEngine[complex128](core.EngineOptions{})
	defer eng.Close()
	fft, err := matrixops.NewFFT(eng, 2, m)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	fmt.Printf("DFT N=%d (p=2, m=%d), prepared once\n", n, m)
	for signal := 0; signal < 3; signal++ {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.Float64()*2-1, 0)
		}
		fast, err := fft.Transform(ctx, x)
		if err != nil {
			log.Fatal(err)
		}
		slow := matrixops.NaiveDFT(x)
		worst := 0.0
		for i := range slow {
			if d := cmplx.Abs(fast[i] - slow[i]); d > worst {
				worst = d
			}
		}
		fmt.Printf("  signal %d: max |FAQ-FFT − naive DFT| = %.2e\n", signal, worst)
	}
	st := eng.Stats()
	fmt.Printf("  engine: %d prepare, %d transforms on the cached plan\n", st.Prepared, st.Runs)
	fmt.Println("  (the FAQ eliminates y-digits one by one: each step costs O(pN) — Cooley–Tukey)")
}
