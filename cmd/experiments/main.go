// experiments regenerates every evaluation artifact of the paper as
// console tables: the eight rows of Table 1 (InsideOut vs the prior
// baseline on matched workloads), the Example 5.6 ordering experiment, the
// Section 8.3 β-acyclic SAT/#SAT scaling, the Section 8.5 composition gap,
// and the Figures 2–6 expression trees.  EXPERIMENTS.md records one full
// run.
//
// Usage:
//
//	experiments [-only substring] [-seed n] [-workers n]
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	faq "github.com/faqdb/faq"
	"github.com/faqdb/faq/internal/cnf"
	"github.com/faqdb/faq/internal/compose"
	"github.com/faqdb/faq/internal/core"
	"github.com/faqdb/faq/internal/hypergraph"
	"github.com/faqdb/faq/internal/logicq"
	"github.com/faqdb/faq/internal/matrixops"
	"github.com/faqdb/faq/internal/pgm"
	"github.com/faqdb/faq/internal/reljoin"
)

var (
	only    = flag.String("only", "", "run only experiments whose id contains this substring")
	seed    = flag.Int64("seed", 1, "workload seed")
	workers = flag.Int("workers", 0, "worker-pool size for PAR-executor (0 = GOMAXPROCS, 1 = sequential)")
)

func main() {
	flag.Parse()
	for _, e := range experiments {
		if *only != "" && !strings.Contains(e.id, *only) {
			continue
		}
		fmt.Printf("\n## %s — %s\n\n", e.id, e.title)
		e.run()
	}
}

type experiment struct {
	id    string
	title string
	run   func()
}

var experiments = []experiment{
	{"T1.1-sharpqcq", "#QCQ: InsideOut vs naive enumeration", runSharpQCQ},
	{"T1.2-qcq", "QCQ: Chen–Dalmau family, faqw ≤ 2 vs prefix width n+1", runQCQ},
	{"T1.3-sharpcq", "#CQ: counting over free variables", runSharpCQ},
	{"T1.4-joins", "Joins: triangle on the skew instance, WCOJ vs binary plans", runJoins},
	{"T1.5-marginal", "Marginal: cycle model, fhtw-planned elimination vs enumeration", runMarginal},
	{"T1.6-map", "MAP: grid model, max-product", runMAP},
	{"T1.7-mcm", "MCM: FAQ planner vs textbook DP", runMCM},
	{"T1.8-dft", "DFT: FAQ-FFT O(N log N) vs naive O(N²)", runDFT},
	{"EX5.6-orderings", "Example 5.6: width-2 vs width-1 equivalent orderings", runExample56},
	{"S8.3-sat", "β-acyclic SAT: NEO resolution vs DPLL (peak clauses)", runSAT},
	{"S8.3-sharpsat", "β-acyclic #SAT: Theorem 8.4 elimination vs 2^n enumeration", runSharpSAT},
	{"S8.5-gap", "Composition: Lemma 8.7 star-of-stars width gap", runGap},
	{"FIG-trees", "Figures 2–6: expression trees", runTrees},
	{"PAR-executor", "Parallel executor: sequential vs block-parallel worker pool", runParallel},
	{"ENG-prepared", "Engine: prepare-once-run-many amortization vs a fresh engine per call", runPrepared},
}

func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

func row(cols ...interface{}) {
	parts := make([]string, len(cols))
	for i, c := range cols {
		switch v := c.(type) {
		case time.Duration:
			parts[i] = fmt.Sprintf("%12s", v.Round(time.Microsecond))
		case float64:
			parts[i] = fmt.Sprintf("%12.4g", v)
		default:
			parts[i] = fmt.Sprintf("%12v", v)
		}
	}
	fmt.Println("  " + strings.Join(parts, " | "))
}

// --- Table 1 ---------------------------------------------------------------

func starQuery(rng *rand.Rand, dom int, quants []logicq.Quantifier) *logicq.Query {
	rel := func(name string) *logicq.Relation {
		r := &logicq.Relation{Name: name, Arity: 2}
		seen := map[[2]int]bool{}
		for len(seen) < dom*dom*3/4 {
			e := [2]int{rng.Intn(dom), rng.Intn(dom)}
			if !seen[e] {
				seen[e] = true
				r.Add(e[0], e[1])
			}
		}
		return r
	}
	return &logicq.Query{
		NumVars: 4, NumFree: 1,
		DomSizes: []int{dom, dom, dom, dom},
		Quants:   quants,
		Atoms: []logicq.Atom{
			{Rel: rel("R1"), Vars: []int{0, 1}},
			{Rel: rel("R2"), Vars: []int{0, 2}},
			{Rel: rel("R3"), Vars: []int{2, 3}},
		},
	}
}

func runSharpQCQ() {
	eng := core.NewEngine[int64](core.EngineOptions{})
	defer eng.Close()
	row("dom", "insideout", "naive", "count")
	for _, dom := range []int{8, 16, 24} {
		q := starQuery(rand.New(rand.NewSource(*seed)), dom, []logicq.Quantifier{logicq.ForAll, logicq.Exists, logicq.ForAll})
		var got int64
		tIO := timeIt(func() { got, _ = logicq.CountQCQ(eng, q) })
		var want int64
		tNaive := timeIt(func() { want, _ = logicq.NaiveCount(q) })
		check(got == want, "#QCQ mismatch")
		row(dom, tIO, tNaive, got)
	}
}

func runQCQ() {
	eng := core.NewEngine[bool](core.EngineOptions{})
	defer eng.Close()
	row("n", "insideout", "naive", "faqw", "prefixw")
	for _, n := range []int{3, 4, 5} {
		dom := 4
		s := &logicq.Relation{Name: "S", Arity: n}
		tuple := make([]int, n)
		var fill func(int)
		fill = func(i int) {
			if i == n {
				s.Add(tuple...)
				return
			}
			for v := 0; v < dom; v++ {
				tuple[i] = v
				fill(i + 1)
			}
		}
		fill(0)
		r := &logicq.Relation{Name: "R", Arity: 2}
		for a := 0; a < dom; a++ {
			r.Add(a, (a+1)%dom)
		}
		q := logicq.ChenDalmau(n, s, r, dom)
		var holds bool
		tIO := timeIt(func() {
			out, _ := logicq.SolveQCQ(eng, q)
			holds = out.Size() > 0
		})
		var naive bool
		tNaive := timeIt(func() { naive, _ = logicq.NaiveBool(q) })
		check(holds == naive, "QCQ mismatch")
		cq, _ := logicq.CompileQCQ(q)
		shape := cq.Shape()
		plan, _ := faq.PlanExact(shape, faq.NewWidthCalc(shape.H))
		row(n, tIO, tNaive, plan.Width, n+1)
	}
}

func runSharpCQ() {
	eng := core.NewEngine[int64](core.EngineOptions{})
	defer eng.Close()
	row("dom", "insideout", "naive", "count")
	for _, dom := range []int{8, 16, 24} {
		q := starQuery(rand.New(rand.NewSource(*seed+1)), dom, []logicq.Quantifier{logicq.Exists, logicq.Exists, logicq.Exists})
		var got int64
		tIO := timeIt(func() { got, _ = logicq.CountCQ(eng, q) })
		var want int64
		tNaive := timeIt(func() { want, _ = logicq.NaiveCount(q) })
		check(got == want, "#CQ mismatch")
		row(dom, tIO, tNaive, got)
	}
}

func runJoins() {
	eng := core.NewEngine[bool](core.EngineOptions{})
	defer eng.Close()
	row("N", "insideout", "hashjoin", "peak-intermediate", "output")
	for _, n := range []int{128, 512, 2048} {
		edges, dom := reljoin.SkewTriangleEdges(n)
		in := reljoin.Triangle(dom, edges)
		var out [][]int
		tIO := timeIt(func() { out, _ = in.RunInsideOut(eng) })
		var peak int
		var hj [][]int
		tHJ := timeIt(func() { hj, peak, _ = in.RunHashJoin(nil) })
		check(len(out) == len(hj), "join mismatch")
		row(n, tIO, tHJ, peak, len(out))
	}
}

func runMarginal() {
	eng := core.NewEngine[float64](core.EngineOptions{})
	defer eng.Close()
	row("dom", "insideout", "bruteforce", "Z")
	for _, dom := range []int{4, 8, 12} {
		m := pgm.Cycle(rand.New(rand.NewSource(*seed+2)), 6, dom)
		m.Engine = eng
		var z float64
		tIO := timeIt(func() { z, _ = m.Partition() })
		tBF := time.Duration(0)
		if dom <= 8 {
			tBF = timeIt(func() { _, _ = m.MarginalBrute(nil) })
		}
		row(dom, tIO, tBF, z)
	}
}

func runMAP() {
	eng := core.NewEngine[float64](core.EngineOptions{})
	defer eng.Close()
	row("dom", "insideout", "bruteforce", "MAP")
	for _, dom := range []int{3, 4, 8} {
		m := pgm.Grid(rand.New(rand.NewSource(*seed+3)), 3, 3, dom)
		m.Engine = eng
		var v float64
		tIO := timeIt(func() { v, _ = m.MAPValue() })
		tBF := time.Duration(0)
		if dom <= 4 {
			var w float64
			tBF = timeIt(func() { w, _ = m.MAPBrute() })
			check(approx(v, w), "MAP mismatch")
		}
		row(dom, tIO, tBF, v)
	}
}

func runMCM() {
	rng := rand.New(rand.NewSource(*seed + 4))
	dims := []int{24, 4, 32, 6, 28, 8}
	ms := make([]*matrixops.Matrix, len(dims)-1)
	for i := range ms {
		ms[i] = matrixops.NewMatrix(dims[i], dims[i+1])
		for j := range ms[i].Data {
			ms[i].Data[j] = rng.Float64()
		}
	}
	var dpCost, dpOps int64
	tDP := timeIt(func() { _, dpCost, dpOps, _ = matrixops.ChainDP(ms) })
	eng := core.NewEngine[float64](core.EngineOptions{})
	defer eng.Close()
	var plan *core.Plan
	tFAQ := timeIt(func() { _, plan, _ = matrixops.ChainFAQ(eng, ms) })
	row("dims", "faq", "dp", "dp-cost")
	row(fmt.Sprint(dims), tFAQ, tDP, dpCost)
	fmt.Printf("  planner σ = %v (width %.2f); DP performed %d multiplies\n",
		plan.Order, plan.Width, dpOps)
}

func runDFT() {
	eng := core.NewEngine[complex128](core.EngineOptions{})
	defer eng.Close()
	row("N", "faq-fft", "naive", "max-err")
	for _, m := range []int{8, 10, 12} {
		n := 1 << m
		rng := rand.New(rand.NewSource(*seed + 5))
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.Float64(), 0)
		}
		var fast []complex128
		tFAQ := timeIt(func() { fast, _ = matrixops.FFTViaFAQ(eng, x, 2, m) })
		var slow []complex128
		tNaive := timeIt(func() { slow = matrixops.NaiveDFT(x) })
		maxErr := 0.0
		for i := range slow {
			if d := absC(fast[i] - slow[i]); d > maxErr {
				maxErr = d
			}
		}
		row(n, tFAQ, tNaive, maxErr)
	}
}

// --- Example 5.6 -------------------------------------------------------------

func runExample56() {
	eng := faq.NewEngine[float64](faq.EngineOptions{})
	defer eng.Close()
	ctx := context.Background()
	row("N", "σ-expression (width 2)", "σ-paper (width 1)")
	for _, n := range []int{64, 128, 256} {
		q := example56Skew(rand.New(rand.NewSource(*seed+6)), n)
		pExpr, err := eng.PrepareOrder(q, []int{0, 1, 2, 3, 4, 5}, faq.DefaultOptions())
		check(err == nil, "Example 5.6 prepare (expression)")
		pPaper, err := eng.PrepareOrder(q, []int{4, 0, 1, 2, 3, 5}, faq.DefaultOptions())
		check(err == nil, "Example 5.6 prepare (paper)")
		var a, b *faq.Result[float64]
		tExpr := timeIt(func() { a, _ = pExpr.Run(ctx) })
		tPaper := timeIt(func() { b, _ = pPaper.Run(ctx) })
		check(approx(a.Scalar(), b.Scalar()), "Example 5.6 mismatch")
		row(n, tExpr, tPaper)
	}
}

// example56Skew builds Example 5.6 with the adversarial skew: ψ{0,4} and
// ψ{1,4} concentrate on a single x4 value, so the width-2 expression order
// materializes an N²-row intermediate when it eliminates x4, while the
// paper's width-1 ordering (4,0,1,2,3,5) stays linear.
func example56Skew(rng *rand.Rand, n int) *faq.Query[float64] {
	d := faq.Float()
	skew := func(vars []int) *faq.Factor[float64] {
		var tuples [][]int
		var values []float64
		for i := 0; i < n; i++ {
			tuples = append(tuples, []int{i, 0})
			values = append(values, 1)
		}
		f, _ := faq.NewFactor(d, vars, tuples, values, nil)
		return f
	}
	random3 := func(vars []int) *faq.Factor[float64] {
		seen := map[[3]int]bool{}
		var tuples [][]int
		var values []float64
		for len(tuples) < n {
			t := [3]int{rng.Intn(n), rng.Intn(n), rng.Intn(n)}
			if seen[t] {
				continue
			}
			seen[t] = true
			tuples = append(tuples, []int{t[0], t[1], t[2]})
			values = append(values, 1)
		}
		f, _ := faq.NewFactor(d, vars, tuples, values, nil)
		return f
	}
	return &faq.Query[float64]{
		D: d, NVars: 6, DomSizes: []int{n, n, n, n, n, n}, NumFree: 0,
		Aggs: []faq.Aggregate[float64]{
			faq.SemiringAgg(faq.OpFloatMax()), faq.SemiringAgg(faq.OpFloatMax()),
			faq.ProductAgg[float64](), faq.SemiringAgg(faq.OpFloatSum()),
			faq.SemiringAgg(faq.OpFloatMax()), faq.SemiringAgg(faq.OpFloatMax()),
		},
		Factors: []*faq.Factor[float64]{
			skew([]int{0, 4}), skew([]int{1, 4}),
			random3([]int{0, 2, 3}), random3([]int{1, 2, 5}),
		},
		IdempotentInputs: true,
	}
}

// --- Section 8.3 --------------------------------------------------------------

func runSAT() {
	row("n", "neo-resolution", "dpll", "peak/input")
	for _, n := range []int{32, 64, 128} {
		f := cnf.RandomInterval(rand.New(rand.NewSource(*seed+7)), n, n*3/2, 5)
		order, _ := f.NestedEliminationOrder()
		var sat1, sat2 bool
		var peak int
		tNEO := timeIt(func() { sat1, peak = f.SolveDirectional(order) })
		tDPLL := timeIt(func() { sat2 = f.SolveDPLL() })
		check(sat1 == sat2, "SAT mismatch")
		row(n, tNEO, tDPLL, fmt.Sprintf("%d/%d", peak, len(f.Clauses)))
	}
}

func runSharpSAT() {
	row("n", "wsat-elim", "enumerate", "models")
	for _, n := range []int{16, 20, 64, 128} {
		f := cnf.RandomInterval(rand.New(rand.NewSource(*seed+8)), n, n*3/4, 4)
		var count string
		tElim := timeIt(func() {
			c, err := f.CountBetaAcyclic()
			check(err == nil, "elimination failed")
			count = c.String()
		})
		tEnum := time.Duration(0)
		if n <= 20 {
			var want string
			tEnum = timeIt(func() { want = f.CountAssignmentsBrute().String() })
			check(count == want, "#SAT mismatch")
		}
		row(n, tElim, tEnum, count)
	}
}

// --- Section 8.5 ---------------------------------------------------------------

func runGap() {
	row("n", "fhtw(H0)", "max fhtw(H1)", "fhtw(H0∘H1)", "Prop8.5 bound")
	for _, n := range []int{3, 4, 5} {
		h0, inner := compose.StarOfStars(n)
		comp, _ := compose.Compose(h0, inner)
		w0 := hypergraph.NewWidthCalc(h0)
		f0, _ := w0.FHTW()
		maxInner := 0.0
		for _, sub := range inner {
			wi := hypergraph.NewWidthCalc(sub)
			fi, _ := wi.FHTW()
			if fi > maxInner {
				maxInner = fi
			}
		}
		wc := hypergraph.NewWidthCalc(comp)
		fc, _ := wc.FHTW()
		bound, _ := compose.Proposition85Bound(h0, inner)
		row(n, f0, maxInner, fc, bound)
	}
}

// --- Figures --------------------------------------------------------------------

func runTrees() {
	name := func(v int) string { return fmt.Sprintf("x%d", v+1) }
	ex62 := shape(7,
		[]string{"op:sum", "op:sum", "op:max", "op:sum", "op:sum", "op:max", "op:max"},
		[][]int{{0, 1}, {0, 2, 4}, {0, 3}, {1, 3, 5}, {1, 6}, {2, 6}}, false)
	fmt.Println("Example 6.2 (Figures 2–3):")
	fmt.Print(core.BuildExprTreeScoped(ex62).Pretty(name))
	ex619 := shape(8,
		[]string{"op:max", "op:max", "op:sum", "op:sum", "⊗", "op:max", "⊗", "op:max"},
		[][]int{{0, 2}, {1, 3}, {2, 3}, {0, 4}, {0, 5}, {1, 5}, {1, 4, 6}, {0, 5, 6}, {1, 6, 7}}, true)
	fmt.Println("Example 6.19 (Figures 4–6, scoped):")
	fmt.Print(core.BuildExprTreeScoped(ex619).Pretty(name))
	fmt.Println("Example 6.19 (flat-rewriting sound):")
	fmt.Print(core.BuildExprTree(ex619).Pretty(name))
}

func shape(n int, tags []string, edges [][]int, idem bool) *core.Shape {
	s := &core.Shape{
		H: hypergraph.NewWithEdges(n, edges...), N: n,
		Tags: tags, IdempotentInputs: idem,
	}
	for i, t := range tags {
		if t == "⊗" {
			s.Product.Add(i)
		}
		if t == "op:sum" {
			s.NonClosed.Add(i)
		}
	}
	return s
}

func check(ok bool, msg string) {
	if !ok {
		panic(msg)
	}
}

func approx(a, b float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	scale := a
	if b > a {
		scale = b
	}
	return diff <= 1e-9*scale || diff == 0
}

func absC(c complex128) float64 {
	re, im := real(c), imag(c)
	return re*re + im*im
}

// --- Parallel executor ------------------------------------------------------

// triangleWorkload builds the random triangle-count query used by the
// executor and engine experiments.
func triangleWorkload(rng *rand.Rand, nodes, edges int) *faq.Query[float64] {
	d := faq.Float()
	seen := map[[2]int]bool{}
	var tuples [][]int
	var values []float64
	for len(tuples) < edges {
		e := [2]int{rng.Intn(nodes), rng.Intn(nodes)}
		if seen[e] || e[0] == e[1] {
			continue
		}
		seen[e] = true
		tuples = append(tuples, []int{e[0], e[1]})
		values = append(values, 1)
	}
	mk := func(vars []int) *faq.Factor[float64] {
		f, err := faq.NewFactor(d, vars, tuples, values, nil)
		check(err == nil, "triangle factor")
		return f
	}
	return &faq.Query[float64]{
		D: d, NVars: 3, DomSizes: []int{nodes, nodes, nodes}, NumFree: 0,
		Aggs: []faq.Aggregate[float64]{
			faq.SemiringAgg(faq.OpFloatSum()),
			faq.SemiringAgg(faq.OpFloatSum()),
			faq.SemiringAgg(faq.OpFloatSum()),
		},
		Factors: []*faq.Factor[float64]{mk([]int{0, 1}), mk([]int{1, 2}), mk([]int{0, 2})},
	}
}

// runParallel times the same triangle-count query on a sequential engine
// (Workers=1) and a pooled engine (the -workers flag; 0 means GOMAXPROCS),
// checking that both return the identical count.  Both queries are prepared
// once with the expression order, so the comparison is pure executor time.
func runParallel() {
	pool := runtime.GOMAXPROCS(0)
	if *workers > 0 {
		pool = *workers
	}
	fmt.Printf("  pool size %d (GOMAXPROCS %d)\n", pool, runtime.GOMAXPROCS(0))
	engSeq := faq.NewEngine[float64](faq.EngineOptions{Workers: 1})
	defer engSeq.Close()
	engPool := faq.NewEngine[float64](faq.EngineOptions{Workers: pool})
	defer engPool.Close()
	ctx := context.Background()
	row("nodes", "sequential", "pool", "speedup", "triangles")
	for _, nodes := range []int{1000, 2000, 4000} {
		q := triangleWorkload(rand.New(rand.NewSource(*seed)), nodes, nodes*16)
		order := []int{0, 1, 2}
		pSeq, err := engSeq.PrepareOrder(q, order, faq.DefaultOptions())
		check(err == nil, "sequential prepare")
		pPool, err := engPool.PrepareOrder(q, order, faq.DefaultOptions())
		check(err == nil, "pool prepare")
		var seqRes, poolRes *faq.Result[float64]
		tSeq := timeIt(func() {
			r, err := pSeq.Run(ctx)
			check(err == nil, "sequential insideout")
			seqRes = r
		})
		tPool := timeIt(func() {
			r, err := pPool.Run(ctx)
			check(err == nil, "pool insideout")
			poolRes = r
		})
		check(seqRes.Scalar() == poolRes.Scalar(), "executor results diverged")
		row(nodes, tSeq, tPool, float64(tSeq)/float64(tPool), seqRes.Scalar())
	}
}

// runPrepared is the serving-amortization experiment: the same triangle
// shape is answered repeatedly over fresh edge sets, once with a fresh
// engine per call (planning, pool start-up and trie builds every time) and
// once with one engine's Prepare + RunWithFactors (planning once, swapping
// data).  The delta is the per-call set-up the prepared path amortizes
// away, the Section 6–7 planning cost above all.
func runPrepared() {
	const runs = 8
	eng := faq.NewEngine[float64](faq.EngineOptions{Workers: *workers})
	defer eng.Close()
	ctx := context.Background()
	row("nodes", "fresh×"+fmt.Sprint(runs), "prepared×"+fmt.Sprint(runs), "speedup", "checksum")
	for _, nodes := range []int{500, 1000, 2000} {
		datasets := make([]*faq.Query[float64], runs)
		for i := range datasets {
			datasets[i] = triangleWorkload(rand.New(rand.NewSource(*seed+int64(i))), nodes, nodes*16)
		}
		var freshSum float64
		tFresh := timeIt(func() {
			for _, q := range datasets {
				fresh := faq.NewEngine[float64](faq.EngineOptions{Workers: *workers})
				prep, err := fresh.Prepare(q)
				check(err == nil, "fresh prepare")
				res, err := prep.Run(ctx)
				check(err == nil, "fresh run")
				fresh.Close()
				freshSum += res.Scalar()
			}
		})
		var prepSum float64
		tPrep := timeIt(func() {
			prep, err := eng.Prepare(datasets[0])
			check(err == nil, "prepare")
			for _, q := range datasets {
				res, err := prep.RunWithFactors(ctx, q.Factors)
				check(err == nil, "prepared run")
				prepSum += res.Scalar()
			}
		})
		check(freshSum == prepSum, "prepared runs diverged from fresh engines")
		row(nodes, tFresh, tPrep, float64(tFresh)/float64(tPrep), prepSum)
	}
	st := eng.Stats()
	fmt.Printf("  engine: %d prepared, %d plan hits, %d misses, %d runs\n",
		st.Prepared, st.PlanCacheHits, st.PlanCacheMisses, st.Runs)
}
