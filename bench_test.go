// Benchmarks regenerating every row of Table 1 of the paper plus the
// Example 5.6 and Section 8.3 experiments.  Each family compares InsideOut
// against the paper's "previous algorithm" baseline on the same workload;
// what must reproduce is the asymptotic shape (who wins, slopes,
// crossovers), not absolute times.  cmd/experiments prints the same
// comparisons as tables; EXPERIMENTS.md records the measured outcomes.
package faq

import (
	"context"
	"math/big"
	"math/rand"
	"testing"

	"github.com/faqdb/faq/internal/cnf"
	"github.com/faqdb/faq/internal/logicq"
	"github.com/faqdb/faq/internal/matrixops"
	"github.com/faqdb/faq/internal/pgm"
	"github.com/faqdb/faq/internal/reljoin"
)

// benchEngine returns an engine of width GOMAXPROCS, closed when b ends.
func benchEngine[V any](b *testing.B) *Engine[V] {
	e := NewEngine[V](EngineOptions{})
	b.Cleanup(e.Close)
	return e
}

// benchOrder times evaluations of q along order on e.  Each iteration runs
// RunWithFactors on q's own factors, which bypasses the prepared query's
// trie cache: it validates the data, builds every trie and runs InsideOut,
// as one evaluation of fresh data does, but never replans.
func benchOrder[V any](b *testing.B, e *Engine[V], q *Query[V], order []int, opts Options) {
	prep, err := e.PrepareOrder(q, order, opts)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if _, err := prep.RunWithFactors(ctx, q.Factors); err != nil {
			b.Fatal(err)
		}
	}
}

// --- T1.1: #QCQ -----------------------------------------------------------

// sharpQCQInstance builds a star-shaped ∃/∀ query over random relations:
// Φ(x0) = ∀x1 ∃x2 ∀x3 (R1(x0,x1) ∧ R2(x0,x2) ∧ R3(x2,x3)), counted over x0.
func sharpQCQInstance(rng *rand.Rand, dom int) *logicq.Query {
	rel := func(name string, size int) *logicq.Relation {
		r := &logicq.Relation{Name: name, Arity: 2}
		seen := map[[2]int]bool{}
		for len(seen) < size {
			e := [2]int{rng.Intn(dom), rng.Intn(dom)}
			if !seen[e] {
				seen[e] = true
				r.Add(e[0], e[1])
			}
		}
		return r
	}
	size := dom * dom * 3 / 4
	if size < 1 {
		size = 1
	}
	return &logicq.Query{
		NumVars:  4,
		NumFree:  1,
		DomSizes: []int{dom, dom, dom, dom},
		Quants:   []logicq.Quantifier{logicq.ForAll, logicq.Exists, logicq.ForAll},
		Atoms: []logicq.Atom{
			{Rel: rel("R1", size), Vars: []int{0, 1}},
			{Rel: rel("R2", size), Vars: []int{0, 2}},
			{Rel: rel("R3", size), Vars: []int{2, 3}},
		},
	}
}

func BenchmarkTable1SharpQCQ(b *testing.B) {
	eng := benchEngine[int64](b)
	for _, dom := range []int{8, 16, 32} {
		q := sharpQCQInstance(rand.New(rand.NewSource(1)), dom)
		b.Run(sizeName("insideout", dom), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := logicq.CountQCQ(eng, q); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(sizeName("naive", dom), func(b *testing.B) {
			if dom > 16 {
				b.Skip("naive enumeration infeasible beyond dom=16")
			}
			for i := 0; i < b.N; i++ {
				if _, err := logicq.NaiveCount(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- T1.2: QCQ (Chen–Dalmau family) ---------------------------------------

func chenDalmauInstance(n, dom int) *logicq.Query {
	s := &logicq.Relation{Name: "S", Arity: n}
	// S = full relation (the adversarial case for prefix-width algorithms).
	tuple := make([]int, n)
	var fill func(i int)
	var count int
	fill = func(i int) {
		if count > 4096 {
			return
		}
		if i == n {
			s.Add(tuple...)
			count++
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
		r.Add(a, a%dom)
	}
	return logicq.ChenDalmau(n, s, r, dom)
}

func BenchmarkTable1QCQ(b *testing.B) {
	eng := benchEngine[bool](b)
	for _, n := range []int{3, 4, 5} {
		q := chenDalmauInstance(n, 4)
		b.Run(sizeName("insideout", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := logicq.SolveQCQ(eng, q); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(sizeName("naive", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := logicq.NaiveBool(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- T1.3: #CQ --------------------------------------------------------------

func sharpCQInstance(rng *rand.Rand, dom int) *logicq.Query {
	q := sharpQCQInstance(rng, dom)
	q.Quants = []logicq.Quantifier{logicq.Exists, logicq.Exists, logicq.Exists}
	return q
}

func BenchmarkTable1SharpCQ(b *testing.B) {
	eng := benchEngine[int64](b)
	for _, dom := range []int{8, 16, 32} {
		q := sharpCQInstance(rand.New(rand.NewSource(2)), dom)
		b.Run(sizeName("insideout", dom), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := logicq.CountCQ(eng, q); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(sizeName("naive", dom), func(b *testing.B) {
			if dom > 16 {
				b.Skip("naive enumeration infeasible beyond dom=16")
			}
			for i := 0; i < b.N; i++ {
				if _, err := logicq.NaiveCount(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- T1.4: Joins (triangle, skew instance) ---------------------------------

func BenchmarkTable1Joins(b *testing.B) {
	eng := benchEngine[bool](b)
	for _, n := range []int{128, 512, 2048} {
		edges, dom := reljoin.SkewTriangleEdges(n)
		in := reljoin.Triangle(dom, edges)
		b.Run(sizeName("insideout", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := in.RunInsideOut(eng); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(sizeName("hashjoin", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := in.RunHashJoin(nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- T1.5 / T1.6: Marginal and MAP -----------------------------------------

func BenchmarkTable1Marginal(b *testing.B) {
	eng := benchEngine[float64](b)
	for _, dom := range []int{4, 8, 16} {
		m := pgm.Cycle(rand.New(rand.NewSource(3)), 6, dom)
		m.Engine = eng
		b.Run(sizeName("insideout", dom), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.Marginal([]int{0}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(sizeName("bruteforce", dom), func(b *testing.B) {
			if dom > 8 {
				b.Skip("brute force infeasible beyond dom=8")
			}
			for i := 0; i < b.N; i++ {
				if _, err := m.MarginalBrute([]int{0}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable1MAP(b *testing.B) {
	eng := benchEngine[float64](b)
	for _, dom := range []int{4, 8, 16} {
		m := pgm.Grid(rand.New(rand.NewSource(4)), 3, 3, dom)
		m.Engine = eng
		b.Run(sizeName("insideout", dom), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.MAPValue(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(sizeName("bruteforce", dom), func(b *testing.B) {
			if dom > 4 {
				b.Skip("brute force infeasible beyond dom=4")
			}
			for i := 0; i < b.N; i++ {
				if _, err := m.MAPBrute(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- T1.7: Matrix Chain Multiplication -------------------------------------

func BenchmarkTable1MCM(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	dims := []int{24, 4, 32, 6, 28, 8}
	ms := make([]*matrixops.Matrix, len(dims)-1)
	for i := range ms {
		ms[i] = matrixops.NewMatrix(dims[i], dims[i+1])
		for j := range ms[i].Data {
			ms[i].Data[j] = rng.Float64()
		}
	}
	eng := benchEngine[float64](b)
	b.Run("faq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := matrixops.ChainFAQ(eng, ms); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, _, err := matrixops.ChainDP(ms); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- T1.8: DFT ---------------------------------------------------------------

func BenchmarkTable1DFT(b *testing.B) {
	eng := benchEngine[complex128](b)
	for _, m := range []int{8, 10, 12} {
		n := 1 << m
		rng := rand.New(rand.NewSource(6))
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.Float64(), 0)
		}
		b.Run(sizeName("faqfft", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := matrixops.FFTViaFAQ(eng, x, 2, m); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(sizeName("naive", n), func(b *testing.B) {
			if n > 1024 {
				b.Skip("quadratic DFT too slow beyond 1024")
			}
			for i := 0; i < b.N; i++ {
				matrixops.NaiveDFT(x)
			}
		})
	}
}

// --- Example 5.6: effect of the variable ordering ---------------------------

// example56Query instantiates Example 5.6 with {0,1}-valued factors and the
// adversarial skew: ψ{0,4} and ψ{1,4} concentrate on one x4 value, so the
// width-2 expression order pays an N²-row intermediate while the paper's
// width-1 ordering (4,0,1,2,3,5) stays linear.
func example56Query(rng *rand.Rand, n int) *Query[float64] {
	d := Float()
	dom := n
	skew := func(vars []int) *Factor[float64] {
		var tuples [][]int
		var values []float64
		for i := 0; i < n; i++ {
			tuples = append(tuples, []int{i, 0})
			values = append(values, 1)
		}
		f, err := NewFactor(d, vars, tuples, values, nil)
		if err != nil {
			panic(err)
		}
		return f
	}
	random3 := func(vars []int) *Factor[float64] {
		seen := map[[3]int]bool{}
		var tuples [][]int
		var values []float64
		for len(tuples) < n {
			t := [3]int{rng.Intn(dom), rng.Intn(dom), rng.Intn(dom)}
			if seen[t] {
				continue
			}
			seen[t] = true
			tuples = append(tuples, []int{t[0], t[1], t[2]})
			values = append(values, 1)
		}
		f, err := NewFactor(d, vars, tuples, values, nil)
		if err != nil {
			panic(err)
		}
		return f
	}
	return &Query[float64]{
		D:        d,
		NVars:    6,
		DomSizes: []int{dom, dom, dom, dom, dom, dom},
		NumFree:  0,
		Aggs: []Aggregate[float64]{
			SemiringAgg(OpFloatMax()),
			SemiringAgg(OpFloatMax()),
			ProductAgg[float64](),
			SemiringAgg(OpFloatSum()),
			SemiringAgg(OpFloatMax()),
			SemiringAgg(OpFloatMax()),
		},
		Factors: []*Factor[float64]{
			skew([]int{0, 4}), skew([]int{1, 4}),
			random3([]int{0, 2, 3}), random3([]int{1, 2, 5}),
		},
		IdempotentInputs: true,
	}
}

func BenchmarkExample56Orderings(b *testing.B) {
	eng := benchEngine[float64](b)
	for _, n := range []int{32, 64, 128} {
		q := example56Query(rand.New(rand.NewSource(7)), n)
		expr := q.Shape().ExpressionOrder()
		paper := []int{4, 0, 1, 2, 3, 5} // the width-1 ordering of the paper
		b.Run(sizeName("width2-expression", n), func(b *testing.B) {
			benchOrder(b, eng, q, expr, DefaultOptions())
		})
		b.Run(sizeName("width1-planned", n), func(b *testing.B) {
			benchOrder(b, eng, q, paper, DefaultOptions())
		})
	}
}

// --- Section 8.3: β-acyclic SAT and #SAT -------------------------------------

func BenchmarkBetaAcyclicSAT(b *testing.B) {
	for _, n := range []int{24, 48, 96} {
		f := cnf.RandomInterval(rand.New(rand.NewSource(8)), n, n*3/2, 5)
		order, ok := f.NestedEliminationOrder()
		if !ok {
			b.Fatal("interval formula must be β-acyclic")
		}
		b.Run(sizeName("neo-resolution", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.SolveDirectional(order)
			}
		})
		b.Run(sizeName("dpll", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.SolveDPLL()
			}
		})
	}
}

func BenchmarkBetaAcyclicSharpSAT(b *testing.B) {
	for _, n := range []int{16, 20, 64} {
		f := cnf.RandomInterval(rand.New(rand.NewSource(9)), n, n*3/2, 4)
		b.Run(sizeName("wsat-elim", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := f.CountBetaAcyclic(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(sizeName("enumerate", n), func(b *testing.B) {
			if n > 20 {
				b.Skip("2^n enumeration infeasible")
			}
			var sink *big.Int
			for i := 0; i < b.N; i++ {
				sink = f.CountAssignmentsBrute()
			}
			_ = sink
		})
	}
}

// --- Ablations ----------------------------------------------------------------

// BenchmarkAblationIndicatorProjections measures Eq. (7)'s semijoin-style
// reduction: a selective third relation prunes the intermediate result only
// when indicator projections participate.
func BenchmarkAblationIndicatorProjections(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	n, dom := 4096, 256
	d := Float()
	pairs := func(vars []int) *Factor[float64] {
		var tuples [][]int
		var values []float64
		for i := 0; i < n; i++ {
			tuples = append(tuples, []int{rng.Intn(dom), rng.Intn(dom)})
			values = append(values, 1)
		}
		f, err := NewFactor(d, vars, tuples, values, func(a, b float64) float64 { return a })
		if err != nil {
			b.Fatal(err)
		}
		return f
	}
	// Selective unary factor on x0: only a few values survive.
	sel := FromFunc(d, []int{0}, []int{dom, dom, dom}, func(t []int) float64 {
		if t[0] < 4 {
			return 1
		}
		return 0
	})
	q := &Query[float64]{
		D: d, NVars: 3, DomSizes: []int{dom, dom, dom}, NumFree: 0,
		Aggs: []Aggregate[float64]{
			SemiringAgg(OpFloatSum()), SemiringAgg(OpFloatSum()), SemiringAgg(OpFloatSum()),
		},
		Factors: []*Factor[float64]{pairs([]int{0, 1}), pairs([]int{1, 2}), sel},
	}
	order := []int{0, 1, 2}
	eng := benchEngine[float64](b)
	for _, on := range []bool{true, false} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			opts := DefaultOptions()
			opts.IndicatorProjections = on
			benchOrder(b, eng, q, order, opts)
		})
	}
}

// BenchmarkAblationPlanner compares the expression-order width against the
// planned width on a cycle written in the worst order.
func BenchmarkAblationPlanner(b *testing.B) {
	m := pgm.Cycle(rand.New(rand.NewSource(11)), 8, 6)
	m.Engine = benchEngine[float64](b)
	b.Run("planned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := m.Partition(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bruteforce", func(b *testing.B) {
		b.Skip("6^8 enumeration recorded once in EXPERIMENTS.md")
	})
}

// BenchmarkAblationOutputFilters isolates the Section 5.2.3 output phase:
// dangling tuples are pruned only with the 01-OR filters.
func BenchmarkAblationOutputFilters(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	n, dom := 4096, 512
	d := Bool()
	mk := func(vars []int, dangling bool) *Factor[bool] {
		var tuples [][]int
		var values []bool
		for i := 0; i < n; i++ {
			a := rng.Intn(dom)
			c := rng.Intn(dom)
			if dangling {
				// Most tuples have join partners only on a small fragment.
				a = 4 + rng.Intn(dom-4)
			}
			tuples = append(tuples, []int{a, c})
			values = append(values, true)
		}
		for i := 0; i < 4; i++ {
			tuples = append(tuples, []int{i, i})
			values = append(values, true)
		}
		f, err := NewFactor(d, vars, tuples, values, func(a, b bool) bool { return a })
		if err != nil {
			b.Fatal(err)
		}
		return f
	}
	q := &Query[bool]{
		D: d, NVars: 3, DomSizes: []int{dom, dom, dom}, NumFree: 3,
		Aggs:             []Aggregate[bool]{Free[bool](), Free[bool](), Free[bool]()},
		Factors:          []*Factor[bool]{mk([]int{0, 1}, true), mk([]int{1, 2}, false)},
		IdempotentInputs: true,
	}
	order := []int{0, 1, 2}
	eng := benchEngine[bool](b)
	for _, on := range []bool{true, false} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			opts := DefaultOptions()
			opts.FilterOutput = on
			benchOrder(b, eng, q, order, opts)
		})
	}
}

func sizeName(kind string, n int) string {
	return kind + "/n=" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
