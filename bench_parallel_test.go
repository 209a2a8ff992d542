// Benchmarks for the block-parallel executor.  Every family runs the same
// workload on an engine of width 1 (every scan on the calling goroutine)
// and on one of width GOMAXPROCS, so
//
//	go test -bench 'Triangle|FourCycle|PGM|SharpSAT' -cpu 1,4
//
// shows the scaling directly: at -cpu 1 the pool collapses to the sequential
// path; at -cpu N the pool series should beat seq on the join-heavy
// workloads.  Both series are asserted to produce identical results.
package faq

import (
	"context"
	"math/rand"
	"testing"

	"github.com/faqdb/faq/internal/cnf"
)

// randomPairs builds a sparse 0/1 binary factor with n distinct tuples.
func randomPairs(rng *rand.Rand, d *Domain[float64], vars []int, dom, n int) *Factor[float64] {
	seen := map[[2]int]bool{}
	var tuples [][]int
	var values []float64
	for len(tuples) < n {
		e := [2]int{rng.Intn(dom), rng.Intn(dom)}
		if seen[e] || e[0] == e[1] {
			continue
		}
		seen[e] = true
		tuples = append(tuples, []int{e[0], e[1]})
		values = append(values, 1)
	}
	f, err := NewFactor(d, vars, tuples, values, nil)
	if err != nil {
		panic(err)
	}
	return f
}

// benchExecutors runs the query along order on an engine of width 1 and
// one of width GOMAXPROCS, and asserts that the two agree bit-for-bit.
// Each timed iteration runs RunWithFactors on the query's own factors, so
// it builds every trie (bypassing the prepared query's trie cache) and
// runs every scan, but never replans.
func benchExecutors[V any](b *testing.B, q *Query[V], order []int) {
	ctx := context.Background()
	var preps []*PreparedQuery[V]
	for _, width := range []int{1, 0} { // 0 = GOMAXPROCS: tracks -cpu
		eng := NewEngine[V](EngineOptions{Workers: width})
		b.Cleanup(eng.Close)
		prep, err := eng.PrepareOrder(q, order, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		preps = append(preps, prep)
	}
	rs, err := preps[0].Run(ctx)
	if err != nil {
		b.Fatal(err)
	}
	rp, err := preps[1].Run(ctx)
	if err != nil {
		b.Fatal(err)
	}
	if !rs.Output.Equal(q.D, rp.Output) {
		b.Fatalf("sequential and pool executors disagree: %v vs %v", rs.Output, rp.Output)
	}
	for i, name := range []string{"seq", "pool"} {
		prep := preps[i]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := prep.RunWithFactors(ctx, q.Factors); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// plannedOrder returns the ordering an engine plans for q.
func plannedOrder[V any](b *testing.B, q *Query[V]) []int {
	eng := NewEngine[V](EngineOptions{Workers: 1})
	defer eng.Close()
	prep, err := eng.Prepare(q)
	if err != nil {
		b.Fatal(err)
	}
	return prep.Plan().Order
}

// BenchmarkParallelTriangle counts triangles (Example A.8) on a random graph:
// three pairwise factors, AGM bound N^1.5.
func BenchmarkParallelTriangle(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	const nodes, edges = 3000, 48000
	d := Float()
	q := &Query[float64]{
		D: d, NVars: 3, DomSizes: []int{nodes, nodes, nodes}, NumFree: 0,
		Aggs: []Aggregate[float64]{
			SemiringAgg(OpFloatSum()), SemiringAgg(OpFloatSum()), SemiringAgg(OpFloatSum()),
		},
		Factors: []*Factor[float64]{
			randomPairs(rng, d, []int{0, 1}, nodes, edges),
			randomPairs(rng, d, []int{1, 2}, nodes, edges),
			randomPairs(rng, d, []int{0, 2}, nodes, edges),
		},
	}
	benchExecutors(b, q, []int{0, 1, 2})
}

// BenchmarkParallelFourCycle counts 4-cycles: ψ(0,1)ψ(1,2)ψ(2,3)ψ(0,3).
func BenchmarkParallelFourCycle(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	const nodes, edges = 2000, 32000
	d := Float()
	q := &Query[float64]{
		D: d, NVars: 4, DomSizes: []int{nodes, nodes, nodes, nodes}, NumFree: 0,
		Aggs: []Aggregate[float64]{
			SemiringAgg(OpFloatSum()), SemiringAgg(OpFloatSum()),
			SemiringAgg(OpFloatSum()), SemiringAgg(OpFloatSum()),
		},
		Factors: []*Factor[float64]{
			randomPairs(rng, d, []int{0, 1}, nodes, edges),
			randomPairs(rng, d, []int{1, 2}, nodes, edges),
			randomPairs(rng, d, []int{2, 3}, nodes, edges),
			randomPairs(rng, d, []int{0, 3}, nodes, edges),
		},
	}
	benchExecutors(b, q, []int{0, 1, 2, 3})
}

// BenchmarkParallelPGMMarginal computes the unnormalized marginal of x0 on a
// dense 6-cycle MRF with a large domain: sum-product elimination whose
// intermediates are dom² tables.
func BenchmarkParallelPGMMarginal(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	const vars, dom = 6, 96
	d := Float()
	var factors []*Factor[float64]
	for i := 0; i < vars; i++ {
		u, v := i, (i+1)%vars
		if u > v {
			u, v = v, u
		}
		factors = append(factors, FromFunc(d, []int{u, v},
			func() []int {
				ds := make([]int, vars)
				for j := range ds {
					ds[j] = dom
				}
				return ds
			}(),
			func(t []int) float64 { return float64(1 + (t[0]*31+t[1]*17+rng.Intn(7))%13) }))
	}
	aggs := make([]Aggregate[float64], vars)
	aggs[0] = Free[float64]()
	for i := 1; i < vars; i++ {
		aggs[i] = SemiringAgg(OpFloatSum())
	}
	ds := make([]int, vars)
	for i := range ds {
		ds[i] = dom
	}
	q := &Query[float64]{D: d, NVars: vars, DomSizes: ds, NumFree: 1, Aggs: aggs, Factors: factors}
	benchExecutors(b, q, plannedOrder(b, q))
}

// BenchmarkParallelSharpSAT counts models of a random interval CNF as an FAQ
// query over the counting semiring (Z, +, ·): each clause is a listing
// factor with 2^k − 1 satisfying rows (cnf.FAQQuery, Table 1 row #SAT).
func BenchmarkParallelSharpSAT(b *testing.B) {
	f := cnf.RandomInterval(rand.New(rand.NewSource(23)), 20, 36, 12)
	q := f.FAQQuery()
	benchExecutors(b, q, plannedOrder(b, q))
}
