// Benchmarks for the prepare-once-run-many serving path.  Each family runs
// the same workload two ways:
//
//   - fresh:    a new engine per call — NewEngine, Prepare, Run, Close, so
//     every call plans the ordering, starts the pool and builds every trie;
//   - prepared: PreparedQuery.Run per call — planning and trie builds
//     amortized away.
//
// The amortization claim of the Engine API is that steady-state prepared
// cost sits strictly below the fresh-engine cost:
//
//	go test -bench 'BenchmarkPrepared' -benchtime 3x
//
// BenchmarkPreparedSwapFactors additionally swaps fresh data into the
// prepared query each iteration (RunWithFactors), the serving-loop shape.
package faq

import (
	"context"
	"math/rand"
	"testing"
)

// preparedTriangle is the BenchmarkParallelTriangle workload (3000 nodes,
// 48000 edges per relation).
func preparedTriangle(seed int64) *Query[float64] {
	rng := rand.New(rand.NewSource(seed))
	const nodes, edges = 3000, 48000
	d := Float()
	return &Query[float64]{
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
}

// preparedPGM is the BenchmarkParallelPGMMarginal workload: the
// unnormalized marginal of x0 on a dense 6-cycle MRF with domain 96.
func preparedPGM(seed int64) *Query[float64] {
	rng := rand.New(rand.NewSource(seed))
	const vars, dom = 6, 96
	d := Float()
	ds := make([]int, vars)
	for i := range ds {
		ds[i] = dom
	}
	var factors []*Factor[float64]
	for i := 0; i < vars; i++ {
		u, v := i, (i+1)%vars
		if u > v {
			u, v = v, u
		}
		factors = append(factors, FromFunc(d, []int{u, v}, ds,
			func(t []int) float64 { return float64(1 + (t[0]*31+t[1]*17+rng.Intn(7))%13) }))
	}
	aggs := make([]Aggregate[float64], vars)
	aggs[0] = Free[float64]()
	for i := 1; i < vars; i++ {
		aggs[i] = SemiringAgg(OpFloatSum())
	}
	return &Query[float64]{D: d, NVars: vars, DomSizes: ds, NumFree: 1, Aggs: aggs, Factors: factors}
}

// benchPrepared runs the fresh / prepared pair on one query.
func benchPrepared(b *testing.B, q *Query[float64]) {
	ctx := context.Background()
	eng := NewEngine[float64](EngineOptions{})
	b.Cleanup(eng.Close)
	prep, err := eng.Prepare(q)
	if err != nil {
		b.Fatal(err)
	}

	// Sanity: the two paths agree before we time them.
	want, _, err := solve(q, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	got, err := prep.Run(ctx)
	if err != nil {
		b.Fatal(err)
	}
	if !got.Output.Equal(q.D, want.Output) {
		b.Fatal("prepared path diverged from a fresh engine")
	}

	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := solve(q, DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := prep.Run(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkPreparedRepeatTriangle(b *testing.B) {
	benchPrepared(b, preparedTriangle(20))
}

func BenchmarkPreparedRepeatPGM(b *testing.B) {
	benchPrepared(b, preparedPGM(22))
}

// BenchmarkPreparedSwapFactors times the full serving loop: each iteration
// refreshes the prepared triangle query with one of several pre-built edge
// sets via RunWithFactors.
func BenchmarkPreparedSwapFactors(b *testing.B) {
	ctx := context.Background()
	eng := NewEngine[float64](EngineOptions{})
	b.Cleanup(eng.Close)
	datasets := []*Query[float64]{preparedTriangle(20), preparedTriangle(21), preparedTriangle(22)}
	prep, err := eng.Prepare(datasets[0])
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prep.RunWithFactors(ctx, datasets[i%len(datasets)].Factors); err != nil {
			b.Fatal(err)
		}
	}
}
