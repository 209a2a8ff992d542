// Layout micro-benchmarks: the CSR trie build (identity and permuted column
// orders), the galloping probe loop, and the warm-cache path.  `make
// bench-layout` runs these with -benchmem and records BENCH_PR4.json.
package join

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/faqdb/faq/internal/factor"
	"github.com/faqdb/faq/internal/semiring"
	"github.com/faqdb/faq/internal/sortx"
)

func layoutFactor(seed int64, vars []int, dom, n int) *factor.Factor[float64] {
	d := semiring.Float()
	rng := rand.New(rand.NewSource(seed))
	var tuples [][]int
	var values []float64
	for i := 0; i < n; i++ {
		t := make([]int, len(vars))
		for j := range t {
			t[j] = rng.Intn(dom)
		}
		tuples = append(tuples, t)
		values = append(values, 1)
	}
	f, err := factor.New(d, vars, tuples, values, func(a, b float64) float64 { return a })
	if err != nil {
		panic(err)
	}
	return f
}

// BenchmarkLayoutTrieBuildIdentity: join order visits columns in stored
// order — the O(n) build straight from the sorted row block, no re-sort.
func BenchmarkLayoutTrieBuildIdentity(b *testing.B) {
	f := layoutFactor(1, []int{0, 1}, 3000, 48000)
	pos := map[int]int{0: 0, 1: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := buildTrie(f, pos); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLayoutTrieBuildPermuted: join order reverses the columns, so the
// build re-sorts the permuted block first.
func BenchmarkLayoutTrieBuildPermuted(b *testing.B) {
	f := layoutFactor(2, []int{0, 1}, 3000, 48000)
	pos := map[int]int{0: 1, 1: 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := buildTrie(f, pos); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLayoutTrieBuildPermutedArity: the same permuted re-sort build at
// arity 3-5 — the range the old comparison fallback covered before the
// radix kernel.  `make bench-radix` records these to BENCH_PR9.json.
func BenchmarkLayoutTrieBuildPermutedArity(b *testing.B) {
	for _, arity := range []int{3, 4, 5} {
		vars := make([]int, arity)
		pos := map[int]int{}
		for i := range vars {
			vars[i] = i
			pos[i] = arity - 1 - i // reverse the columns: full re-sort
		}
		f := layoutFactor(int64(10+arity), vars, 3000, 48000)
		b.Run(fmt.Sprintf("arity%d", arity), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := buildTrie(f, pos); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLayoutTrieBuildPermutedArityBaseline is the same build with the
// radix cutoff raised past the block size, so the sort runs the comparison
// path — the pre-radix baseline the ≥4x acceptance ratio is taken against.
func BenchmarkLayoutTrieBuildPermutedArityBaseline(b *testing.B) {
	oldMin := sortx.RadixMinRows
	sortx.RadixMinRows = 1 << 30
	defer func() { sortx.RadixMinRows = oldMin }()
	for _, arity := range []int{3, 4, 5} {
		vars := make([]int, arity)
		pos := map[int]int{}
		for i := range vars {
			vars[i] = i
			pos[i] = arity - 1 - i
		}
		f := layoutFactor(int64(10+arity), vars, 3000, 48000)
		b.Run(fmt.Sprintf("arity%d", arity), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := buildTrie(f, pos); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLayoutTrieProbe: the triangle scan — build once, time the
// galloping intersection loop alone.
func BenchmarkLayoutTrieProbe(b *testing.B) {
	fs := []*factor.Factor[float64]{
		layoutFactor(3, []int{0, 1}, 1000, 16000),
		layoutFactor(4, []int{1, 2}, 1000, 16000),
		layoutFactor(5, []int{0, 2}, 1000, 16000),
	}
	d := semiring.Float()
	r, err := NewRunner(d, fs, []int{0, 1, 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		r.Run(func([]int, float64) { n++ })
		if n == 0 {
			b.Fatal("empty join")
		}
	}
}

// BenchmarkLayoutEliminateCold / Warm: one full elimination step with cold
// tries vs the prepared-query warm cache.
func BenchmarkLayoutEliminateCold(b *testing.B) {
	d := semiring.Float()
	op := semiring.OpFloatSum()
	fs := []*factor.Factor[float64]{
		layoutFactor(6, []int{0, 1}, 1000, 16000),
		layoutFactor(7, []int{1, 2}, 1000, 16000),
		layoutFactor(8, []int{0, 2}, 1000, 16000),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EliminateInnermost(d, op, fs, []int{0, 1, 2}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLayoutEliminateWarm(b *testing.B) {
	d := semiring.Float()
	op := semiring.OpFloatSum()
	fs := []*factor.Factor[float64]{
		layoutFactor(6, []int{0, 1}, 1000, 16000),
		layoutFactor(7, []int{1, 2}, 1000, 16000),
		layoutFactor(8, []int{0, 2}, 1000, 16000),
	}
	cache := NewTrieCache(fs, nil)
	if _, err := EliminateInnermostOn(nil, nil, 1, cache, d, op, fs, nil, []int{0, 1, 2}, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EliminateInnermostOn(nil, nil, 1, cache, d, op, fs, nil, []int{0, 1, 2}, nil); err != nil {
			b.Fatal(err)
		}
	}
}
