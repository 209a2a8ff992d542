package join

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/faqdb/faq/internal/factor"
	"github.com/faqdb/faq/internal/semiring"
)

// setDenseMinKeys overrides the rank-index threshold for one test.
func setDenseMinKeys(t *testing.T, n int) {
	old := denseMinKeys
	denseMinKeys = n
	t.Cleanup(func() { denseMinKeys = old })
}

// sortedUnique draws n distinct keys from [lo, lo+span), ascending.
func sortedUnique(rng *rand.Rand, n int, lo, span int64) []int32 {
	seen := map[int64]bool{}
	for len(seen) < n {
		seen[lo+rng.Int63n(span)] = true
	}
	out := make([]int32, 0, n)
	for k := range seen {
		out = append(out, int32(k))
	}
	slices.Sort(out)
	return out
}

// TestRankIndexMatchesGallop: wherever a level gets an index, find agrees
// with gallop over the whole level for every key from just below the
// smallest key to well past the largest; levels that are empty, sparse,
// negative or out near MaxInt32 get no index.
func TestRankIndexMatchesGallop(t *testing.T) {
	setDenseMinKeys(t, 1)
	rng := rand.New(rand.NewSource(31))
	cases := []struct {
		name    string
		keys    []int32
		indexed bool
	}{
		{"empty", nil, false},
		{"zero", []int32{0}, true},
		{"one key", []int32{5}, true},
		{"one key at the bound", []int32{127}, true},
		{"one key past the bound", []int32{128}, false},
		{"word edges", []int32{0, 63, 64, 127, 128, 191}, true},
		{"dense", sortedUnique(rng, 1000, 0, 1500), true},
		{"dense from 3000", sortedUnique(rng, 100, 3000, 200), true},
		{"max at 64n+63", append(sortedUnique(rng, 99, 0, 6000), 64*100+63), true},
		{"max at 64n+64", append(sortedUnique(rng, 99, 0, 6000), 64*100+64), false},
		{"sparse", sortedUnique(rng, 100, 0, 1<<20), false},
		{"negative first key", append([]int32{-5}, sortedUnique(rng, 200, 0, 300)...), false},
		{"near MaxInt32", []int32{math.MaxInt32 - 3, math.MaxInt32 - 1, math.MaxInt32}, false},
	}
	for _, tc := range cases {
		ix := newRankIndex(tc.keys)
		if (ix != nil) != tc.indexed {
			t.Fatalf("%s: indexed = %v, want %v", tc.name, ix != nil, tc.indexed)
		}
		if ix == nil {
			continue
		}
		n := len(tc.keys)
		lo := int64(tc.keys[0]) - 2
		hi := min(int64(tc.keys[n-1])+130, math.MaxInt32)
		for k := lo; k <= hi; k++ {
			gotAt, gotOK := ix.find(int32(k))
			wantAt, wantOK := gallop(tc.keys, 0, n, int32(k))
			if gotAt != wantAt || gotOK != wantOK {
				t.Fatalf("%s: find(%d) = (%d, %v), gallop (%d, %v)", tc.name, k, gotAt, gotOK, wantAt, wantOK)
			}
		}
	}
}

// TestRankIndexThreshold: the default threshold indexes a dense first
// level of 64 keys but not one of 63.
func TestRankIndexThreshold(t *testing.T) {
	keys := make([]int32, 64)
	for i := range keys {
		keys[i] = int32(2 * i)
	}
	if newRankIndex(keys) == nil {
		t.Fatal("64 dense keys: no index")
	}
	if newRankIndex(keys[:63]) != nil {
		t.Fatal("63 keys: indexed below the threshold")
	}
}

// TestIndexedScanMatchesGallop: on a skewed triangle whose first levels
// are dense, scans over indexed tries and over a forced-gallop build give
// bit-identical factors and equal Stats, for every join order and worker
// count.
func TestIndexedScanMatchesGallop(t *testing.T) {
	forceBlocks(t)
	d := semiring.Float()
	op := semiring.OpFloatSum()
	rng := rand.New(rand.NewSource(77))
	fs := []*factor.Factor[float64]{
		randomFactor(rng, d, []int{0, 1}, 400, 6000),
		randomFactor(rng, d, []int{1, 2}, 400, 6000),
		randomFactor(rng, d, []int{0, 2}, 400, 6000),
	}
	type result struct {
		f     *factor.Factor[float64]
		stats Stats
	}
	run := func(vars []int, workers int, eliminate bool) result {
		var st Stats
		var f *factor.Factor[float64]
		var err error
		if eliminate {
			f, err = EliminateInnermostPar(d, op, fs, vars, workers, &st)
		} else {
			f, err = JoinAllPar(d, fs, vars, workers, &st)
		}
		if err != nil {
			t.Fatal(err)
		}
		st.PoolWaitNS = 0 // scheduling, not work
		return result{f, st}
	}
	orders := [][]int{{0, 1, 2}, {1, 2, 0}, {2, 0, 1}}
	for _, vars := range orders {
		pos := map[int]int{}
		for i, v := range vars {
			pos[v] = i
		}
		tr, err := buildTrie(fs[0], pos)
		if err != nil {
			t.Fatal(err)
		}
		if tr.rank == nil {
			t.Fatalf("order %v: dense first level of %d keys got no index", vars, len(tr.levels[0].keys))
		}
	}
	var indexed []result
	for _, vars := range orders {
		for _, workers := range []int{1, 3} {
			for _, elim := range []bool{true, false} {
				indexed = append(indexed, run(vars, workers, elim))
			}
		}
	}

	setDenseMinKeys(t, math.MaxInt)
	i := 0
	for _, vars := range orders {
		for _, workers := range []int{1, 3} {
			for _, elim := range []bool{true, false} {
				want := run(vars, workers, elim)
				got := indexed[i]
				i++
				if got.stats != want.stats {
					t.Fatalf("order %v workers %d eliminate %v: stats %+v, forced gallop %+v",
						vars, workers, elim, got.stats, want.stats)
				}
				if got.f.Size() != want.f.Size() || !slices.Equal(got.f.Rows(), want.f.Rows()) {
					t.Fatalf("order %v workers %d eliminate %v: rows differ from forced gallop", vars, workers, elim)
				}
				for j := range got.f.Values {
					if math.Float64bits(got.f.Values[j]) != math.Float64bits(want.f.Values[j]) {
						t.Fatalf("order %v: value %d = %v, forced gallop %v", vars, j, got.f.Values[j], want.f.Values[j])
					}
				}
				if got.stats.Probes == 0 {
					t.Fatalf("order %v: no probes counted", vars)
				}
			}
		}
	}
}

// TestDifferentialFlatTrieIndexed reruns the pointer-trie differential of
// differential_test.go with the rank-index threshold lowered to one key, so
// every first level there (domains 2-11) is answered by its index.
func TestDifferentialFlatTrieIndexed(t *testing.T) {
	setDenseMinKeys(t, 1)
	t.Run("float", TestDifferentialFlatTrieFloat)
	t.Run("int", TestDifferentialFlatTrieInt)
	t.Run("bool", TestDifferentialFlatTrieBool)
	t.Run("tropical", TestDifferentialFlatTrieTropical)
}
