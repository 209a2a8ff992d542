// Differential tests: the radix kernel (sequential and chunk-parallel)
// must reproduce the comparison argsort exactly — the identical permutation
// in stable mode, the identical sorted row sequence in unstable mode
// (where duplicate rows leave the comparison sort free to pick either
// order).
package sortx

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// randomBlock builds an n×k block whose values span lo..hi-1, so tests
// cover negative values and sign-byte boundaries.
func randomBlock(rng *rand.Rand, k, n int, lo, hi int32) []int32 {
	rows := make([]int32, n*k)
	for i := range rows {
		rows[i] = lo + int32(rng.Int63n(int64(hi)-int64(lo)))
	}
	return rows
}

// refStable is the reference stable argsort: sort.SliceStable over the row
// comparator, independent of every code path under test.
func refStable(rows []int32, k, n int) []int32 {
	order := identity(n)
	sort.SliceStable(order, func(a, b int) bool {
		oa, ob := int(order[a])*k, int(order[b])*k
		return compareRows(rows[oa:oa+k], rows[ob:ob+k]) < 0
	})
	return order
}

// rowAt returns row i of a k-column block.
func rowAt(rows []int32, k int, i int32) []int32 {
	return rows[int(i)*k : int(i)*k+k]
}

func checkStablePermutation(t *testing.T, name string, rows []int32, k int, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d indices, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: position %d has row %d (%v), want row %d (%v)", name, i,
				got[i], rowAt(rows, k, got[i]), want[i], rowAt(rows, k, want[i]))
		}
	}
}

// checkSortedRows verifies an unstable result: got must be a permutation
// of 0..n-1 whose row sequence is lexicographically non-decreasing and
// identical to the reference row sequence.
func checkSortedRows(t *testing.T, name string, rows []int32, k int, got, ref []int32) {
	t.Helper()
	seen := make([]bool, len(got))
	for _, o := range got {
		if o < 0 || int(o) >= len(got) || seen[o] {
			t.Fatalf("%s: not a permutation (index %d)", name, o)
		}
		seen[o] = true
	}
	for i := range got {
		a := rowAt(rows, k, got[i])
		b := rowAt(rows, k, ref[i])
		if compareRows(a, b) != 0 {
			t.Fatalf("%s: position %d holds row %v, want %v", name, i, a, b)
		}
	}
}

func TestRadixMatchesComparison(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cases := []struct {
		k, n   int
		lo, hi int32
	}{
		{1, 1000, 0, 16},                          // heavy duplication
		{1, 5000, math.MinInt32, math.MaxInt32},   // full signed range
		{2, 4000, -100, 100},                      // negatives, duplicates
		{3, 6000, 0, 3000},                        // the permuted-build regime
		{4, 3000, -5, 5},                          // odd arity padding + dups
		{5, 2000, math.MinInt32, math.MaxInt32},   // odd arity, full range
		{6, 2500, -1 << 20, 1 << 20},              // W=3 key width
		{3, RadixMinRows, 0, 4},                   // exactly at the cutoff
		{2, RadixMinRows - 1, 0, 4},               // just below: comparison path
		{4, 1, math.MinInt32, math.MaxInt32 - 10}, // trivial
	}
	for _, tc := range cases {
		rows := randomBlock(rng, tc.k, tc.n, tc.lo, tc.hi)
		want := refStable(rows, tc.k, tc.n)
		got := Argsort(rows, tc.k, tc.n, true)
		checkStablePermutation(t, "stable", rows, tc.k, got, want)
		checkSortedRows(t, "unstable", rows, tc.k, Argsort(rows, tc.k, tc.n, false), want)
		// The raw kernels must agree regardless of the cutoff.
		if tc.n > 1 {
			checkStablePermutation(t, "radix", rows, tc.k, radixArgsort(rows, tc.k, tc.n), want)
			checkStablePermutation(t, "comparison", rows, tc.k,
				comparisonArgsort(rows, tc.k, tc.n, true), want)
		}
	}
}

func TestArgsortEdgeCases(t *testing.T) {
	if got := Argsort(nil, 3, 0, true); len(got) != 0 {
		t.Fatalf("n=0: got %v", got)
	}
	if got := Argsort([]int32{5, 6}, 2, 1, true); len(got) != 1 || got[0] != 0 {
		t.Fatalf("n=1: got %v", got)
	}
	// k=0: every row is the empty tuple; stable order is the identity.
	got := Argsort(nil, 0, 4, true)
	for i, o := range got {
		if int(o) != i {
			t.Fatalf("k=0: position %d has %d", i, o)
		}
	}
}

// TestParallelArgsortMatchesSequential forces the chunk-parallel path on a
// small block and pins it to the stable sequential permutation, including
// across repeated runs (determinism) and odd chunk counts.
func TestParallelArgsortMatchesSequential(t *testing.T) {
	oldPar := ParallelMinRows
	ParallelMinRows = 512
	defer func() { ParallelMinRows = oldPar }()

	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{512, 1000, 4097, 20000} {
		for _, k := range []int{1, 2, 3, 5} {
			rows := randomBlock(rng, k, n, -50, 50) // duplicates guaranteed
			want := refStable(rows, k, n)
			for trial := 0; trial < 3; trial++ {
				got := Argsort(rows, k, n, true)
				checkStablePermutation(t, "parallel", rows, k, got, want)
			}
		}
	}
}

// TestParallelGateDegrades proves a sort while the gate is held still
// returns the identical permutation via the sequential kernel.
func TestParallelGateDegrades(t *testing.T) {
	oldPar := ParallelMinRows
	ParallelMinRows = 256
	defer func() { ParallelMinRows = oldPar }()

	rng := rand.New(rand.NewSource(12))
	rows := randomBlock(rng, 2, 5000, -10, 10)
	want := Argsort(rows, 2, 5000, true)

	if !sortActive.CompareAndSwap(false, true) {
		t.Fatal("sort gate unexpectedly held")
	}
	got := Argsort(rows, 2, 5000, true) // must degrade, not deadlock
	sortActive.Store(false)
	checkStablePermutation(t, "degraded", rows, 2, got, want)
}

func TestStrategyCounters(t *testing.T) {
	r0, c0 := RadixSorts(), ComparisonSorts()
	rng := rand.New(rand.NewSource(13))
	small := randomBlock(rng, 2, RadixMinRows-1, 0, 100)
	Argsort(small, 2, RadixMinRows-1, true)
	big := randomBlock(rng, 2, RadixMinRows, 0, 100)
	Argsort(big, 2, RadixMinRows, true)
	if got := ComparisonSorts() - c0; got < 1 {
		t.Fatalf("comparison sorts advanced by %d, want >= 1", got)
	}
	if got := RadixSorts() - r0; got < 1 {
		t.Fatalf("radix sorts advanced by %d, want >= 1", got)
	}
}
