package sortx

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzRadixArgsort holds the radix kernel to bit-identical agreement with
// the independent stable reference over arbitrary blocks: arity 1-6,
// arbitrary int32 cell values (negatives and sign-byte boundaries
// included), with the cutoff and parallel thresholds forced low enough
// that fuzz-sized inputs reach every code path.
func FuzzRadixArgsort(f *testing.F) {
	f.Add(3, []byte{0, 0, 0, 1, 255, 255, 255, 255, 0, 0, 0, 2})
	f.Add(1, []byte{128, 0, 0, 0, 127, 255, 255, 255})
	f.Add(6, make([]byte, 6*4*5))
	// Only bit 31 varies (a one-bit span at the top of the word), and a
	// column spanning all 32 bits across the sign boundary.
	f.Add(1, le(0, math.MinInt32, 0, math.MinInt32))
	f.Add(2, le(-1, 5, 0, 5, -1, 4))
	// Key plus row index exactly 64 bits (31+31 key bits, 4 rows), then one
	// row more so the index needs a third bit and the key goes wide.
	f.Add(2, le(0, math.MaxInt32, math.MaxInt32, 0, 0, 0, math.MaxInt32, math.MaxInt32))
	f.Add(2, le(0, math.MaxInt32, math.MaxInt32, 0, 0, 0, math.MaxInt32, math.MaxInt32, 1, 1))
	// A key of exactly 64 bits (two full 32-bit spans), and one bit over
	// (a third column varying in one bit): the second word's first bit.
	f.Add(2, le(0, 0, -1, -1, 0, -1, -1, 0))
	f.Add(3, le(0, 0, 0, -1, -1, 1, 0, -1, 1, -1, 0, 0))
	f.Fuzz(func(t *testing.T, arity int, data []byte) {
		k := 1 + (abs(arity) % 6)
		n := len(data) / (4 * k)
		if n == 0 {
			return
		}
		if n > 4096 {
			n = 4096
		}
		rows := make([]int32, n*k)
		for i := range rows {
			rows[i] = int32(binary.LittleEndian.Uint32(data[i*4:]))
		}
		want := refStable(rows, k, n)

		checkStablePermutation(t, "radix", rows, k, radixArgsort(rows, k, n), want)

		oldMin, oldPar := RadixMinRows, ParallelMinRows
		RadixMinRows, ParallelMinRows = 1, 64
		defer func() { RadixMinRows, ParallelMinRows = oldMin, oldPar }()
		checkStablePermutation(t, "argsort", rows, k, Argsort(rows, k, n, true), want)
		checkSortedRows(t, "unstable", rows, k, Argsort(rows, k, n, false), want)
	})
}

// le encodes int32 cells as the fuzz input's little-endian bytes.
func le(cells ...int32) []byte {
	out := make([]byte, 4*len(cells))
	for i, c := range cells {
		binary.LittleEndian.PutUint32(out[4*i:], uint32(c))
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		if x == -x { // MinInt
			return 0
		}
		return -x
	}
	return x
}
