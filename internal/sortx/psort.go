// The chunk-parallel variant: very large blocks split into GOMAXPROCS
// contiguous chunks that radix-argsort concurrently, then pairs of sorted
// runs merge concurrently until one run remains — the worker split the
// retired factor.parallelSort used, with the radix kernel replacing
// sort.Slice inside each chunk.  Chunks partition the block by row index
// and the merge prefers the left run on ties, so the composed permutation
// is exactly the stable sequential one.
package sortx

import (
	"runtime"
	"sync"
)

// parallelArgsort is radixArgsort with the chunk sorts fanned out over
// GOMAXPROCS goroutines.  Callers hold the sortActive gate.
func parallelArgsort(rows []int32, k, n int) []int32 {
	nc := runtime.GOMAXPROCS(0)
	if nc > n {
		nc = n
	}
	bounds := make([]int, nc+1)
	for i := range bounds {
		bounds[i] = i * n / nc
	}
	order := make([]int32, n)
	var wg sync.WaitGroup
	for i := 0; i < nc; i++ {
		lo, hi := bounds[i], bounds[i+1]
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			sub := radixArgsort(rows[lo*k:hi*k], k, hi-lo)
			for j, o := range sub {
				order[lo+j] = o + int32(lo)
			}
		}(lo, hi)
	}
	wg.Wait()

	// Chunks hold disjoint ascending index ranges, so the tie rule "prefer
	// the left run" keeps equal rows in input order without comparing
	// indices.
	less := func(a, b int32) bool {
		x, y := int(a)*k, int(b)*k
		return compareRows(rows[x:x+k], rows[y:y+k]) < 0
	}
	src, dst := order, make([]int32, n)
	for len(bounds) > 2 {
		next := make([]int, 0, len(bounds)/2+2)
		next = append(next, 0)
		i := 0
		for ; i+2 < len(bounds); i += 2 {
			lo, mid, hi := bounds[i], bounds[i+1], bounds[i+2]
			wg.Add(1)
			go func(lo, mid, hi int) {
				defer wg.Done()
				mergeRuns(dst[lo:hi], src[lo:mid], src[mid:hi], less)
			}(lo, mid, hi)
			next = append(next, hi)
		}
		if i+1 < len(bounds) { // odd run out: carry it over unchanged
			copy(dst[bounds[i]:bounds[i+1]], src[bounds[i]:bounds[i+1]])
			next = append(next, bounds[i+1])
		}
		wg.Wait()
		src, dst = dst, src
		bounds = next
	}
	return src
}

// mergeRuns merges two sorted runs into out (len(out) = len(a) + len(b)),
// preferring a on ties.
func mergeRuns(out, a, b []int32, less func(x, y int32) bool) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if less(b[j], a[i]) {
			out[i+j] = b[j]
			j++
		} else {
			out[i+j] = a[i]
			i++
		}
	}
	copy(out[i+j:], a[i:])
	copy(out[i+j:], b[j:])
}
