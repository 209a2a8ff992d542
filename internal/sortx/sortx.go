// Package sortx is the shared row-sorting kernel of the data plane: an
// arity-agnostic argsort over the n×k row-major []int32 blocks that
// internal/factor and internal/join are built on.  Every consumer that used
// to run a generic comparison argsort — permuted CSR trie builds, the
// factor constructor, the projection/marginalization group-folds, delta
// batch validation — routes through Argsort, which picks the cheapest
// strategy for the input:
//
//   - small blocks run the comparison argsort (the counting passes of a
//     radix sort have fixed per-digit overhead that dominates tiny inputs);
//   - larger blocks pack each row into a compact key — every column
//     contributes only its varying bit span (the bits that differ somewhere
//     in the block, after a sign flip so unsigned order equals signed
//     order), with one shift-and-mask per column — and run an LSD radix
//     sort over digits sized to the row count (at most 11 bits), with
//     counting passes and ping-pong buffers; stable by construction, and
//     a key of 26 varying bits over 50k rows sorts in three passes;
//   - very large blocks split into contiguous chunks that radix-sort
//     concurrently and then merge pairwise, behind a process-wide gate so a
//     sort inside a pool worker never stacks a second fan-out on the pool.
//
// Permutations come back as []int32 (blocks are capped at MaxInt32 rows),
// and GatherRows / Gather apply one to a row block or a value slice in one
// exact-size allocation.
//
// The chosen strategy is counted process-wide (RadixSorts /
// ComparisonSorts) for the /statsz and /metrics surfaces.
package sortx

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
)

// RadixMinRows is the row count below which the comparison argsort is used
// instead of the radix kernel; a var so tests and benchmarks can force
// either path.
var RadixMinRows = 128

// ParallelMinRows is the row count above which a radix sort splits into
// concurrently sorted chunks followed by pairwise merges; a var so tests
// can exercise the parallel path on small inputs.
var ParallelMinRows = 256 << 10

// sortActive admits at most one parallel sort at a time process-wide: a
// sort attempted while another runs (e.g. inside a pool-executor worker,
// where sibling workers already occupy the CPUs) degrades to the
// sequential radix kernel instead of stacking another GOMAXPROCS-wide
// fan-out on top of the pool.
var sortActive atomic.Bool

var (
	radixSorts      atomic.Int64
	comparisonSorts atomic.Int64
)

// RadixSorts returns the process-wide count of Argsort calls served by the
// radix kernel (sequential or chunk-parallel).
func RadixSorts() int64 { return radixSorts.Load() }

// ComparisonSorts returns the process-wide count of Argsort calls served
// by the comparison fallback.
func ComparisonSorts() int64 { return comparisonSorts.Load() }

// Argsort returns the indices of the n rows of the k-column row-major
// block in lexicographic row order.  When stable is set, equal rows keep
// their input order (required wherever duplicates fold in input order);
// the radix paths are stable by construction, so the flag only changes the
// comparison fallback, where the index tie-break would otherwise cost a
// compare per pair.  The block is never mutated.  n must not exceed
// MaxInt32: row indices are int32.
func Argsort(rows []int32, k, n int, stable bool) []int32 {
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("sortx: %d rows exceed the int32 row-index range", n))
	}
	if n <= 1 || k == 0 {
		return identity(n)
	}
	if n < RadixMinRows {
		comparisonSorts.Add(1)
		return comparisonArgsort(rows, k, n, stable)
	}
	radixSorts.Add(1)
	if n >= ParallelMinRows && runtime.GOMAXPROCS(0) > 1 && sortActive.CompareAndSwap(false, true) {
		defer sortActive.Store(false)
		return parallelArgsort(rows, k, n)
	}
	return radixArgsort(rows, k, n)
}

// GatherRows returns the k-column rows of the block in the given order, in
// one exact-size block: row i of the result is row order[i] of rows.
func GatherRows(rows []int32, k int, order []int32) []int32 {
	out := make([]int32, len(order)*k)
	switch k {
	case 1:
		for i, o := range order {
			out[i] = rows[o]
		}
	case 2:
		for i, o := range order {
			out[2*i], out[2*i+1] = rows[2*o], rows[2*o+1]
		}
	default:
		for i, o := range order {
			at := int(o) * k
			copy(out[i*k:i*k+k], rows[at:at+k])
		}
	}
	return out
}

// Gather returns vals in the given order, in one exact-size slice: element
// i of the result is vals[order[i]].
func Gather[T any](vals []T, order []int32) []T {
	out := make([]T, len(order))
	for i, o := range order {
		out[i] = vals[o]
	}
	return out
}

func identity(n int) []int32 {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	return order
}

// comparisonArgsort is the pre-radix kernel: sort.Slice over row indices
// with a per-compare column loop, kept as the small-input fast path and as
// the reference the radix paths are differentially tested against.
func comparisonArgsort(rows []int32, k, n int, stable bool) []int32 {
	order := identity(n)
	sort.Slice(order, func(a, b int) bool {
		oa, ob := int(order[a]), int(order[b])
		ra := rows[oa*k : oa*k+k]
		rb := rows[ob*k : ob*k+k]
		for i := range ra {
			if ra[i] != rb[i] {
				return ra[i] < rb[i]
			}
		}
		return stable && oa < ob
	})
	return order
}

// compareRows lexicographically compares two equal-length rows.
func compareRows(a, b []int32) int {
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}
