// Package matrixops implements the matrix-operation rows of Table 1:
// Matrix Chain Multiplication as an FAQ over the path hypergraph (Example
// 1.1) against the textbook dynamic-programming parenthesization [CLRS],
// and the Discrete Fourier Transform over Z_{p^m} as an FAQ whose variable
// elimination is exactly the Cooley–Tukey FFT (the Aji–McEliece view that
// the paper re-derives with InsideOut).
package matrixops

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"

	"github.com/faqdb/faq/internal/core"
	"github.com/faqdb/faq/internal/factor"
	"github.com/faqdb/faq/internal/semiring"
)

// Matrix is a dense rows×cols matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // row-major
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns m[i][j].
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns m[i][j].
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Mul returns m·n, counting scalar multiplications into ops if non-nil.
func (m *Matrix) Mul(n *Matrix, ops *int64) *Matrix {
	if m.Cols != n.Rows {
		panic(fmt.Sprintf("matrixops: %dx%d times %dx%d", m.Rows, m.Cols, n.Rows, n.Cols))
	}
	out := NewMatrix(m.Rows, n.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < n.Cols; j++ {
				out.Data[i*n.Cols+j] += a * n.At(k, j)
			}
		}
	}
	if ops != nil {
		*ops += int64(m.Rows) * int64(m.Cols) * int64(n.Cols)
	}
	return out
}

// ---------------------------------------------------------------------------
// Matrix Chain Multiplication.
// ---------------------------------------------------------------------------

// ChainDP computes the product A_1···A_n using the optimal parenthesization
// found by the classic O(n³) dynamic program, returning the product, the
// optimal scalar-multiplication cost predicted by the DP, and the actual
// multiplications performed.
func ChainDP(ms []*Matrix) (*Matrix, int64, int64, error) {
	n := len(ms)
	if n == 0 {
		return nil, 0, 0, fmt.Errorf("matrixops: empty chain")
	}
	p := make([]int64, n+1)
	p[0] = int64(ms[0].Rows)
	for i, m := range ms {
		if int64(m.Rows) != p[i] {
			return nil, 0, 0, fmt.Errorf("matrixops: dimension mismatch at matrix %d", i)
		}
		p[i+1] = int64(m.Cols)
	}
	cost := make([][]int64, n)
	split := make([][]int, n)
	for i := range cost {
		cost[i] = make([]int64, n)
		split[i] = make([]int, n)
	}
	for length := 2; length <= n; length++ {
		for i := 0; i+length-1 < n; i++ {
			j := i + length - 1
			cost[i][j] = math.MaxInt64
			for k := i; k < j; k++ {
				c := cost[i][k] + cost[k+1][j] + p[i]*p[k+1]*p[j+1]
				if c < cost[i][j] {
					cost[i][j] = c
					split[i][j] = k
				}
			}
		}
	}
	var ops int64
	var build func(i, j int) *Matrix
	build = func(i, j int) *Matrix {
		if i == j {
			return ms[i]
		}
		k := split[i][j]
		return build(i, k).Mul(build(k+1, j), &ops)
	}
	out := build(0, n-1)
	return out, cost[0][n-1], ops, nil
}

// ChainFAQ computes the product A_1···A_n by compiling Example 1.1's FAQ —
// variables X_1..X_{n+1} with Dom(X_i) = [p_i], factors ψ_{i,i+1} = A_i,
// free variables X_1 and X_{n+1} — and running InsideOut on e with the
// planner's ordering.  The planner's exact DP over the path hypergraph
// plays the role of the parenthesization DP.
func ChainFAQ(e *core.Engine[float64], ms []*Matrix) (*Matrix, *core.Plan, error) {
	n := len(ms)
	if n == 0 {
		return nil, nil, fmt.Errorf("matrixops: empty chain")
	}
	if n == 1 {
		return ms[0], &core.Plan{Method: "trivial"}, nil
	}
	d := semiring.Float()
	// Query variables: 0 = X_1, 1 = X_{n+1} (free), then the inner
	// X_2..X_n as variables 2..n in expression order.
	nv := n + 1
	qvar := func(chainIdx int) int { // chain position 0..n -> query var
		switch chainIdx {
		case 0:
			return 0
		case n:
			return 1
		default:
			return chainIdx + 1
		}
	}
	q := &core.Query[float64]{
		D:        d,
		NVars:    nv,
		DomSizes: make([]int, nv),
		NumFree:  2,
		Aggs:     make([]core.Aggregate[float64], nv),
	}
	q.Aggs[0] = core.Free[float64]()
	q.Aggs[1] = core.Free[float64]()
	for i := 2; i < nv; i++ {
		q.Aggs[i] = core.SemiringAgg(semiring.OpFloatSum())
	}
	q.DomSizes[0] = ms[0].Rows
	q.DomSizes[1] = ms[n-1].Cols
	for i := 1; i < n; i++ {
		q.DomSizes[qvar(i)] = ms[i].Rows
	}
	for i, m := range ms {
		u, v := qvar(i), qvar(i+1)
		f := factor.FromFunc(d, core.SortedCopy([]int{u, v}), q.DomSizes, func(t []int) float64 {
			// t is aligned with the sorted variable pair.
			if u < v {
				return m.At(t[0], t[1])
			}
			return m.At(t[1], t[0])
		})
		q.Factors = append(q.Factors, f)
	}
	prep, err := e.Prepare(q)
	if err != nil {
		return nil, nil, err
	}
	res, err := prep.Run(context.Background())
	if err != nil {
		return nil, nil, err
	}
	plan := prep.Plan()
	out := NewMatrix(ms[0].Rows, ms[n-1].Cols)
	for r := 0; r < res.Output.Size(); r++ {
		row := res.Output.Row(r)
		out.Set(int(row[0]), int(row[1]), res.Output.Values[r])
	}
	return out, plan, nil
}

// ---------------------------------------------------------------------------
// DFT over Z_{p^m}.
// ---------------------------------------------------------------------------

// NaiveDFT computes F(t) = Σ_y b_y ω^{t·y} with ω = e^{-2πi/N}, N = len(b),
// by the O(N²) double loop.
func NaiveDFT(b []complex128) []complex128 {
	n := len(b)
	out := make([]complex128, n)
	for t := 0; t < n; t++ {
		var acc complex128
		for y := 0; y < n; y++ {
			angle := -2 * math.Pi * float64(t) * float64(y) / float64(n)
			acc += b[y] * cmplx.Exp(complex(0, angle))
		}
		out[t] = acc
	}
	return out
}

// FFTViaFAQ computes the DFT of b (length p^m) as the FAQ of Table 1's DFT
// row: digits x_0..x_{m-1} of the output index are free variables, digits
// y_0..y_{m-1} of the input index are Σ-aggregated, the vector b is one
// factor over all y-digits, and one twiddle factor ψ_{jk}(x_j, y_k) =
// ω^{x_j·y_k·p^{j+k}} exists for every j+k < m.  Eliminating y_{m-1}, ...,
// y_0 along the expression order performs O(p·N·m) = O(N log N) work: this
// is the Cooley–Tukey FFT recovered by InsideOut, run on e.
func FFTViaFAQ(e *core.Engine[complex128], b []complex128, p, m int) ([]complex128, error) {
	n := fftSize(p, m)
	if len(b) != n {
		return nil, fmt.Errorf("matrixops: input length %d, want p^m = %d", len(b), n)
	}
	q := fftQuery(b, p, m, n)
	// The expression order eliminates y_{m-1} first — the FFT recursion.
	prep, err := e.PrepareOrder(q, q.Shape().ExpressionOrder(), core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	res, err := prep.Run(context.Background())
	if err != nil {
		return nil, err
	}
	return fftDecode(res, p, m, n), nil
}

func fftSize(p, m int) int {
	n := 1
	for i := 0; i < m; i++ {
		n *= p
	}
	return n
}

// fftQuery builds the DFT FAQ instance for a signal b of length n = p^m.
// Factor 0 is the vector factor over the y-digits; the twiddle factors
// after it depend only on (p, m), so a prepared transform swaps factor 0
// and keeps the rest.
func fftQuery(b []complex128, p, m, n int) *core.Query[complex128] {
	d := semiring.Complex()
	nv := 2 * m // x_0..x_{m-1} free, then y_0..y_{m-1}
	q := &core.Query[complex128]{
		D:        d,
		NVars:    nv,
		DomSizes: make([]int, nv),
		NumFree:  m,
		Aggs:     make([]core.Aggregate[complex128], nv),
	}
	for i := 0; i < nv; i++ {
		q.DomSizes[i] = p
		if i < m {
			q.Aggs[i] = core.Free[complex128]()
		} else {
			q.Aggs[i] = core.SemiringAgg(semiring.OpComplexSum())
		}
	}
	q.Factors = append(q.Factors, fftVectorFactor(b, p, m, q.DomSizes))
	// Twiddle factors ψ_{jk} for j+k < m.
	for j := 0; j < m; j++ {
		for k := 0; j+k < m; k++ {
			pj := 1
			for i := 0; i < j+k; i++ {
				pj *= p
			}
			scale := -2 * math.Pi * float64(pj) / float64(n)
			vars := []int{j, m + k}
			q.Factors = append(q.Factors, factor.FromFunc(d, vars, q.DomSizes, func(t []int) complex128 {
				return cmplx.Exp(complex(0, scale*float64(t[0])*float64(t[1])))
			}))
		}
	}
	return q
}

// fftVectorFactor lists the signal over the y-digits (little-endian:
// y = Σ y_k p^k).
func fftVectorFactor(b []complex128, p, m int, domSizes []int) *factor.Factor[complex128] {
	yVars := make([]int, m)
	for k := 0; k < m; k++ {
		yVars[k] = m + k
	}
	return factor.FromFunc(semiring.Complex(), yVars, domSizes, func(t []int) complex128 {
		idx := 0
		for k := m - 1; k >= 0; k-- {
			idx = idx*p + t[k]
		}
		return b[idx]
	})
}

func fftDecode(res *core.Result[complex128], p, m, n int) []complex128 {
	out := make([]complex128, n)
	for r := 0; r < res.Output.Size(); r++ {
		tup := res.Output.Row(r)
		idx := 0
		for j := m - 1; j >= 0; j-- {
			idx = idx*p + int(tup[j])
		}
		out[idx] = res.Output.Values[r]
	}
	return out
}

// FFT is a prepared DFT of fixed size p^m: the FAQ instance is planned and
// bound to an engine once (with the expression order, whose elimination of
// y_{m-1}, ..., y_0 is the Cooley–Tukey recursion), and each Transform
// swaps in a fresh signal via RunWithFactors — the twiddle factors and the
// plan are reused across calls.  This is the repeated-transform workload of
// a streaming DSP loop expressed as a prepared FAQ.
type FFT struct {
	p, m, n int
	prep    *core.PreparedQuery[complex128]
	rest    []*factor.Factor[complex128] // twiddles, shared across transforms
}

// NewFFT prepares a size-p^m DFT on the engine.
func NewFFT(e *core.Engine[complex128], p, m int) (*FFT, error) {
	if p < 2 || m < 1 {
		return nil, fmt.Errorf("matrixops: bad DFT shape p=%d, m=%d", p, m)
	}
	n := fftSize(p, m)
	q := fftQuery(make([]complex128, n), p, m, n) // placeholder signal
	prep, err := e.PrepareOrder(q, q.Shape().ExpressionOrder(), core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return &FFT{p: p, m: m, n: n, prep: prep, rest: q.Factors[1:]}, nil
}

// Size returns the transform length p^m.
func (f *FFT) Size() int { return f.n }

// Transform computes the DFT of b on the prepared plan.
func (f *FFT) Transform(ctx context.Context, b []complex128) ([]complex128, error) {
	if len(b) != f.n {
		return nil, fmt.Errorf("matrixops: input length %d, want p^m = %d", len(b), f.n)
	}
	factors := make([]*factor.Factor[complex128], 0, len(f.rest)+1)
	factors = append(factors, fftVectorFactor(b, f.p, f.m, f.prep.Query().DomSizes))
	factors = append(factors, f.rest...)
	res, err := f.prep.RunWithFactors(ctx, factors)
	if err != nil {
		return nil, err
	}
	return fftDecode(res, f.p, f.m, f.n), nil
}
