package matrixops

import (
	"context"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"github.com/faqdb/faq/internal/core"
)

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = float64(rng.Intn(7)) - 3
	}
	return m
}

func matricesEqual(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func TestMulBasics(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(3, 2)
	for i := range a.Data {
		a.Data[i] = float64(i + 1)
	}
	for i := range b.Data {
		b.Data[i] = float64(i + 1)
	}
	var ops int64
	c := a.Mul(b, &ops)
	// [1 2 3; 4 5 6] × [1 2; 3 4; 5 6] = [22 28; 49 64]
	want := []float64{22, 28, 49, 64}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("c[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
	if ops != 2*3*2 {
		t.Fatalf("ops = %d, want 12", ops)
	}
}

func TestMulDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch should panic")
		}
	}()
	NewMatrix(2, 3).Mul(NewMatrix(2, 2), nil)
}

func TestChainDPOptimalCost(t *testing.T) {
	// CLRS example shape: (10×100)(100×5)(5×50) — optimal 7500 multiplies.
	rng := rand.New(rand.NewSource(1))
	ms := []*Matrix{
		randomMatrix(rng, 10, 100),
		randomMatrix(rng, 100, 5),
		randomMatrix(rng, 5, 50),
	}
	_, cost, ops, err := ChainDP(ms)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 7500 {
		t.Fatalf("DP cost = %d, want 7500", cost)
	}
	if ops != cost {
		t.Fatalf("actual multiplies %d != DP cost %d", ops, cost)
	}
}

func TestChainDPDimensionMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ms := []*Matrix{randomMatrix(rng, 2, 3), randomMatrix(rng, 4, 2)}
	if _, _, _, err := ChainDP(ms); err == nil {
		t.Fatal("mismatched chain should fail")
	}
}

func TestChainFAQMatchesDP(t *testing.T) {
	eng := core.NewEngine[float64](core.EngineOptions{})
	defer eng.Close()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(4)
		dims := make([]int, n+1)
		for i := range dims {
			dims[i] = 1 + rng.Intn(6)
		}
		ms := make([]*Matrix, n)
		for i := range ms {
			ms[i] = randomMatrix(rng, dims[i], dims[i+1])
		}
		want, _, _, err := ChainDP(ms)
		if err != nil {
			t.Fatal(err)
		}
		got, plan, err := ChainFAQ(eng, ms)
		if err != nil {
			t.Fatal(err)
		}
		if plan == nil || len(plan.Order) != n+1 {
			t.Fatalf("trial %d: bogus plan", trial)
		}
		if !matricesEqual(got, want, 1e-9) {
			t.Fatalf("trial %d: FAQ product differs from DP product", trial)
		}
	}
}

func TestChainFAQSingleMatrix(t *testing.T) {
	eng := core.NewEngine[float64](core.EngineOptions{})
	defer eng.Close()
	rng := rand.New(rand.NewSource(4))
	m := randomMatrix(rng, 3, 4)
	got, _, err := ChainFAQ(eng, []*Matrix{m})
	if err != nil {
		t.Fatal(err)
	}
	if !matricesEqual(got, m, 0) {
		t.Fatal("single-matrix chain should be the identity operation")
	}
}

func TestNaiveDFTKnownValues(t *testing.T) {
	// DFT of [1, 0, 0, 0] is all ones; DFT of [0,1,0,0] is powers of ω.
	out := NaiveDFT([]complex128{1, 0, 0, 0})
	for i, v := range out {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("out[%d] = %v, want 1", i, v)
		}
	}
	out = NaiveDFT([]complex128{0, 1, 0, 0})
	w := cmplx.Exp(complex(0, -2*math.Pi/4))
	for i, v := range out {
		want := cmplx.Pow(w, complex(float64(i), 0))
		if cmplx.Abs(v-want) > 1e-12 {
			t.Fatalf("out[%d] = %v, want %v", i, v, want)
		}
	}
}

func TestFFTViaFAQMatchesNaive(t *testing.T) {
	eng := core.NewEngine[complex128](core.EngineOptions{})
	defer eng.Close()
	rng := rand.New(rand.NewSource(5))
	cases := []struct{ p, m int }{{2, 1}, {2, 3}, {2, 5}, {3, 2}, {3, 3}, {5, 2}}
	for _, c := range cases {
		n := 1
		for i := 0; i < c.m; i++ {
			n *= c.p
		}
		b := make([]complex128, n)
		for i := range b {
			b[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
		}
		got, err := FFTViaFAQ(eng, b, c.p, c.m)
		if err != nil {
			t.Fatal(err)
		}
		want := NaiveDFT(b)
		for i := range want {
			if cmplx.Abs(got[i]-want[i]) > 1e-8*float64(n) {
				t.Fatalf("p=%d m=%d: F[%d] = %v, want %v", c.p, c.m, i, got[i], want[i])
			}
		}
	}
}

func TestFFTViaFAQLengthValidation(t *testing.T) {
	eng := core.NewEngine[complex128](core.EngineOptions{})
	defer eng.Close()
	if _, err := FFTViaFAQ(eng, make([]complex128, 5), 2, 2); err == nil {
		t.Fatal("wrong length should fail")
	}
}

func TestPreparedFFTTransformsManySignals(t *testing.T) {
	eng := core.NewEngine[complex128](core.EngineOptions{Workers: 2})
	defer eng.Close()
	fft, err := NewFFT(eng, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if fft.Size() != 64 {
		t.Fatalf("size = %d, want 64", fft.Size())
	}
	rng := rand.New(rand.NewSource(9))
	const signals = 4
	for s := 0; s < signals; s++ {
		b := make([]complex128, fft.Size())
		for i := range b {
			b[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
		}
		got, err := fft.Transform(context.Background(), b)
		if err != nil {
			t.Fatal(err)
		}
		want := NaiveDFT(b)
		for i := range want {
			if cmplx.Abs(got[i]-want[i]) > 1e-8*float64(fft.Size()) {
				t.Fatalf("signal %d: F[%d] = %v, want %v", s, i, got[i], want[i])
			}
		}
	}
	// One prepare, many transforms: the amortization invariant.
	if st := eng.Stats(); st.Prepared != 1 || st.Runs != signals {
		t.Fatalf("stats after %d transforms: %+v", signals, st)
	}
	if _, err := fft.Transform(context.Background(), make([]complex128, 3)); err == nil {
		t.Fatal("wrong length should fail")
	}
}

func TestNewFFTRejectsBadShape(t *testing.T) {
	if _, err := NewFFT(nil, 1, 3); err == nil {
		t.Fatal("p=1 should fail")
	}
	if _, err := NewFFT(nil, 2, 0); err == nil {
		t.Fatal("m=0 should fail")
	}
}

func BenchmarkFFTViaFAQ1024(b *testing.B) {
	eng := core.NewEngine[complex128](core.EngineOptions{})
	defer eng.Close()
	rng := rand.New(rand.NewSource(1))
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(rng.Float64(), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FFTViaFAQ(eng, x, 2, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNaiveDFT1024(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(rng.Float64(), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NaiveDFT(x)
	}
}
