package core

import (
	"context"
	"math/rand"
	"testing"

	"github.com/faqdb/faq/internal/factor"
	"github.com/faqdb/faq/internal/semiring"
)

var fd = semiring.Float()

// runOrder runs q along order with opts on an engine of its own (pool
// width GOMAXPROCS), closed before it returns.
func runOrder[V any](q *Query[V], order []int, opts Options) (*Result[V], error) {
	e := NewEngine[V](EngineOptions{})
	defer e.Close()
	prep, err := e.PrepareOrder(q, order, opts)
	if err != nil {
		return nil, err
	}
	return prep.Run(context.Background())
}

// solve plans q and runs it with opts on an engine of its own (pool width
// GOMAXPROCS), closed before it returns.
func solve[V any](q *Query[V], opts Options) (*Result[V], *Plan, error) {
	e := NewEngine[V](EngineOptions{})
	defer e.Close()
	prep, err := e.PrepareCtx(context.Background(), q, opts)
	if err != nil {
		return nil, nil, err
	}
	res, err := prep.Run(context.Background())
	return res, prep.Plan(), err
}

func mkFactor(t testing.TB, vars []int, tuples [][]int, values []float64) *factor.Factor[float64] {
	t.Helper()
	f, err := factor.New(fd, vars, tuples, values, nil)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// triangleQuery builds Σ_{x0,x1,x2} ψ01 ψ12 ψ02 over the given edge list.
func triangleQuery(t testing.TB, dom int, edges [][]int) *Query[float64] {
	t.Helper()
	ones := make([]float64, len(edges))
	for i := range ones {
		ones[i] = 1
	}
	combine := func(a, b float64) float64 { return a }
	f01, _ := factor.New(fd, []int{0, 1}, edges, ones, combine)
	f12, _ := factor.New(fd, []int{1, 2}, edges, ones, combine)
	f02, _ := factor.New(fd, []int{0, 2}, edges, ones, combine)
	return &Query[float64]{
		D:        fd,
		NVars:    3,
		DomSizes: []int{dom, dom, dom},
		NumFree:  0,
		Aggs: []Aggregate[float64]{
			SemiringAgg(semiring.OpFloatSum()),
			SemiringAgg(semiring.OpFloatSum()),
			SemiringAgg(semiring.OpFloatSum()),
		},
		Factors: []*factor.Factor[float64]{f01, f12, f02},
	}
}

func TestInsideOutTriangleCount(t *testing.T) {
	edges := [][]int{{0, 1}, {1, 2}, {0, 2}, {1, 0}, {2, 1}, {2, 0}, {0, 3}, {3, 0}}
	q := triangleQuery(t, 4, edges)
	res, err := runOrder(q, q.Shape().ExpressionOrder(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := BruteForceScalar(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Scalar(); got != want {
		t.Fatalf("triangle count = %v, brute force %v", got, want)
	}
	if want == 0 {
		t.Fatal("test instance should contain triangles")
	}
}

func TestInsideOutMarginalWithFreeVars(t *testing.T) {
	// Chain x0 - x1 - x2, marginalize x1, x2; free x0.
	f01 := mkFactor(t, []int{0, 1}, [][]int{{0, 0}, {0, 1}, {1, 0}}, []float64{0.5, 0.25, 0.125})
	f12 := mkFactor(t, []int{1, 2}, [][]int{{0, 0}, {1, 1}}, []float64{2, 4})
	q := &Query[float64]{
		D: fd, NVars: 3, DomSizes: []int{2, 2, 2}, NumFree: 1,
		Aggs: []Aggregate[float64]{
			Free[float64](),
			SemiringAgg(semiring.OpFloatSum()),
			SemiringAgg(semiring.OpFloatSum()),
		},
		Factors: []*factor.Factor[float64]{f01, f12},
	}
	res, err := runOrder(q, []int{0, 1, 2}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := BruteForce(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Output.Equal(fd, want) {
		t.Fatalf("marginal mismatch:\n got %v\nwant %v", res.Output, want)
	}
}

func TestInsideOutMAP(t *testing.T) {
	f01 := mkFactor(t, []int{0, 1}, [][]int{{0, 0}, {0, 1}, {1, 1}}, []float64{0.5, 2, 3})
	f1 := mkFactor(t, []int{1}, [][]int{{0}, {1}}, []float64{5, 0.5})
	q := &Query[float64]{
		D: fd, NVars: 2, DomSizes: []int{2, 2}, NumFree: 0,
		Aggs: []Aggregate[float64]{
			SemiringAgg(semiring.OpFloatMax()),
			SemiringAgg(semiring.OpFloatMax()),
		},
		Factors: []*factor.Factor[float64]{f01, f1},
	}
	res, err := runOrder(q, []int{0, 1}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, _ := BruteForceScalar(q)
	if got := res.Scalar(); got != want {
		t.Fatalf("MAP = %v, want %v", got, want)
	}
}

func TestInsideOutMixedSumMax(t *testing.T) {
	// φ = Σ_{x0} max_{x1} Σ_{x2} ψ01 ψ12 — three different aggregate slots.
	f01 := mkFactor(t, []int{0, 1}, [][]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}}, []float64{1, 2, 3, 4})
	f12 := mkFactor(t, []int{1, 2}, [][]int{{0, 0}, {0, 1}, {1, 1}}, []float64{5, 6, 7})
	q := &Query[float64]{
		D: fd, NVars: 3, DomSizes: []int{2, 2, 2}, NumFree: 0,
		Aggs: []Aggregate[float64]{
			SemiringAgg(semiring.OpFloatSum()),
			SemiringAgg(semiring.OpFloatMax()),
			SemiringAgg(semiring.OpFloatSum()),
		},
		Factors: []*factor.Factor[float64]{f01, f12},
	}
	res, err := runOrder(q, []int{0, 1, 2}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, _ := BruteForceScalar(q)
	if got := res.Scalar(); got != want {
		t.Fatalf("mixed query = %v, want %v", got, want)
	}
}

func TestInsideOutProductAggregateIdempotent(t *testing.T) {
	// QCQ-style: max_{x0} Π_{x1} max_{x2} ψ01 ψ12 over {0,1} factors.
	f01 := mkFactor(t, []int{0, 1}, [][]int{{0, 0}, {0, 1}, {1, 0}}, []float64{1, 1, 1})
	f12 := mkFactor(t, []int{1, 2}, [][]int{{0, 0}, {1, 1}}, []float64{1, 1})
	q := &Query[float64]{
		D: fd, NVars: 3, DomSizes: []int{2, 2, 2}, NumFree: 0,
		Aggs: []Aggregate[float64]{
			SemiringAgg(semiring.OpFloatMax()),
			ProductAgg[float64](),
			SemiringAgg(semiring.OpFloatMax()),
		},
		Factors:          []*factor.Factor[float64]{f01, f12},
		IdempotentInputs: true,
	}
	res, err := runOrder(q, []int{0, 1, 2}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, _ := BruteForceScalar(q)
	if got := res.Scalar(); got != want {
		t.Fatalf("QCQ-style query = %v, want %v", got, want)
	}
}

func TestInsideOutProductAggregateNonIdempotent(t *testing.T) {
	// Π over a variable with general values exercises the powering path
	// (Eq. (8)): φ = Σ_{x0} Π_{x1} ψ01 ψ0.
	f01 := mkFactor(t, []int{0, 1}, [][]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}}, []float64{2, 3, 1, 5})
	f0 := mkFactor(t, []int{0}, [][]int{{0}, {1}}, []float64{2, 3})
	q := &Query[float64]{
		D: fd, NVars: 2, DomSizes: []int{2, 2}, NumFree: 0,
		Aggs: []Aggregate[float64]{
			SemiringAgg(semiring.OpFloatSum()),
			ProductAgg[float64](),
		},
		Factors: []*factor.Factor[float64]{f01, f0},
	}
	res, err := runOrder(q, []int{0, 1}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Hand check: Σ_x0 f0(x0)^2 · Π_x1 f01(x0,x1)
	//   x0=0: f0=2 ... wait, Eq. (8) powers factors not containing x1:
	//   φ = Σ_x0 [f0(x0)]^{|Dom(x1)|} · Π_x1 f01(x0,x1)
	//   x0=0: 2^2 · (2·3) = 24; x0=1: 3^2 · (1·5) = 45; total 69.
	want, _ := BruteForceScalar(q)
	if want != 69 {
		t.Fatalf("brute force sanity: got %v, hand computed 69", want)
	}
	if got := res.Scalar(); got != want {
		t.Fatalf("product aggregate query = %v, want %v", got, want)
	}
}

func TestInsideOutMissingProductRow(t *testing.T) {
	// A product aggregate over a variable with an unlisted (zero) entry must
	// annihilate that branch.
	f01 := mkFactor(t, []int{0, 1}, [][]int{{0, 0}, {1, 0}, {1, 1}}, []float64{2, 3, 4})
	q := &Query[float64]{
		D: fd, NVars: 2, DomSizes: []int{2, 2}, NumFree: 1,
		Aggs:    []Aggregate[float64]{Free[float64](), ProductAgg[float64]()},
		Factors: []*factor.Factor[float64]{f01},
	}
	res, err := runOrder(q, []int{0, 1}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, _ := BruteForce(q)
	if !res.Output.Equal(fd, want) {
		t.Fatalf("got %v want %v", res.Output, want)
	}
	if _, ok := res.Output.Value([]int{0}); ok {
		t.Fatal("x0=0 misses x1=1 so its product must be zero")
	}
}

func TestInsideOutValidation(t *testing.T) {
	q := triangleQuery(t, 2, [][]int{{0, 0}})
	if _, err := runOrder(q, []int{0, 1}, DefaultOptions()); err == nil {
		t.Fatal("short ordering should fail")
	}
	if _, err := runOrder(q, []int{0, 1, 1}, DefaultOptions()); err == nil {
		t.Fatal("non-permutation should fail")
	}
	// Free variables must be listed first.
	q.NumFree = 1
	q.Aggs[0] = Free[float64]()
	if _, err := runOrder(q, []int{1, 0, 2}, DefaultOptions()); err == nil {
		t.Fatal("free variable not first should fail")
	}
}

func TestInsideOutIsolatedVariableRejected(t *testing.T) {
	f := mkFactor(t, []int{0}, [][]int{{0}}, []float64{1})
	q := &Query[float64]{
		D: fd, NVars: 2, DomSizes: []int{2, 2}, NumFree: 0,
		Aggs: []Aggregate[float64]{
			SemiringAgg(semiring.OpFloatSum()), SemiringAgg(semiring.OpFloatSum()),
		},
		Factors: []*factor.Factor[float64]{f},
	}
	if _, err := runOrder(q, []int{0, 1}, DefaultOptions()); err == nil {
		t.Fatal("variable in no factor should be rejected")
	}
}

func TestInsideOutAblationsAgree(t *testing.T) {
	q := randomQuery(rand.New(rand.NewSource(5)), 4, 2)
	want, err := BruteForce(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{IndicatorProjections: true, FilterOutput: true},
		{IndicatorProjections: false, FilterOutput: true},
		{IndicatorProjections: true, FilterOutput: false},
		{IndicatorProjections: false, FilterOutput: false},
	} {
		res, err := runOrder(q, q.Shape().ExpressionOrder(), opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if !res.Output.Equal(fd, want) {
			t.Fatalf("%+v: output mismatch", opts)
		}
	}
}

func TestFactorizedOutput(t *testing.T) {
	q := randomQuery(rand.New(rand.NewSource(7)), 4, 2)
	opts := DefaultOptions()
	opts.Factorized = true
	res, err := runOrder(q, q.Shape().ExpressionOrder(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Factorized == nil || res.Output != nil {
		t.Fatal("factorized mode should not materialize the listing")
	}
	want, _ := BruteForce(q)
	listing, err := res.Factorized.ToListing(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !listing.Equal(fd, want) {
		t.Fatalf("factorized listing mismatch:\n got %v\nwant %v", listing, want)
	}
	// Point queries.
	assignment := make([]int, q.NVars)
	var rec func(i int)
	rec = func(i int) {
		if i == q.NumFree {
			wantV := want.At(fd, assignment)
			if got := res.Factorized.Value(assignment); got != wantV {
				t.Fatalf("Value(%v) = %v, want %v", assignment[:q.NumFree], got, wantV)
			}
			return
		}
		for x := 0; x < q.DomSizes[i]; x++ {
			assignment[i] = x
			rec(i + 1)
		}
	}
	rec(0)
	// Enumeration covers exactly the listing.
	n := 0
	if err := res.Factorized.Enumerate(func(tuple []int, val float64) { n++ }); err != nil {
		t.Fatal(err)
	}
	if n != want.Size() {
		t.Fatalf("enumerated %d tuples, want %d", n, want.Size())
	}
}

// randomQuery builds a random FAQ query with nv variables and nf free
// variables: random aggregates on bound variables (sum, max or product),
// random sparse factors covering every variable.
func randomQuery(rng *rand.Rand, nv, nf int) *Query[float64] {
	doms := make([]int, nv)
	for i := range doms {
		doms[i] = 1 + rng.Intn(3)
	}
	aggs := make([]Aggregate[float64], nv)
	for i := 0; i < nv; i++ {
		if i < nf {
			aggs[i] = Free[float64]()
			continue
		}
		switch rng.Intn(3) {
		case 0:
			aggs[i] = SemiringAgg(semiring.OpFloatSum())
		case 1:
			aggs[i] = SemiringAgg(semiring.OpFloatMax())
		default:
			aggs[i] = ProductAgg[float64]()
		}
	}
	var factors []*factor.Factor[float64]
	covered := make([]bool, nv)
	for len(factors) < 2 || !all(covered) {
		arity := 1 + rng.Intn(minI(3, nv))
		perm := rng.Perm(nv)[:arity]
		sortI(perm)
		var tuples [][]int
		var values []float64
		total := 1
		for _, v := range perm {
			total *= doms[v]
		}
		for enc := 0; enc < total; enc++ {
			if rng.Intn(4) == 0 {
				continue // leave a zero hole
			}
			tup := make([]int, arity)
			e := enc
			for i, v := range perm {
				tup[i] = e % doms[v]
				e /= doms[v]
			}
			tuples = append(tuples, tup)
			values = append(values, float64(1+rng.Intn(3)))
		}
		f, err := factor.New(fd, perm, tuples, values, nil)
		if err != nil {
			panic(err)
		}
		factors = append(factors, f)
		for _, v := range perm {
			covered[v] = true
		}
	}
	return &Query[float64]{
		D: fd, NVars: nv, DomSizes: doms, NumFree: nf,
		Aggs: aggs, Factors: factors,
	}
}

func all(bs []bool) bool {
	for _, b := range bs {
		if !b {
			return false
		}
	}
	return true
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func sortI(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// Property: InsideOut along the expression order equals brute force on
// random mixed-aggregate queries.  This exercises Case 1, Case 2, indicator
// projections, the powering path and the output phase together.
func TestQuickInsideOutMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 200; trial++ {
		nv := 1 + rng.Intn(5)
		nf := rng.Intn(nv + 1)
		q := randomQuery(rng, nv, nf)
		want, err := BruteForce(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runOrder(q, q.Shape().ExpressionOrder(), DefaultOptions())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !res.Output.Equal(fd, want) {
			t.Fatalf("trial %d (n=%d f=%d): InsideOut disagrees with brute force\n got %v\nwant %v",
				trial, nv, nf, res.Output, want)
		}
	}
}
