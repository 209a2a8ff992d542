package factor

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/faqdb/faq/internal/semiring"
)

// deltaBase builds the shared fixture: a 2-ary factor over variables {0, 1}
// with domain sizes {3, 3} holding rows (0,0)=1, (1,2)=2, (2,1)=3.
func deltaBase(t *testing.T) (*semiring.Domain[float64], *Factor[float64], []int) {
	t.Helper()
	d := semiring.Float()
	f, err := New(d, []int{0, 1},
		[][]int{{0, 0}, {1, 2}, {2, 1}}, []float64{1, 2, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d, f, []int{3, 3}
}

func TestApplyDeltaDeleteToEmpty(t *testing.T) {
	d, f, doms := deltaBase(t)
	g, err := f.ApplyDelta(d, Delta[float64]{Op: DeltaDelete,
		Rows: []int32{2, 1, 0, 0, 1, 2}}, doms)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 0 {
		t.Fatalf("delete-all left %d rows", g.Size())
	}
	if f.Size() != 3 {
		t.Fatalf("ApplyDelta mutated the receiver: %d rows", f.Size())
	}
	// The empty factor keeps working: an insert brings rows back, and a
	// delete against it is an absent-row error, not a panic.
	h, err := g.ApplyDelta(d, Delta[float64]{Op: DeltaInsert,
		Rows: []int32{1, 1}, Values: []float64{5}}, doms)
	if err != nil {
		t.Fatal(err)
	}
	if h.Size() != 1 || h.ValueOrZero(d, []int{1, 1}) != 5 {
		t.Fatalf("insert into emptied factor: %v", h)
	}
	if _, err := g.ApplyDelta(d, Delta[float64]{Op: DeltaDelete,
		Rows: []int32{0, 0}}, doms); !errors.Is(err, ErrDeltaAbsent) {
		t.Fatalf("delete from empty factor: %v, want ErrDeltaAbsent", err)
	}
}

func TestApplyDeltaDuplicateRowRejected(t *testing.T) {
	d, f, doms := deltaBase(t)
	if _, err := f.ApplyDelta(d, Delta[float64]{Op: DeltaInsert,
		Rows: []int32{1, 1, 1, 1}, Values: []float64{4, 5}}, doms); !errors.Is(err, ErrDeltaDup) {
		t.Fatalf("duplicate insert rows: %v, want ErrDeltaDup", err)
	}
	if _, err := f.ApplyDelta(d, Delta[float64]{Op: DeltaDelete,
		Rows: []int32{0, 0, 0, 0}}, doms); !errors.Is(err, ErrDeltaDup) {
		t.Fatalf("duplicate delete rows: %v, want ErrDeltaDup", err)
	}
}

func TestApplyDeltaOutOfRangeRejected(t *testing.T) {
	d, f, doms := deltaBase(t)
	for _, rows := range [][]int32{{3, 0}, {0, 3}, {-1, 0}} {
		if _, err := f.ApplyDelta(d, Delta[float64]{Op: DeltaInsert,
			Rows: rows, Values: []float64{1}}, doms); !errors.Is(err, ErrDeltaRange) {
			t.Fatalf("insert of key %v: %v, want ErrDeltaRange", rows, err)
		}
		if _, err := f.ApplyDelta(d, Delta[float64]{Op: DeltaDelete,
			Rows: rows}, doms); !errors.Is(err, ErrDeltaRange) {
			t.Fatalf("delete of key %v: %v, want ErrDeltaRange", rows, err)
		}
	}
	// Without domain sizes the same keys pass shape validation (the caller
	// opted out of bounds checking).
	if _, err := f.ApplyDelta(d, Delta[float64]{Op: DeltaInsert,
		Rows: []int32{7, 9}, Values: []float64{1}}, nil); err != nil {
		t.Fatalf("unchecked insert: %v", err)
	}
}

func TestApplyDeltaShapeRejected(t *testing.T) {
	d, f, doms := deltaBase(t)
	cases := []Delta[float64]{
		{Op: DeltaInsert, Rows: []int32{0, 0, 1}, Values: []float64{1}}, // ragged row block
		{Op: DeltaInsert, Rows: []int32{0, 0}, Values: []float64{1, 2}}, // value count off
		{Op: DeltaDelete, Rows: []int32{0, 0}, Values: []float64{1}},    // delete with values
		{Op: DeltaOp(9), Rows: []int32{0, 0}},                           // unknown op
	}
	for i, dl := range cases {
		if _, err := f.ApplyDelta(d, dl, doms); !errors.Is(err, ErrDeltaArity) {
			t.Fatalf("case %d: %v, want ErrDeltaArity", i, err)
		}
	}
}

func TestApplyDeltaZeroInsertRemoves(t *testing.T) {
	d, f, doms := deltaBase(t)
	// A zero value on a present row removes it; on an absent row it is a
	// no-op — the listing representation never stores zeros.
	g, err := f.ApplyDelta(d, Delta[float64]{Op: DeltaInsert,
		Rows: []int32{1, 2, 2, 2}, Values: []float64{0, 0}}, doms)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 2 {
		t.Fatalf("zero upsert: %d rows, want 2", g.Size())
	}
	if got := g.ValueOrZero(d, []int{1, 2}); got != 0 {
		t.Fatalf("zero upsert left (1,2)=%v", got)
	}
}

// TestDeltaFactorFoldsBack pins the algebra ring propagation rests on:
// old ⊕ Δψ = new pointwise, with unchanged rows absent from Δψ.
func TestDeltaFactorFoldsBack(t *testing.T) {
	d, f, doms := deltaBase(t)
	dl := Delta[float64]{Op: DeltaInsert,
		Rows: []int32{0, 0, 1, 1, 1, 2}, Values: []float64{1, 4, 7}}
	diff, err := f.DeltaFactor(d, func(a, b float64) float64 { return a - b }, dl, doms)
	if err != nil {
		t.Fatal(err)
	}
	// (0,0) is unchanged (1 → 1) and must be dropped from Δψ.
	if diff.Size() != 2 {
		t.Fatalf("Δψ has %d rows, want 2: %v", diff.Size(), diff)
	}
	if got := diff.ValueOrZero(d, []int{0, 0}); got != 0 {
		t.Fatalf("unchanged row in Δψ: %v", got)
	}
	want, err := f.ApplyDelta(d, dl, doms)
	if err != nil {
		t.Fatal(err)
	}
	got := f.Add(d, func(a, b float64) float64 { return a + b }, diff)
	if !got.Equal(d, want) {
		t.Fatalf("old ⊕ Δψ = %v, want %v", got, want)
	}
}

func TestRestrictRangeAndKeyRange(t *testing.T) {
	d, f, _ := deltaBase(t)
	r := f.RestrictRange(0, 1, 3)
	if r.Size() != 2 || r.ValueOrZero(d, []int{1, 2}) != 2 || r.ValueOrZero(d, []int{2, 1}) != 3 {
		t.Fatalf("RestrictRange(0, 1, 3) = %v", r)
	}
	if f.RestrictRange(1, 2, 3).Size() != 1 {
		t.Fatal("RestrictRange on the second column failed")
	}
	checkRestrictRange(t, f, -1, 4)

	dl := Delta[float64]{Op: DeltaDelete, Rows: []int32{2, 1, 0, 0}}
	lo, hi, ok := dl.KeyRange([]int{0, 1}, 0, 2)
	if !ok || lo != 0 || hi != 2 {
		t.Fatalf("KeyRange over var 0 = %d, %d, %v", lo, hi, ok)
	}
	lo, hi, ok = dl.KeyRange([]int{0, 1}, 1, 2)
	if !ok || lo != 0 || hi != 1 {
		t.Fatalf("KeyRange over var 1 = %d, %d, %v", lo, hi, ok)
	}
	if _, _, ok := dl.KeyRange([]int{0, 1}, 5, 2); ok {
		t.Fatal("KeyRange accepted a variable the factor does not hold")
	}
	empty := Delta[float64]{Op: DeltaDelete}
	if _, _, ok := empty.KeyRange([]int{0, 1}, 0, 2); ok {
		t.Fatal("KeyRange accepted an empty batch")
	}
}

// restrictScan is the row-by-row filter RestrictRange performs on columns
// other than the leading one; the leading-column binary search must agree
// with it bit for bit.
func restrictScan(f *Factor[float64], v int, lo, hi int32) *Factor[float64] {
	pos, k := f.VarPos(v), f.Arity()
	out := &Factor[float64]{Vars: append([]int(nil), f.Vars...)}
	for i := 0; i < f.Size(); i++ {
		if x := f.rows[i*k+pos]; x >= lo && x < hi {
			out.rows = append(out.rows, f.rows[i*k:i*k+k]...)
			out.Values = append(out.Values, f.Values[i])
		}
	}
	return out
}

// checkRestrictRange compares RestrictRange with restrictScan on every
// variable of f and every range [lo, hi) with min ≤ lo ≤ max and
// lo-1 ≤ hi ≤ max+1, so empty, reversed, partial and whole ranges all occur.
func checkRestrictRange(t *testing.T, f *Factor[float64], min, max int32) {
	t.Helper()
	for _, v := range f.Vars {
		for lo := min; lo <= max; lo++ {
			for hi := lo - 1; hi <= max+1; hi++ {
				got, want := f.RestrictRange(v, lo, hi), restrictScan(f, v, lo, hi)
				sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
				if !slices.Equal(got.Vars, want.Vars) || !slices.Equal(got.rows, want.rows) ||
					!slices.EqualFunc(got.Values, want.Values, sameBits) {
					t.Fatalf("RestrictRange(%d, %d, %d) on %v = %v, scan %v", v, lo, hi, f, got, want)
				}
			}
		}
	}
}

// TestRestrictRangeMatchesScan runs checkRestrictRange over random factors
// of arity 1 to 3 whose leading column repeats, so the binary search meets
// long runs of equal keys, gaps and both ends of the block.
func TestRestrictRangeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := semiring.Float()
	for trial := 0; trial < 60; trial++ {
		arity := 1 + trial%3
		vars := make([]int, arity)
		for i := range vars {
			vars[i] = 3*i + 1
		}
		var tuples [][]int
		var values []float64
		for r := rng.Intn(40); r > 0; r-- {
			tup := make([]int, arity)
			for i := range tup {
				tup[i] = rng.Intn(6)
			}
			tuples = append(tuples, tup)
			values = append(values, rng.NormFloat64())
		}
		f, err := New(d, vars, tuples, values, func(a, _ float64) float64 { return a })
		if err != nil {
			t.Fatal(err)
		}
		checkRestrictRange(t, f, -1, 6)
	}
}
