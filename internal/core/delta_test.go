package core

import (
	"context"
	"errors"
	"testing"

	"github.com/faqdb/faq/internal/factor"
	"github.com/faqdb/faq/internal/semiring"
)

// deltaTriangle builds a float triangle-count query small enough to reason
// about by hand: each relation holds the full 2×2 cross product.
func deltaTriangle() *Query[float64] {
	d := semiring.Float()
	mk := func(vars []int) *factor.Factor[float64] {
		return factor.FromFunc(d, vars, []int{2, 2, 2}, func([]int) float64 { return 1 })
	}
	return &Query[float64]{
		D: d, NVars: 3, DomSizes: []int{2, 2, 2}, NumFree: 0,
		Aggs: []Aggregate[float64]{
			SemiringAgg(semiring.OpFloatSum()),
			SemiringAgg(semiring.OpFloatSum()),
			SemiringAgg(semiring.OpFloatSum()),
		},
		Factors: []*factor.Factor[float64]{mk([]int{0, 1}), mk([]int{1, 2}), mk([]int{0, 2})},
	}
}

// TestApplyDeltasBatchIsAtomic: a batch whose FIRST delta is valid and whose
// SECOND is not must change nothing — no partial application, no committed
// factors, and the next result identical to the pre-batch one.
func TestApplyDeltasBatchIsAtomic(t *testing.T) {
	eng := NewEngine[float64](EngineOptions{Workers: 2})
	defer eng.Close()
	q := deltaTriangle()
	prep, err := eng.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	base, err := prep.ApplyDeltas(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}

	bad := []Delta[float64]{
		{Factor: 0, Op: factor.DeltaInsert, Rows: []int32{0, 0}, Values: []float64{7}},
		{Factor: 1, Op: factor.DeltaDelete, Rows: []int32{9, 9}}, // out of domain
	}
	if _, err := prep.ApplyDeltas(ctx, bad); !errors.Is(err, factor.ErrDeltaRange) {
		t.Fatalf("mixed batch: %v, want ErrDeltaRange", err)
	}
	for i, f := range prep.CurrentFactors() {
		if !f.Equal(q.D, q.Factors[i]) {
			t.Fatalf("factor %d changed after a rejected batch", i)
		}
	}
	res, err := prep.ApplyDeltas(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalar() != base.Scalar() {
		t.Fatalf("result drifted after a rejected batch: %v != %v", res.Scalar(), base.Scalar())
	}

	// Same shape through the other sentinels: absent delete and in-batch
	// duplicate, each preceded by a valid delta.
	for _, tc := range []struct {
		name string
		dl   Delta[float64]
		want error
	}{
		{"absent", Delta[float64]{Factor: 2, Op: factor.DeltaDelete, Rows: []int32{0, 0}}, factor.ErrDeltaAbsent},
		{"dup", Delta[float64]{Factor: 2, Op: factor.DeltaInsert,
			Rows: []int32{0, 0, 0, 0}, Values: []float64{1, 2}}, factor.ErrDeltaDup},
	} {
		batch := []Delta[float64]{
			{Factor: 0, Op: factor.DeltaInsert, Rows: []int32{0, 1}, Values: []float64{3}},
			tc.dl,
		}
		if tc.name == "absent" {
			// (0,0) is present in the base state, so delete it validly
			// first — the second delete of the same row is then absent.
			batch = append(batch, Delta[float64]{Factor: 2, Op: factor.DeltaDelete, Rows: []int32{0, 0}})
		}
		if _, err := prep.ApplyDeltas(ctx, batch); !errors.Is(err, tc.want) {
			t.Fatalf("%s batch: %v, want %v", tc.name, err, tc.want)
		}
		res, err := prep.ApplyDeltas(ctx, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Scalar() != base.Scalar() {
			t.Fatalf("%s: state drifted after rejection: %v != %v", tc.name, res.Scalar(), base.Scalar())
		}
	}
}

// TestApplyDeltasDeleteToEmptyFactor: draining a relation empties the join;
// re-inserting restores it — through the full executor, not just the factor
// layer — and the trie cache serves the evolving states correctly.
func TestApplyDeltasDeleteToEmptyFactor(t *testing.T) {
	eng := NewEngine[float64](EngineOptions{Workers: 2})
	defer eng.Close()
	q := deltaTriangle()
	prep, err := eng.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	base, err := prep.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if base.Scalar() != 8 { // 2×2×2 cross product
		t.Fatalf("baseline: %v, want 8", base.Scalar())
	}

	drain := []Delta[float64]{{Factor: 1, Op: factor.DeltaDelete,
		Rows: []int32{0, 0, 0, 1, 1, 0, 1, 1}}}
	res, err := prep.ApplyDeltas(ctx, drain)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalar() != 0 {
		t.Fatalf("drained join: %v, want 0", res.Scalar())
	}
	if got := prep.CurrentFactors()[1].Size(); got != 0 {
		t.Fatalf("factor 1 holds %d rows after the drain", got)
	}

	refill := []Delta[float64]{{Factor: 1, Op: factor.DeltaInsert,
		Rows: []int32{0, 0, 0, 1, 1, 0, 1, 1}, Values: []float64{1, 1, 1, 1}}}
	res, err = prep.ApplyDeltas(ctx, refill)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalar() != 8 {
		t.Fatalf("refilled join: %v, want 8", res.Scalar())
	}

	if _, err := prep.ApplyDeltas(ctx, []Delta[float64]{{Factor: -1}}); !errors.Is(err, ErrDeltaFactor) {
		t.Fatalf("negative factor index: %v, want ErrDeltaFactor", err)
	}
}

// TestApplyDeltasCountsStats: the engine counters must attribute work to the
// strategy that did it.
func TestApplyDeltasCountsStats(t *testing.T) {
	eng := NewEngine[float64](EngineOptions{Workers: 2})
	defer eng.Close()
	q := deltaTriangle()
	prep, err := eng.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := prep.DeltaStrategy(); got != "ring" {
		t.Fatalf("triangle count strategy: %q, want ring", got)
	}
	ctx := context.Background()
	if _, err := prep.ApplyDeltas(ctx, []Delta[float64]{{Factor: 0, Op: factor.DeltaInsert,
		Rows: []int32{0, 0}, Values: []float64{2}}}); err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	if s.DeltasApplied != 1 {
		t.Fatalf("DeltasApplied = %d, want 1", s.DeltasApplied)
	}
	if s.DeltaRingRuns == 0 {
		t.Fatalf("ring strategy ran but DeltaRingRuns = 0 (%+v)", s)
	}
}
