package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/faqdb/faq/internal/factor"
	"github.com/faqdb/faq/internal/semiring"
)

// supportCase is one domain of the support-view suite: random non-zero
// values small enough that every ⊕/⊗ fold is exact, so InsideOut and the
// brute-force oracle must agree bit for bit.
type supportCase[V any] struct {
	d    *semiring.Domain[V]
	ops  []*semiring.Op[V]
	val  func(*rand.Rand) V
	bits func(V) uint64
}

// nestedQuery draws a query whose factors include subsets of a wider
// factor's variables, so eliminations and output filters see factors whose
// variables all lie in U — the full-arity indicator projections that join
// through the factor's own trie.
func nestedQuery[V any](rng *rand.Rand, c supportCase[V]) *Query[V] {
	nv := 3 + rng.Intn(3)
	nf := rng.Intn(3)
	doms := make([]int, nv)
	for i := range doms {
		doms[i] = 2 + rng.Intn(2)
	}
	aggs := make([]Aggregate[V], nv)
	for i := range aggs {
		if i < nf {
			aggs[i] = Free[V]()
		} else {
			aggs[i] = SemiringAgg(c.ops[rng.Intn(len(c.ops))])
		}
	}
	mk := func(vars []int) *factor.Factor[V] {
		slices.Sort(vars)
		total := 1
		for _, v := range vars {
			total *= doms[v]
		}
		var tuples [][]int
		var values []V
		for enc := 0; enc < total; enc++ {
			if rng.Intn(4) == 0 {
				continue // leave a zero hole
			}
			tup := make([]int, len(vars))
			e := enc
			for i, v := range vars {
				tup[i] = e % doms[v]
				e /= doms[v]
			}
			tuples = append(tuples, tup)
			values = append(values, c.val(rng))
		}
		f, err := factor.New(c.d, vars, tuples, values, nil)
		if err != nil {
			panic(err)
		}
		return f
	}
	wide := rng.Perm(nv)[:3]
	factors := []*factor.Factor[V]{mk(append([]int(nil), wide...))}
	for i := 0; i < 1+rng.Intn(2); i++ {
		sub := rng.Perm(3)[:1+rng.Intn(2)]
		vars := make([]int, len(sub))
		for j, k := range sub {
			vars[j] = wide[k]
		}
		factors = append(factors, mk(vars))
	}
	for v := 0; v < nv; v++ {
		if !slices.Contains(wide, v) {
			factors = append(factors, mk([]int{v, wide[rng.Intn(3)]}))
		}
	}
	rng.Shuffle(len(factors), func(i, j int) { factors[i], factors[j] = factors[j], factors[i] })
	return &Query[V]{D: c.d, NVars: nv, DomSizes: doms, NumFree: nf, Aggs: aggs, Factors: factors}
}

// checkSupportView runs random nested queries with indicator projections on
// and off along the expression order, and prepared on the planned order
// (cold and warm), and requires every result to equal the brute-force
// oracle row for row and bit for bit.
func checkSupportView[V any](t *testing.T, seed int64, c supportCase[V]) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	eng := NewEngine[V](EngineOptions{Workers: 1})
	defer eng.Close()
	same := func(trial int, how string, got, want *factor.Factor[V]) {
		t.Helper()
		if got.Size() != want.Size() || !slices.Equal(got.Vars, want.Vars) {
			t.Fatalf("trial %d %s: %d rows over %v, oracle %d rows over %v",
				trial, how, got.Size(), got.Vars, want.Size(), want.Vars)
		}
		for i := 0; i < got.Size(); i++ {
			if !slices.Equal(got.Row(i), want.Row(i)) || c.bits(got.Values[i]) != c.bits(want.Values[i]) {
				t.Fatalf("trial %d %s: row %d = %v:%v, oracle %v:%v",
					trial, how, i, got.Row(i), got.Values[i], want.Row(i), want.Values[i])
			}
		}
	}
	for trial := 0; trial < 60; trial++ {
		q := nestedQuery(rng, c)
		want, err := BruteForce(q)
		if err != nil {
			t.Fatal(err)
		}
		on := DefaultOptions()
		on.Workers = 1
		off := on
		off.IndicatorProjections = false
		for _, opts := range []Options{on, off} {
			res, err := runOrder(q, q.Shape().ExpressionOrder(), opts)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			same(trial, "expression order", res.Output, want)
		}
		prep, err := eng.PrepareCtx(context.Background(), q, on)
		if err != nil {
			t.Fatal(err)
		}
		for _, how := range []string{"prepared cold", "prepared warm"} {
			res, err := prep.Run(context.Background())
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			same(trial, how, res.Output, want)
		}
	}
}

func TestSupportViewFloat(t *testing.T) {
	checkSupportView(t, 71, supportCase[float64]{
		d:    semiring.Float(),
		ops:  []*semiring.Op[float64]{semiring.OpFloatSum(), semiring.OpFloatMax()},
		val:  func(rng *rand.Rand) float64 { return float64(1+rng.Intn(7)) / 4 },
		bits: math.Float64bits,
	})
}

func TestSupportViewInt(t *testing.T) {
	checkSupportView(t, 72, supportCase[int64]{
		d:    semiring.Int(),
		ops:  []*semiring.Op[int64]{semiring.OpIntSum(), semiring.OpIntMax()},
		val:  func(rng *rand.Rand) int64 { return int64(1 + rng.Intn(5)) },
		bits: func(v int64) uint64 { return uint64(v) },
	})
}

func TestSupportViewTropical(t *testing.T) {
	checkSupportView(t, 73, supportCase[float64]{
		d:    semiring.Tropical(),
		ops:  []*semiring.Op[float64]{semiring.OpTropicalMin()},
		val:  func(rng *rand.Rand) float64 { return float64(rng.Intn(9)) },
		bits: math.Float64bits,
	})
}

func TestSupportViewBool(t *testing.T) {
	checkSupportView(t, 74, supportCase[bool]{
		d:   semiring.Bool(),
		ops: []*semiring.Op[bool]{semiring.OpOr()},
		val: func(*rand.Rand) bool { return true },
		bits: func(v bool) uint64 {
			if v {
				return 1
			}
			return 0
		},
	})
}
