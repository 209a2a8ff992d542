package hypergraph

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/faqdb/faq/internal/bitset"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestRhoStarKnownValues(t *testing.T) {
	cases := []struct {
		name string
		h    *Hypergraph
		b    bitset.Set
		want float64
	}{
		{"triangle", Cycle(3), bitset.New(0, 1, 2), 1.5},
		{"path-cover", Path(4), bitset.New(0, 1, 2, 3), 2},
		{"LW4", LoomisWhitney(4), bitset.New(0, 1, 2, 3), 4.0 / 3.0},
		{"C5", Cycle(5), bitset.New(0, 1, 2, 3, 4), 2.5},
		{"single-vertex", Cycle(3), bitset.New(1), 1},
		{"empty", Cycle(3), bitset.New(), 0},
	}
	for _, c := range cases {
		w := NewWidthCalc(c.h)
		if got := w.RhoStar(c.b); !approx(got, c.want) {
			t.Errorf("%s: ρ* = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRhoStarInfeasible(t *testing.T) {
	h := New(3)
	h.AddEdge(0, 1) // vertex 2 uncovered
	w := NewWidthCalc(h)
	if got := w.RhoStar(bitset.New(2)); !math.IsInf(got, 1) {
		t.Fatalf("ρ* of uncoverable set = %v, want +Inf", got)
	}
}

func TestRhoIntegral(t *testing.T) {
	w := NewWidthCalc(Cycle(3))
	if got := w.Rho(bitset.New(0, 1, 2)); got != 2 {
		t.Fatalf("ρ(triangle) = %d, want 2", got)
	}
	if got := w.Rho(bitset.New(0, 1)); got != 1 {
		t.Fatalf("ρ(one edge) = %d, want 1", got)
	}
	if got := w.Rho(bitset.New()); got != 0 {
		t.Fatalf("ρ(∅) = %d, want 0", got)
	}
}

func TestRhoCaching(t *testing.T) {
	w := NewWidthCalc(Cycle(5))
	b := bitset.New(0, 1, 2, 3, 4)
	first := w.RhoStar(b)
	second := w.RhoStar(b)
	if first != second {
		t.Fatal("cache returned a different value")
	}
	if len(w.rhoStar) != 1 {
		t.Fatalf("cache size %d, want 1", len(w.rhoStar))
	}
}

func TestAGMTriangle(t *testing.T) {
	// AGM bound of the triangle with all |ψ| = N is N^{3/2}.
	w := NewWidthCalc(Cycle(3))
	n := 1024.0
	val, lam := w.AGM(bitset.New(0, 1, 2), []float64{n, n, n})
	if !approx(val, math.Pow(n, 1.5)) {
		t.Fatalf("AGM = %v, want %v", val, math.Pow(n, 1.5))
	}
	sum := lam[0] + lam[1] + lam[2]
	if !approx(sum, 1.5) {
		t.Fatalf("Σλ = %v, want 1.5", sum)
	}
}

func TestAGMAsymmetricSizes(t *testing.T) {
	// Path {0,1},{1,2} with sizes 4 and 16: cover {0,1,2} needs both edges,
	// AGM = 4·16 = 64.
	w := NewWidthCalc(Path(3))
	val, _ := w.AGM(bitset.New(0, 1, 2), []float64{4, 16})
	if !approx(val, 64) {
		t.Fatalf("AGM = %v, want 64", val)
	}
}

func TestTreewidthKnownValues(t *testing.T) {
	cases := []struct {
		name string
		h    *Hypergraph
		want float64
	}{
		{"path", Path(6), 1},
		{"cycle", Cycle(6), 2},
		{"K4", Clique(4), 3},
		{"star", Star(6), 1},
		{"grid2x4", Grid(2, 4), 2},
		{"grid3x3", Grid(3, 3), 3},
	}
	for _, c := range cases {
		w := NewWidthCalc(c.h)
		got, order := w.Treewidth()
		if !approx(got, c.want) {
			t.Errorf("%s: tw = %v, want %v", c.name, got, c.want)
		}
		// The returned ordering must realize the width.
		if iw := c.h.InducedWidth(order, func(u bitset.Set) float64 { return float64(u.Len() - 1) }); !approx(iw, got) {
			t.Errorf("%s: ordering realizes %v, claimed %v", c.name, iw, got)
		}
	}
}

func TestFHTWKnownValues(t *testing.T) {
	cases := []struct {
		name string
		h    *Hypergraph
		want float64
	}{
		{"triangle", Cycle(3), 1.5},
		// Every size-3 bag of C4 induces only a 2-path of edges, so ρ* = 2.
		{"C4", Cycle(4), 2},
		{"path", Path(5), 1},
		{"LW4", LoomisWhitney(4), 4.0 / 3.0},
		{"acyclic-3uniform", NewWithEdges(5, []int{0, 1, 2}, []int{2, 3, 4}), 1},
	}
	for _, c := range cases {
		w := NewWidthCalc(c.h)
		got, order := w.FHTW()
		if !approx(got, c.want) {
			t.Errorf("%s: fhtw = %v, want %v", c.name, got, c.want)
		}
		if iw := c.h.InducedWidth(order, func(u bitset.Set) float64 { return w.RhoStar(u) }); !approx(iw, got) {
			t.Errorf("%s: ordering realizes %v, claimed %v", c.name, iw, got)
		}
	}
}

func TestHTWvsFHTWGap(t *testing.T) {
	// On the triangle htw (integral covers of bags) is 2 while fhtw is 1.5:
	// the gap InsideOut exploits over integral-cover PGM algorithms [54].
	w := NewWidthCalc(Cycle(3))
	htw, _ := w.HTW()
	fhtw, _ := w.FHTW()
	if htw != 2 || !approx(fhtw, 1.5) {
		t.Fatalf("htw = %v fhtw = %v, want 2 and 1.5", htw, fhtw)
	}
}

func TestElimDPAllowedPredicate(t *testing.T) {
	// Force vertex 0 to be eliminated first (it must be last in σ):
	// allowed(v) only if v == 0 or 0 already eliminated.
	h := Path(4)
	dp := &ElimDP{
		H:    h,
		Cost: func(v int, u bitset.Set) float64 { return float64(u.Len() - 1) },
		Allowed: func(rem bitset.Set, v int) bool {
			return v == 0 || !rem.Contains(0)
		},
	}
	val, order, err := dp.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if order[len(order)-1] != 0 {
		t.Fatalf("σ = %v: vertex 0 should be last (eliminated first)", order)
	}
	// Eliminating the path endpoint first keeps width 1.
	if !approx(val, 1) {
		t.Fatalf("width = %v, want 1", val)
	}
}

func TestElimDPProductVariables(t *testing.T) {
	// Star with product center: stripping the center leaves singletons, so
	// every U for the leaves is tiny.  With semiring center eliminated first
	// the union would be the whole star.
	h := Star(5)
	w := NewWidthCalc(h)
	costAll := func(v int, u bitset.Set) float64 { return w.RhoStar(u) }
	dp := &ElimDP{H: h, Cost: costAll, Product: bitset.New(0)}
	val, _, err := dp.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(val, 1) {
		t.Fatalf("width with product center = %v, want 1", val)
	}
}

func TestGreedyOrderMatchesExactOnTrees(t *testing.T) {
	h := Star(7)
	w := NewWidthCalc(h)
	cost := func(v int, u bitset.Set) float64 { return w.RhoStar(u) }
	_, width := GreedyOrder(h, cost, cost, bitset.Set{}, nil)
	if !approx(width, 1) {
		t.Fatalf("greedy width on star = %v, want 1", width)
	}
}

func TestGreedyNeverBeatsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		h := Random(rng, 7, 6, 3)
		w := NewWidthCalc(h)
		cost := func(v int, u bitset.Set) float64 { return w.RhoStar(u) }
		exact, _ := w.FHTW()
		_, greedy := GreedyOrder(h, MinFillScore(h), cost, bitset.Set{}, nil)
		if greedy < exact-1e-6 {
			t.Fatalf("trial %d: greedy %v beat exact %v", trial, greedy, exact)
		}
	}
}

func BenchmarkFHTWGrid3x3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := NewWidthCalc(Grid(3, 3))
		if v, _ := w.FHTW(); v < 1 {
			b.Fatal("bogus width")
		}
	}
}

// TestPlannersBreakTiesTowardAscendingOrder pins the tie rule of ElimDP and
// GreedyOrder: among equal-cost candidates the highest id is eliminated
// first, so on these shapes every optimal ordering σ comes out ascending —
// the order factors store their columns in.  "free0" forbids eliminating
// vertex 0 before every other vertex is gone (a free variable, listed first).
func TestPlannersBreakTiesTowardAscendingOrder(t *testing.T) {
	free0 := func(rem bitset.Set, v int) bool { return v != 0 || rem.Len() == 1 }
	cases := []struct {
		name    string
		h       *Hypergraph
		allowed func(bitset.Set, int) bool
		width   float64
	}{
		{"triangle", Cycle(3), nil, 1.5},
		{"triangle x-free", Cycle(3), free0, 1.5},
		{"P6", Path(6), nil, 1},
		{"S4", Star(4), nil, 1},
		{"C5", Cycle(5), nil, 2},
		{"C5 v0-free", Cycle(5), free0, 2},
		{"K4", Clique(4), nil, 2},
	}
	for _, c := range cases {
		w := NewWidthCalc(c.h)
		cost := func(v int, u bitset.Set) float64 { return w.RhoStar(u) }
		want := make([]int, c.h.N)
		for i := range want {
			want[i] = i
		}
		dp := &ElimDP{H: c.h, Cost: cost, Allowed: c.allowed}
		val, order, err := dp.Solve()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !approx(val, c.width) || !reflect.DeepEqual(order, want) {
			t.Errorf("%s: ElimDP = %v, σ = %v; want %v, σ = %v", c.name, val, order, c.width, want)
		}
		order, val = GreedyOrder(c.h, cost, cost, bitset.Set{}, c.allowed)
		if !approx(val, c.width) || !reflect.DeepEqual(order, want) {
			t.Errorf("%s: GreedyOrder = %v, σ = %v; want %v, σ = %v", c.name, val, order, c.width, want)
		}
	}
}

// TestElimDPInfiniteCostIsNotAnError: a state whose every allowed
// candidate costs +Inf still has an ordering (of cost +Inf); the "no vertex
// may be eliminated" error is reserved for states with no allowed
// candidate.
func TestElimDPInfiniteCostIsNotAnError(t *testing.T) {
	dp := &ElimDP{H: Path(3), Cost: func(int, bitset.Set) float64 { return math.Inf(1) }}
	val, order, err := dp.Solve()
	if err != nil || !math.IsInf(val, 1) || !reflect.DeepEqual(order, []int{0, 1, 2}) {
		t.Fatalf("Solve = %v, %v, %v; want +Inf, [0 1 2], nil", val, order, err)
	}
	dp = &ElimDP{H: Path(3), Cost: dp.Cost, Allowed: func(bitset.Set, int) bool { return false }}
	if _, _, err := dp.Solve(); err == nil {
		t.Fatal("Solve with no allowed vertex succeeded")
	}
}
