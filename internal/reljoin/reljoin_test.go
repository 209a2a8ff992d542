package reljoin

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/faqdb/faq/internal/core"
)

// sameRows compares tuple sets treating nil and empty as equal.
func sameRows(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestTriangleJoinMatchesBruteForce(t *testing.T) {
	eng := core.NewEngine[bool](core.EngineOptions{})
	defer eng.Close()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		dom := 2 + rng.Intn(4)
		edges := RandomEdges(rng, 1+rng.Intn(dom*dom), dom)
		in := Triangle(dom, edges)
		got, err := in.RunInsideOut(eng)
		if err != nil {
			t.Fatal(err)
		}
		want := in.BruteForceJoin()
		if !sameRows(got, want) {
			t.Fatalf("trial %d: InsideOut %v, brute force %v", trial, got, want)
		}
		hj, _, err := in.RunHashJoin(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(hj, want) {
			t.Fatalf("trial %d: hash join %v, brute force %v", trial, hj, want)
		}
	}
}

func TestSkewInstanceIntermediateBlowup(t *testing.T) {
	eng := core.NewEngine[bool](core.EngineOptions{})
	defer eng.Close()
	// On the star instance the binary plan materializes Θ(k²) intermediate
	// tuples while the output (and the worst-case-optimal runtime) is Θ(k).
	edges, dom := SkewTriangleEdges(64)
	in := Triangle(dom, edges)
	out, peak, err := in.RunHashJoin(nil)
	if err != nil {
		t.Fatal(err)
	}
	k := 32
	if peak < k*k/2 {
		t.Fatalf("binary plan peak %d; expected Θ(k²) ≈ %d", peak, k*k)
	}
	if len(out) > 4*k {
		t.Fatalf("output has %d tuples; expected Θ(k)", len(out))
	}
	wco, err := in.RunInsideOut(eng)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(wco, out) {
		t.Fatal("InsideOut and hash join disagree on the skew instance")
	}
}

func TestAcyclicPathJoin(t *testing.T) {
	eng := core.NewEngine[bool](core.EngineOptions{})
	defer eng.Close()
	// R(x0,x1) ⋈ S(x1,x2): α-acyclic, both engines agree.
	in := &Instance{
		NumVars:  3,
		DomSizes: []int{3, 3, 3},
		Rels: []Rel{
			{Name: "R", Vars: []int{0, 1}, Rows: [][]int{{0, 1}, {1, 1}, {2, 0}}},
			{Name: "S", Vars: []int{1, 2}, Rows: [][]int{{1, 2}, {0, 0}}},
		},
	}
	got, err := in.RunInsideOut(eng)
	if err != nil {
		t.Fatal(err)
	}
	want := in.BruteForceJoin()
	if !sameRows(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestRelFactorUnsortedVars(t *testing.T) {
	eng := core.NewEngine[bool](core.EngineOptions{})
	defer eng.Close()
	// Relation with descending variable ids must reorder columns.
	in := &Instance{
		NumVars:  2,
		DomSizes: []int{2, 3},
		Rels: []Rel{
			{Name: "R", Vars: []int{1, 0}, Rows: [][]int{{2, 1}}}, // x1=2, x0=1
			{Name: "U", Vars: []int{0}, Rows: [][]int{{0}, {1}}},
		},
	}
	got, err := in.RunInsideOut(eng)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0], []int{1, 2}) {
		t.Fatalf("got %v, want [[1 2]]", got)
	}
}

func TestHashJoinRowArityValidation(t *testing.T) {
	in := &Instance{
		NumVars:  2,
		DomSizes: []int{2, 2},
		Rels:     []Rel{{Name: "R", Vars: []int{0, 1}, Rows: [][]int{{0}}}},
	}
	if _, err := in.ToQuery(); err == nil {
		t.Fatal("short row should fail compilation")
	}
}

func TestDuplicateRowsDeduped(t *testing.T) {
	eng := core.NewEngine[bool](core.EngineOptions{})
	defer eng.Close()
	in := &Instance{
		NumVars:  2,
		DomSizes: []int{2, 2},
		Rels: []Rel{
			{Name: "R", Vars: []int{0, 1}, Rows: [][]int{{0, 1}, {0, 1}, {1, 1}}},
			{Name: "S", Vars: []int{1}, Rows: [][]int{{1}, {1}}},
		},
	}
	got, err := in.RunInsideOut(eng)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("join size = %d, want 2", len(got))
	}
	hj, _, err := in.RunHashJoin(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(hj, got) {
		t.Fatal("hash join and InsideOut disagree with duplicates")
	}
}
