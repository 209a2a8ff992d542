package pgm

import (
	"math"
	"math/rand"
	"testing"

	"github.com/faqdb/faq/internal/core"
)

func approxEq(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= 1e-9*scale
}

// withEngine binds m to an engine of its own, closed when the test ends.
func withEngine(t testing.TB, m *Model) *Model {
	e := core.NewEngine[float64](core.EngineOptions{})
	t.Cleanup(e.Close)
	m.Engine = e
	return m
}

func TestValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := Chain(rng, 4, 2)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Model{NumVars: 2, DomSizes: []int{2, 2}}
	if err := bad.Validate(); err == nil {
		t.Fatal("uncovered variables should fail validation")
	}
}

func TestMarginalMatchesBruteForceOnModels(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	models := map[string]*Model{
		"chain":  withEngine(t, Chain(rng, 5, 3)),
		"grid":   withEngine(t, Grid(rng, 2, 3, 2)),
		"cycle":  withEngine(t, Cycle(rng, 5, 2)),
		"tree":   withEngine(t, RandomTree(rng, 6, 2)),
		"single": withEngine(t, Chain(rng, 1, 4)),
	}
	for name, m := range models {
		for _, queryVars := range [][]int{nil, {0}, {0, m.NumVars - 1}} {
			if len(queryVars) > m.NumVars {
				continue
			}
			got, err := m.Marginal(queryVars)
			if err != nil {
				t.Fatalf("%s %v: %v", name, queryVars, err)
			}
			want, err := m.MarginalBrute(queryVars)
			if err != nil {
				t.Fatal(err)
			}
			if got.Size() != want.Size() {
				t.Fatalf("%s %v: %d rows vs %d", name, queryVars, got.Size(), want.Size())
			}
			for i, tup := range want.Tuples() {
				gv, ok := got.Value(tup)
				if !ok || !approxEq(gv, want.Values[i]) {
					t.Fatalf("%s %v: marginal(%v) = %v, want %v", name, queryVars, tup, gv, want.Values[i])
				}
			}
		}
	}
}

func TestPartitionAndMAP(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		m := withEngine(t, Cycle(rng, 4+trial%3, 2))
		z, err := m.Partition()
		if err != nil {
			t.Fatal(err)
		}
		zb, err := m.MarginalBrute(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !approxEq(z, zb.Values[0]) {
			t.Fatalf("trial %d: Z = %v, brute %v", trial, z, zb.Values[0])
		}
		mapv, err := m.MAPValue()
		if err != nil {
			t.Fatal(err)
		}
		mapb, err := m.MAPBrute()
		if err != nil {
			t.Fatal(err)
		}
		if !approxEq(mapv, mapb) {
			t.Fatalf("trial %d: MAP = %v, brute %v", trial, mapv, mapb)
		}
		if mapv > z+1e-9 {
			t.Fatalf("trial %d: MAP value exceeds partition function", trial)
		}
	}
}

func TestMAPAssignmentRealizesValue(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 8; trial++ {
		m := withEngine(t, Grid(rng, 2, 3, 2))
		assignment, val, err := m.MAPAssignment()
		if err != nil {
			t.Fatal(err)
		}
		// Evaluate the product of potentials at the decoded assignment.
		prod := 1.0
		for _, p := range m.Potentials {
			tuple := make([]int, len(p.Vars))
			for i, v := range p.Vars {
				tuple[i] = assignment[v]
			}
			pv, ok := p.Value(tuple)
			if !ok {
				t.Fatalf("trial %d: MAP assignment hits a zero potential", trial)
			}
			prod *= pv
		}
		if !approxEq(prod, val) {
			t.Fatalf("trial %d: decoded assignment has value %v, MAP value %v", trial, prod, val)
		}
	}
}

func TestMarginalQueryVarValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := withEngine(t, Chain(rng, 3, 2))
	if _, err := m.Marginal([]int{7}); err == nil {
		t.Fatal("unknown query variable should fail")
	}
	if _, err := m.Marginal([]int{1, 1}); err == nil {
		t.Fatal("duplicate query variable should fail")
	}
}

func TestMarginalConsistency(t *testing.T) {
	// Σ over a marginal equals the partition function.
	rng := rand.New(rand.NewSource(19))
	m := withEngine(t, Grid(rng, 2, 2, 3))
	z, err := m.Partition()
	if err != nil {
		t.Fatal(err)
	}
	mu, err := m.Marginal([]int{2})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range mu.Values {
		sum += v
	}
	if !approxEq(sum, z) {
		t.Fatalf("Σ marginal = %v, Z = %v", sum, z)
	}
}

func BenchmarkMarginalGrid3x4(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := withEngine(b, Grid(rng, 3, 4, 3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Marginal([]int{0}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestModelUseEngineAmortizesPlans(t *testing.T) {
	eng := core.NewEngine[float64](core.EngineOptions{Workers: 2})
	defer eng.Close()
	rng := rand.New(rand.NewSource(31))
	m := Cycle(rng, 5, 3)
	m.Engine = eng

	// MAPAssignment issues 1 + up to n·d MAP evaluations on conditioned
	// models; conditioning preserves every factor's variable set, so all of
	// them share one query shape and the engine plans exactly once.
	assignment, val, err := m.MAPAssignment()
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.MAPBrute()
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(val, want) {
		t.Fatalf("engine-backed MAP = %v, brute force = %v", val, want)
	}
	if len(assignment) != m.NumVars {
		t.Fatalf("assignment has %d entries, want %d", len(assignment), m.NumVars)
	}
	st := eng.Stats()
	if st.PlanCacheMisses != 1 {
		t.Fatalf("conditioned MAP sweep planned %d times, want 1: %+v", st.PlanCacheMisses, st)
	}
	if st.PlanCacheHits < int64(m.NumVars) {
		t.Fatalf("conditioned MAP sweep hit the cache only %d times: %+v", st.PlanCacheHits, st)
	}
	// A marginal adds a second shape (one free variable), no more.
	if _, err := m.Marginal([]int{0}); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.PlanCacheMisses != 2 {
		t.Fatalf("marginal should add exactly one plan: %+v", st)
	}
}
