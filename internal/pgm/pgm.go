// Package pgm implements discrete probabilistic graphical models (Example
// A.12) on top of the FAQ engine: marginal and MAP queries (Table 1 rows 5
// and 6) are compiled to sum-product and max-product FAQ instances, planned
// with the fractional-hypertree-width machinery, and solved by InsideOut.
// A brute-force oracle and standard model generators (chains, trees, grids,
// cycles) are included for tests and benchmarks.
package pgm

import (
	"context"
	"fmt"
	"math/rand"

	"github.com/faqdb/faq/internal/core"
	"github.com/faqdb/faq/internal/factor"
	"github.com/faqdb/faq/internal/semiring"
)

// Model is an undirected graphical model (Markov random field): variables
// 0..NumVars-1 with finite domains and non-negative potentials.  The
// unnormalized measure of an assignment is the product of the potentials.
type Model struct {
	NumVars    int
	DomSizes   []int
	Potentials []*factor.Factor[float64]

	// Engine runs every inference call of the model and must be set
	// before the first one.  Inference on a graphical model is the
	// archetypal prepare-once-run-many workload — a marginal sweep or the
	// n·d conditioned MAP evaluations of MAPAssignment reuse a handful of
	// query shapes — so all planning is served from the engine's plan
	// cache and all scans run on its persistent pool.
	Engine *core.Engine[float64]
}

// solve prepares q on the model's engine (hitting the plan cache for
// repeated shapes) and runs InsideOut on the engine's pool.
func (m *Model) solve(q *core.Query[float64]) (*core.Result[float64], error) {
	prep, err := m.Engine.Prepare(q)
	if err != nil {
		return nil, err
	}
	return prep.Run(context.Background())
}

// Validate checks the model's structure.
func (m *Model) Validate() error {
	if len(m.DomSizes) != m.NumVars {
		return fmt.Errorf("pgm: %d domain sizes for %d variables", len(m.DomSizes), m.NumVars)
	}
	covered := make([]bool, m.NumVars)
	for _, p := range m.Potentials {
		for _, v := range p.Vars {
			if v < 0 || v >= m.NumVars {
				return fmt.Errorf("pgm: potential mentions unknown variable %d", v)
			}
			covered[v] = true
		}
	}
	for v, ok := range covered {
		if !ok {
			return fmt.Errorf("pgm: variable %d appears in no potential", v)
		}
	}
	return nil
}

// buildQuery compiles the model into an FAQ query whose expression order
// lists queryVars first (as free variables) followed by the remaining
// variables with the given aggregate.  It returns the query and the mapping
// from model variables to query variables.
func (m *Model) buildQuery(queryVars []int, agg core.Aggregate[float64]) (*core.Query[float64], []int, error) {
	if err := m.Validate(); err != nil {
		return nil, nil, err
	}
	toQuery := make([]int, m.NumVars)
	for i := range toQuery {
		toQuery[i] = -1
	}
	for i, v := range queryVars {
		if v < 0 || v >= m.NumVars {
			return nil, nil, fmt.Errorf("pgm: unknown query variable %d", v)
		}
		if toQuery[v] != -1 {
			return nil, nil, fmt.Errorf("pgm: duplicate query variable %d", v)
		}
		toQuery[v] = i
	}
	next := len(queryVars)
	for v := 0; v < m.NumVars; v++ {
		if toQuery[v] == -1 {
			toQuery[v] = next
			next++
		}
	}
	q := &core.Query[float64]{
		D:        semiring.Float(),
		NVars:    m.NumVars,
		DomSizes: make([]int, m.NumVars),
		NumFree:  len(queryVars),
		Aggs:     make([]core.Aggregate[float64], m.NumVars),
	}
	for v := 0; v < m.NumVars; v++ {
		q.DomSizes[toQuery[v]] = m.DomSizes[v]
		if toQuery[v] < q.NumFree {
			q.Aggs[toQuery[v]] = core.Free[float64]()
		} else {
			q.Aggs[toQuery[v]] = agg
		}
	}
	for _, p := range m.Potentials {
		q.Factors = append(q.Factors, p.Rename(toQuery))
	}
	return q, toQuery, nil
}

// Marginal computes the unnormalized marginal over queryVars:
// μ(x_Q) = Σ_{x rest} Π potentials.  The result's variables are the model
// ids of queryVars.
func (m *Model) Marginal(queryVars []int) (*factor.Factor[float64], error) {
	q, toQuery, err := m.buildQuery(queryVars, core.SemiringAgg(semiring.OpFloatSum()))
	if err != nil {
		return nil, err
	}
	res, err := m.solve(q)
	if err != nil {
		return nil, err
	}
	// Map query variable ids back to model ids.
	back := make([]int, m.NumVars)
	for v, qv := range toQuery {
		back[qv] = v
	}
	return res.Output.Rename(back), nil
}

// Partition returns the partition function Z = Σ_x Π potentials.
func (m *Model) Partition() (float64, error) {
	q, _, err := m.buildQuery(nil, core.SemiringAgg(semiring.OpFloatSum()))
	if err != nil {
		return 0, err
	}
	res, err := m.solve(q)
	if err != nil {
		return 0, err
	}
	return res.Scalar(), nil
}

// MAPValue returns max_x Π potentials, the value of the MAP assignment.
func (m *Model) MAPValue() (float64, error) {
	q, _, err := m.buildQuery(nil, core.SemiringAgg(semiring.OpFloatMax()))
	if err != nil {
		return 0, err
	}
	res, err := m.solve(q)
	if err != nil {
		return 0, err
	}
	return res.Scalar(), nil
}

// MAPAssignment decodes an argmax assignment by iterative conditioning:
// fix each variable in turn to a value preserving the MAP value of the
// conditioned model.  n·d MAP evaluations; exact.
func (m *Model) MAPAssignment() ([]int, float64, error) {
	target, err := m.MAPValue()
	if err != nil {
		return nil, 0, err
	}
	cond := &Model{NumVars: m.NumVars, DomSizes: m.DomSizes, Potentials: m.Potentials, Engine: m.Engine}
	assignment := make([]int, m.NumVars)
	for v := 0; v < m.NumVars; v++ {
		found := false
		for x := 0; x < m.DomSizes[v] && !found; x++ {
			trial := conditionModel(cond, v, x)
			val, err := trial.MAPValue()
			if err != nil {
				return nil, 0, err
			}
			if val >= target*(1-1e-9) {
				assignment[v] = x
				cond = trial
				found = true
			}
		}
		if !found {
			return nil, 0, fmt.Errorf("pgm: MAP decoding failed at variable %d", v)
		}
	}
	return assignment, target, nil
}

// conditionModel pins variable v to value x by restricting every potential.
// Conditioning preserves every factor's variable set, so the conditioned
// model has the same query shape and its plans come from the cache.
func conditionModel(m *Model, v, x int) *Model {
	out := &Model{NumVars: m.NumVars, DomSizes: m.DomSizes, Engine: m.Engine}
	for _, p := range m.Potentials {
		if p.VarPos(v) >= 0 {
			out.Potentials = append(out.Potentials, p.Condition(map[int]int{v: x}))
		} else {
			out.Potentials = append(out.Potentials, p)
		}
	}
	return out
}

// MarginalBrute computes the marginal by enumeration (testing oracle).
func (m *Model) MarginalBrute(queryVars []int) (*factor.Factor[float64], error) {
	q, toQuery, err := m.buildQuery(queryVars, core.SemiringAgg(semiring.OpFloatSum()))
	if err != nil {
		return nil, err
	}
	out, err := core.BruteForce(q)
	if err != nil {
		return nil, err
	}
	back := make([]int, m.NumVars)
	for v, qv := range toQuery {
		back[qv] = v
	}
	return out.Rename(back), nil
}

// MAPBrute computes the MAP value by enumeration (testing oracle).
func (m *Model) MAPBrute() (float64, error) {
	q, _, err := m.buildQuery(nil, core.SemiringAgg(semiring.OpFloatMax()))
	if err != nil {
		return 0, err
	}
	return core.BruteForceScalar(q)
}

// ---------------------------------------------------------------------------
// Generators.
// ---------------------------------------------------------------------------

// randomPotential builds a dense strictly-positive potential over vars.
func randomPotential(rng *rand.Rand, vars []int, domSizes []int) *factor.Factor[float64] {
	return factor.FromFunc(semiring.Float(), vars, domSizes, func([]int) float64 {
		return 0.1 + rng.Float64()
	})
}

// Chain builds a chain model x0 — x1 — ... — x_{n-1}.
func Chain(rng *rand.Rand, n, dom int) *Model {
	m := &Model{NumVars: n, DomSizes: uniformDoms(n, dom)}
	if n == 1 {
		m.Potentials = append(m.Potentials, randomPotential(rng, []int{0}, m.DomSizes))
		return m
	}
	for i := 0; i+1 < n; i++ {
		m.Potentials = append(m.Potentials, randomPotential(rng, []int{i, i + 1}, m.DomSizes))
	}
	return m
}

// Grid builds a rows×cols grid model with pairwise potentials.
func Grid(rng *rand.Rand, rows, cols, dom int) *Model {
	n := rows * cols
	m := &Model{NumVars: n, DomSizes: uniformDoms(n, dom)}
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				m.Potentials = append(m.Potentials, randomPotential(rng, []int{id(r, c), id(r, c+1)}, m.DomSizes))
			}
			if r+1 < rows {
				m.Potentials = append(m.Potentials, randomPotential(rng, []int{id(r, c), id(r+1, c)}, m.DomSizes))
			}
		}
	}
	if n == 1 {
		m.Potentials = append(m.Potentials, randomPotential(rng, []int{0}, m.DomSizes))
	}
	return m
}

// Cycle builds a cycle model; for n = 3 this is the triangle whose
// fractional cover (1.5) beats the integral cover (2) — the fhtw vs htw gap
// of Table 1's Marginal/MAP rows.
func Cycle(rng *rand.Rand, n, dom int) *Model {
	m := &Model{NumVars: n, DomSizes: uniformDoms(n, dom)}
	for i := 0; i < n; i++ {
		m.Potentials = append(m.Potentials, randomPotential(rng, sortedPair(i, (i+1)%n), m.DomSizes))
	}
	return m
}

// RandomTree builds a random tree-structured model.
func RandomTree(rng *rand.Rand, n, dom int) *Model {
	m := &Model{NumVars: n, DomSizes: uniformDoms(n, dom)}
	if n == 1 {
		m.Potentials = append(m.Potentials, randomPotential(rng, []int{0}, m.DomSizes))
		return m
	}
	for i := 1; i < n; i++ {
		parent := rng.Intn(i)
		m.Potentials = append(m.Potentials, randomPotential(rng, sortedPair(parent, i), m.DomSizes))
	}
	return m
}

func uniformDoms(n, dom int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = dom
	}
	return out
}

func sortedPair(a, b int) []int {
	if a < b {
		return []int{a, b}
	}
	return []int{b, a}
}
