package hypergraph

import (
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/faqdb/faq/internal/bitset"
)

// ErrTooLarge is returned by ElimDP.Solve when the state space exceeds the
// configured limit; callers should fall back to GreedyOrder.
var ErrTooLarge = errors.New("hypergraph: state space too large for exact elimination DP")

// ElimDP solves minimax vertex-elimination problems exactly:
//
//	minimize over orderings σ the value  max_k Cost(σ_k, U_k^σ)
//
// where U_k is taken from the elimination hypergraph sequence (Definition
// 5.4), vertices in Product are eliminated by stripping (no union edge), and
// Allowed restricts which vertex may be eliminated first among a remaining
// set (used to respect the precedence poset of Section 6 and the
// free-variables-last-to-eliminate rule).
//
// With Product empty, Allowed nil and Cost = |U|-1 this computes treewidth;
// with Cost = ρ* it computes fhtw (Corollary 4.13); with the poset
// restriction it computes faqw(φ) over LinEx(P) (Corollary 6.14).
//
// Ties go to the highest vertex id: among candidates of equal cost the
// last one visited (candidates are visited in ascending id) is eliminated
// first.  σ lists vertices in reverse elimination order, so this keeps σ as
// close to ascending id as the optimal cost allows, and ascending id is the
// order every factor stores its columns in: the join builds each trie in
// one pass over the stored rows instead of permuting and re-sorting them.
// The rule only chooses among orderings of equal cost, so the optimum is
// unchanged.
//
// The DP memoizes on the set of remaining vertices.  This is sound because
// the edge multiset reached after eliminating a set of vertices does not
// depend on the order of elimination (product vertices only shrink edges;
// semiring vertices merge the edges of a connected region, and both
// operations commute at the edge-set level).
type ElimDP struct {
	H       *Hypergraph
	Cost    func(v int, u bitset.Set) float64
	Product bitset.Set
	Allowed func(remaining bitset.Set, v int) bool
	// MaxStates caps the memo size; 0 means a default of 1<<22.
	MaxStates int
	// Ctx, when non-nil, is polled during the subset recursion so an
	// engine can abandon an adversarially wide planning problem; a
	// cancelled Solve returns Ctx.Err().
	Ctx context.Context
}

type dpEntry struct {
	cost float64
	next int // vertex eliminated first from this state
}

// Solve returns the optimal minimax cost and an optimal vertex ordering
// σ = (v_1, ..., v_n) (listing order; v_n is eliminated first).
func (dp *ElimDP) Solve() (float64, []int, error) {
	limit := dp.MaxStates
	if limit == 0 {
		limit = 1 << 22
	}
	memo := map[string]dpEntry{}
	edges := make([]bitset.Set, len(dp.H.Edges))
	for i, e := range dp.H.Edges {
		edges[i] = e.Clone()
	}
	full := dp.H.Vertices()
	cost, err := dp.solve(full, edges, memo, limit)
	if err != nil {
		return 0, nil, err
	}
	// Reconstruct σ by replaying the DP decisions.
	order := make([]int, dp.H.N)
	r := full.Clone()
	for pos := dp.H.N - 1; pos >= 0; pos-- {
		ent := memo[r.Key()]
		order[pos] = ent.next
		r.Remove(ent.next)
	}
	return cost, order, nil
}

func (dp *ElimDP) solve(remaining bitset.Set, edges []bitset.Set, memo map[string]dpEntry, limit int) (float64, error) {
	if remaining.IsEmpty() {
		return 0, nil
	}
	key := remaining.Key()
	if ent, ok := memo[key]; ok {
		return ent.cost, nil
	}
	if len(memo) >= limit {
		return 0, ErrTooLarge
	}
	if dp.Ctx != nil {
		if err := dp.Ctx.Err(); err != nil {
			return 0, err
		}
	}
	best := math.Inf(1)
	bestV := -1
	candidates := remaining.Elems()
	for _, v := range candidates {
		if dp.Allowed != nil && !dp.Allowed(remaining, v) {
			continue
		}
		u, child := eliminate(edges, v, dp.Product.Contains(v))
		c := dp.Cost(v, u)
		rest := remaining.Clone()
		rest.Remove(v)
		sub, err := dp.solve(rest, child, memo, limit)
		if err != nil {
			return 0, err
		}
		if sub > c {
			c = sub
		}
		if c <= best { // <=: ties go to the highest id (see ElimDP)
			best = c
			bestV = v
		}
	}
	if bestV < 0 {
		return 0, fmt.Errorf("hypergraph: no vertex of %s may be eliminated (inconsistent Allowed predicate)", remaining)
	}
	memo[key] = dpEntry{cost: best, next: bestV}
	return best, nil
}

// eliminate applies one elimination step to a copy of edges and returns
// (U_v, new edge list).  The input slice is not modified.
func eliminate(edges []bitset.Set, v int, product bool) (bitset.Set, []bitset.Set) {
	var u bitset.Set
	out := make([]bitset.Set, 0, len(edges)+1)
	for _, e := range edges {
		if !e.Contains(v) {
			out = append(out, e)
			continue
		}
		u.UnionWith(e)
		if product {
			s := e.Clone()
			s.Remove(v)
			out = append(out, s)
		}
	}
	if !product {
		res := u.Clone()
		res.Remove(v)
		out = append(out, res)
	}
	return u, out
}

// GreedyOrder builds a vertex ordering heuristically: at each step it
// eliminates the allowed vertex with the smallest score(v, U_v) under the
// current hypergraph, the highest id among equal scores (as in ElimDP, so
// the ordering stays close to the factors' ascending stored column order).
// It returns the ordering (listing order) and the realized minimax cost
// under Cost.  Score and Cost may differ (e.g. min-fill score with ρ* cost).
func GreedyOrder(h *Hypergraph, score, cost func(v int, u bitset.Set) float64,
	product bitset.Set, allowed func(remaining bitset.Set, v int) bool) ([]int, float64) {

	edges := make([]bitset.Set, len(h.Edges))
	for i, e := range h.Edges {
		edges[i] = e.Clone()
	}
	remaining := h.Vertices()
	order := make([]int, h.N)
	worst := 0.0
	for pos := h.N - 1; pos >= 0; pos-- {
		bestV := -1
		bestScore := math.Inf(1)
		var bestU bitset.Set
		var bestEdges []bitset.Set
		remaining.ForEach(func(v int) {
			if allowed != nil && !allowed(remaining, v) {
				return
			}
			u, child := eliminate(edges, v, product.Contains(v))
			if s := score(v, u); s <= bestScore { // <=: ties go to the highest id
				bestScore = s
				bestV = v
				bestU = u
				bestEdges = child
			}
		})
		if bestV < 0 {
			// Inconsistent predicate; fall back to the minimum remaining vertex.
			bestV = remaining.Min()
			bestU, bestEdges = eliminate(edges, bestV, product.Contains(bestV))
		}
		if c := cost(bestV, bestU); c > worst {
			worst = c
		}
		order[pos] = bestV
		remaining.Remove(bestV)
		edges = bestEdges
	}
	return order, worst
}

// MinFillScore returns a score function for GreedyOrder implementing the
// classic min-fill heuristic: the number of Gaifman edges that eliminating v
// would add among its current neighbors.
func MinFillScore(h *Hypergraph) func(v int, u bitset.Set) float64 {
	adj := h.GaifmanAdj()
	return func(v int, u bitset.Set) float64 {
		nb := u.Clone()
		nb.Remove(v)
		elems := nb.Elems()
		fill := 0
		for i := 0; i < len(elems); i++ {
			for j := i + 1; j < len(elems); j++ {
				if !adj[elems[i]].Contains(elems[j]) {
					fill++
				}
			}
		}
		return float64(fill)
	}
}
