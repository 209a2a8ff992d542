package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"github.com/faqdb/faq/internal/bitset"
	"github.com/faqdb/faq/internal/hypergraph"
)

// Plan is a chosen φ-equivalent variable ordering with its realized width.
type Plan struct {
	Order  []int
	Width  float64
	Method string
}

// PlanExpression returns the trivial plan: the ordering as written in the
// query expression.
func PlanExpression(s *Shape, wc *hypergraph.WidthCalc) (*Plan, error) {
	order := s.ExpressionOrder()
	w, _, err := FAQWidth(s, wc, order)
	if err != nil {
		return nil, err
	}
	return &Plan{Order: order, Width: w, Method: "expression"}, nil
}

// PlanExact computes faqw(φ) = min over LinEx(P) of faqw(σ) exactly
// (Corollaries 6.14/6.28: linear extensions of the precedence poset suffice)
// via dynamic programming over vertex subsets.  Exponential in n.
func PlanExact(s *Shape, wc *hypergraph.WidthCalc) (*Plan, error) {
	return PlanExactCtx(context.Background(), s, wc)
}

// PlanExactCtx is PlanExact under a context: the subset DP polls ctx, so a
// cancelled Prepare abandons an adversarially wide planning problem.
func PlanExactCtx(ctx context.Context, s *Shape, wc *hypergraph.WidthCalc) (*Plan, error) {
	poset, err := posetOf(s)
	if err != nil {
		return nil, err
	}
	dp := &hypergraph.ElimDP{
		H: s.H,
		Cost: func(v int, u bitset.Set) float64 {
			if s.Product.Contains(v) {
				return 0
			}
			return wc.RhoStar(u)
		},
		Product: s.Product,
		Allowed: func(remaining bitset.Set, v int) bool {
			return poset.MaximalIn(remaining, v)
		},
		Ctx: ctx,
	}
	w, order, err := dp.Solve()
	if err != nil {
		return nil, err
	}
	if err := s.checkOrder(order); err != nil {
		return nil, fmt.Errorf("core: exact planner produced an invalid order: %w", err)
	}
	return &Plan{Order: order, Width: w, Method: "exact-dp"}, nil
}

// PlanGreedy picks, at each elimination step, the poset-maximal variable
// with the smallest ρ*(U); polynomial and safe for large queries.
func PlanGreedy(s *Shape, wc *hypergraph.WidthCalc) (*Plan, error) {
	poset, err := posetOf(s)
	if err != nil {
		return nil, err
	}
	cost := func(v int, u bitset.Set) float64 {
		if s.Product.Contains(v) {
			return 0
		}
		return wc.RhoStar(u)
	}
	order, width := hypergraph.GreedyOrder(s.H, cost, cost, s.Product,
		func(remaining bitset.Set, v int) bool { return poset.MaximalIn(remaining, v) })
	if err := s.checkOrder(order); err != nil {
		return nil, fmt.Errorf("core: greedy planner produced an invalid order: %w", err)
	}
	return &Plan{Order: order, Width: width, Method: "greedy"}, nil
}

// DecompBlackbox produces a vertex ordering realizing a (hopefully small)
// fractional hypertree width for the given hypergraph — the black box of
// Theorems 7.2/7.5.  ExactDecomp uses the exponential DP (g = identity);
// GreedyDecomp uses min-fill (g unbounded but fast).
type DecompBlackbox func(h *hypergraph.Hypergraph) []int

// ExactDecomp is the exact fhtw ordering oracle.
func ExactDecomp(h *hypergraph.Hypergraph) []int {
	wc := hypergraph.NewWidthCalc(h)
	_, order := wc.FHTW()
	return order
}

// GreedyDecomp is the min-fill heuristic ordering oracle.
func GreedyDecomp(h *hypergraph.Hypergraph) []int {
	wc := hypergraph.NewWidthCalc(h)
	cost := func(v int, u bitset.Set) float64 { return wc.RhoStar(u) }
	order, _ := hypergraph.GreedyOrder(h, hypergraph.MinFillScore(h), cost, bitset.Set{}, nil)
	return order
}

// PlanApprox implements the approximation algorithm of Section 7 (Theorems
// 7.2 and 7.5): for every free/semiring node L of the expression tree it
// builds the local hypergraph H_L, obtains an ordering from the black box,
// and concatenates the per-node orderings respecting the precedence poset.
// With a g-approximate black box the result satisfies
// faqw(σ) ≤ faqw(φ) + g(faqw(φ)).
func PlanApprox(s *Shape, wc *hypergraph.WidthCalc, blackbox DecompBlackbox) (*Plan, error) {
	tree := BuildExprTree(s)
	poset, err := NewPoset(tree, s.N)
	if err != nil {
		return nil, err
	}

	var sigma []int
	emitted := bitset.New()
	emit := func(v int) {
		if !emitted.Contains(v) {
			emitted.Add(v)
			sigma = append(sigma, v)
		}
	}
	for _, node := range tree.Nodes() { // preorder: parents first
		if len(node.Vars) == 0 {
			continue
		}
		if node.Tag == tagProduct {
			// Product variables do not contribute to faqw; keep their
			// expression order (Theorem 6.27 keeps product copies in their
			// original relative order).
			for _, v := range node.Vars {
				emit(v)
			}
			continue
		}
		hl := nodeHypergraph(s, tree, node)
		sub, back := relabel(hl, node.Vars)
		local := blackbox(sub)
		for _, lv := range local {
			emit(back[lv])
		}
	}
	// Safety: every variable must be emitted (copies were deduplicated).
	for v := 0; v < s.N; v++ {
		emit(v)
	}
	sigma = stableLinearize(sigma, poset)
	w, _, err := FAQWidth(s, wc, sigma)
	if err != nil {
		return nil, err
	}
	return &Plan{Order: sigma, Width: w, Method: "approx-tree"}, nil
}

// posetOf builds the precedence poset of the query's expression tree.
func posetOf(s *Shape) (*Poset, error) {
	return NewPoset(BuildExprTree(s), s.N)
}

// nodeHypergraph constructs H_L for a free/semiring node L per Sections
// 7.1/7.2: projections S∩L of edges that avoid every semiring descendant,
// plus one edge S_{L,C} per child C summarizing the contribution of the
// C-branch (the union of all E̅(C) edges restricted to L), where E̅(C)
// contains the edges meeting a semiring (or free) node in the subtree of C.
func nodeHypergraph(s *Shape, root *ExprNode, target *ExprNode) *hypergraph.Hypergraph {
	lset := bitset.FromSlice(target.Vars)
	h := hypergraph.New(s.N)

	// Vars of semiring/free nodes in the subtree of each child.
	semiringBelow := func(n *ExprNode) bitset.Set {
		acc := bitset.New()
		for _, d := range n.Nodes() {
			if d.Tag != tagProduct {
				acc.UnionWith(bitset.FromSlice(d.Vars))
			}
		}
		return acc
	}
	var childSets []bitset.Set
	allBelow := bitset.New()
	for _, c := range target.Children {
		cs := semiringBelow(c)
		childSets = append(childSets, cs)
		allBelow.UnionWith(cs)
	}

	for _, e := range s.H.Edges {
		if e.Intersects(lset) && !e.Intersects(allBelow) {
			proj := e.Intersect(lset)
			h.AddEdgeSet(proj)
		}
	}
	for _, cs := range childSets {
		slc := bitset.New()
		for _, e := range s.H.Edges {
			if e.Intersects(cs) {
				slc.UnionWith(e.Intersect(lset))
			}
		}
		if !slc.IsEmpty() {
			h.AddEdgeSet(slc)
		}
	}
	// Vertices of L untouched by any edge get singleton edges so the local
	// ordering problem stays well-defined.
	covered := bitset.New()
	for _, e := range h.Edges {
		covered.UnionWith(e)
	}
	lset.ForEach(func(v int) {
		if !covered.Contains(v) {
			h.AddEdge(v)
		}
	})
	return h
}

// relabel extracts the sub-hypergraph on verts with dense local ids,
// returning it plus the local→global mapping.
func relabel(h *hypergraph.Hypergraph, verts []int) (*hypergraph.Hypergraph, []int) {
	local := map[int]int{}
	back := make([]int, len(verts))
	for i, v := range verts {
		local[v] = i
		back[i] = v
	}
	sub := hypergraph.New(len(verts))
	vset := bitset.FromSlice(verts)
	for _, e := range h.Edges {
		in := e.Intersect(vset)
		if in.IsEmpty() {
			continue
		}
		var le []int
		in.ForEach(func(v int) { le = append(le, local[v]) })
		sub.AddEdge(le...)
	}
	return sub, back
}

// stableLinearize turns a variable sequence into a linear extension of the
// poset while preserving the input's relative order wherever legal: it
// repeatedly emits the earliest not-yet-emitted variable whose predecessors
// are all emitted.
func stableLinearize(seq []int, poset *Poset) []int {
	n := len(seq)
	emitted := make([]bool, poset.N)
	out := make([]int, 0, n)
	ready := func(v int) bool {
		for u := 0; u < poset.N; u++ {
			if poset.Less(u, v) && !emitted[u] {
				return false
			}
		}
		return true
	}
	done := make([]bool, poset.N)
	for len(out) < n {
		progress := false
		for _, v := range seq {
			if done[v] || !ready(v) {
				continue
			}
			done[v] = true
			emitted[v] = true
			out = append(out, v)
			progress = true
		}
		if !progress {
			// Cannot happen for a valid poset; avoid an infinite loop.
			for _, v := range seq {
				if !done[v] {
					done[v] = true
					emitted[v] = true
					out = append(out, v)
				}
			}
		}
	}
	return out
}

// ChoosePlan picks the best available planning strategy for the query size:
// exact DP for up to 18 variables, else the Section 7 approximation with the
// greedy black box, keeping whichever beats the expression order.
func ChoosePlan(s *Shape, wc *hypergraph.WidthCalc) *Plan {
	p, _ := ChoosePlanCtx(context.Background(), s, wc)
	return p
}

// ChoosePlanCtx is ChoosePlan under a context.  The only error it can
// return is the context's: planner failures fall back to cheaper
// strategies, ending at the always-valid expression order.
func ChoosePlanCtx(ctx context.Context, s *Shape, wc *hypergraph.WidthCalc) (*Plan, error) {
	best, err := PlanExpression(s, wc)
	if err != nil {
		// checkOrder cannot fail for the identity order of a valid query.
		best = &Plan{Order: s.ExpressionOrder(), Width: 0, Method: "expression"}
	}
	if s.N <= 18 {
		p, err := PlanExactCtx(ctx, s, wc)
		if err == nil && p.Width <= best.Width {
			return p, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return best, nil
	}
	// PlanApprox and PlanGreedy are polynomial but not internally
	// context-aware; honor cancellation between them so large-N Prepare
	// keeps the PrepareCtx guarantee.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p, err := PlanApprox(s, wc, GreedyDecomp); err == nil && p.Width < best.Width {
		best = p
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p, err := PlanGreedy(s, wc); err == nil && p.Width < best.Width {
		best = p
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return best, nil
}

// OrderString renders an ordering with variable names.
func OrderString(order []int, name func(int) string) string {
	parts := make([]string, len(order))
	for i, v := range order {
		parts[i] = name(v)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// SortedCopy returns a sorted copy of xs (small helper for tools).
func SortedCopy(xs []int) []int {
	c := append([]int(nil), xs...)
	sort.Ints(c)
	return c
}
