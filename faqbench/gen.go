package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"github.com/faqdb/faq/internal/wire"
)

// relation is a binary edge relation over vertices [0, n): unique (a, b)
// pairs with small positive integer weights.  Weights are integers so that
// every float64 sum the oracles and the daemon form stays exact, and the
// two can be compared bit for bit whatever order the additions run in.
type relation struct {
	n    int
	a, b []int32
	w    []float64
}

func (r *relation) len() int { return len(r.a) }

// randomRelation draws m unique pairs over n vertices.  With skew > 1 both
// endpoints follow a Zipf law over a seeded vertex permutation, so a few
// heavy-hitter vertices carry a large share of the edges — the degree skew
// under which a worst-case-optimal join beats pairwise plans.  skew 0 draws
// endpoints uniformly.  Self loops are never drawn, so a workload may add
// them as deltas and delete them again.
func randomRelation(rng *rand.Rand, n, m int, skew float64, maxW int) *relation {
	perm := rng.Perm(n)
	var zipf *rand.Zipf
	if skew > 1 {
		zipf = rand.NewZipf(rng, skew, 1, uint64(n-1))
	}
	pick := func() int {
		if zipf == nil {
			return rng.Intn(n)
		}
		return perm[zipf.Uint64()]
	}
	seen := make(map[[2]int32]bool, m)
	r := &relation{n: n}
	for len(r.a) < m {
		x, y := int32(pick()), int32(pick())
		if x == y || seen[[2]int32{x, y}] {
			continue
		}
		seen[[2]int32{x, y}] = true
		r.a = append(r.a, x)
		r.b = append(r.b, y)
		r.w = append(r.w, float64(1+rng.Intn(maxW)))
	}
	return r
}

// frame renders the relation as a wire frame whose rows follow the order
// in which they were drawn, so the daemon has to sort them.
func (r *relation) frame(dom wire.Domain) *wire.Frame {
	f := &wire.Frame{Domain: dom, Arity: 2, Rows: make([]int32, 0, 2*r.len())}
	for i := range r.a {
		f.Rows = append(f.Rows, r.a[i], r.b[i])
	}
	f.Floats = append([]float64(nil), r.w...)
	return f
}

// specBlock writes one inline factor block.
func (r *relation) specBlock(b *strings.Builder, u, v string) {
	fmt.Fprintf(b, "factor %s %s\n", u, v)
	for i := range r.a {
		fmt.Fprintf(b, "%d %d = %g\n", r.a[i], r.b[i], r.w[i])
	}
	b.WriteString("end\n")
}

// halfWeights is the relation with every weight raised by 0.5: the
// tropical workloads' edge costs (sums of halves stay exact).
func (r *relation) halfWeights() *relation {
	h := &relation{n: r.n, a: r.a, b: r.b, w: make([]float64, r.len())}
	for i, w := range r.w {
		h.w[i] = w + 0.5
	}
	return h
}

// adjacency indexes a relation by its first column: for each vertex, its
// neighbours in ascending order with the matching weights.
type adjacency struct {
	nbr [][]int32
	w   [][]float64
}

func (r *relation) adjacency() *adjacency {
	adj := &adjacency{nbr: make([][]int32, r.n), w: make([][]float64, r.n)}
	idx := make([]int, r.len())
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool {
		if r.a[idx[i]] != r.a[idx[j]] {
			return r.a[idx[i]] < r.a[idx[j]]
		}
		return r.b[idx[i]] < r.b[idx[j]]
	})
	for _, i := range idx {
		adj.nbr[r.a[i]] = append(adj.nbr[r.a[i]], r.b[i])
		adj.w[r.a[i]] = append(adj.w[r.a[i]], r.w[i])
	}
	return adj
}

// triangleSpec is the spec of φ = ⊕_x ⊕_y ⊕_z R(x,y)·S(y,z)·T(x,z) with
// inline data, in the given domain ("" is the float default) and with x
// free when listing is set.  Tropical callers pass half-weight relations.
func triangleSpec(domain string, n int, rels [3]*relation, listing bool) string {
	var b strings.Builder
	agg := "sum"
	if domain != "" {
		fmt.Fprintf(&b, "domain %s\n", domain)
		if domain == "tropical" {
			agg = "min"
		}
	}
	xAgg := agg
	if listing {
		xAgg = "free"
	}
	fmt.Fprintf(&b, "var x %d %s\nvar y %d %s\nvar z %d %s\n", n, xAgg, n, agg, n, agg)
	rels[0].specBlock(&b, "x", "y")
	rels[1].specBlock(&b, "y", "z")
	rels[2].specBlock(&b, "x", "z")
	return b.String()
}

// datasetTriangleSpec is the triangle over a resident dataset's factors
// @0 (x,y), @1 (y,z), @2 (x,z).
func datasetTriangleSpec(dataset, domain string, n int, listing bool) string {
	var b strings.Builder
	agg := "sum"
	if domain != "" {
		fmt.Fprintf(&b, "domain %s\n", domain)
		if domain == "tropical" {
			agg = "min"
		}
	}
	fmt.Fprintf(&b, "use %s\n", dataset)
	xAgg := agg
	if listing {
		xAgg = "free"
	}
	fmt.Fprintf(&b, "var x %d %s\nvar y %d %s\nvar z %d %s\n", n, xAgg, n, agg, n, agg)
	b.WriteString("factor x y @0\nfactor y z @1\nfactor x z @2\n")
	return b.String()
}

// starSpec is Σ_c Σ_l1 Σ_l2 Σ_l3 R1(c,l1)·R2(c,l2)·R3(c,l3).
func starSpec(n int, rels [3]*relation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "var c %d sum\nvar l1 %d sum\nvar l2 %d sum\nvar l3 %d sum\n", n, n, n, n)
	for i, r := range rels {
		r.specBlock(&b, "c", fmt.Sprintf("l%d", i+1))
	}
	return b.String()
}

// chainSpec is Σ_a Σ_b Σ_c Σ_d R1(a,b)·R2(b,c)·R3(c,d).
func chainSpec(n int, rels [3]*relation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "var a %d sum\nvar b %d sum\nvar c %d sum\nvar d %d sum\n", n, n, n, n)
	rels[0].specBlock(&b, "a", "b")
	rels[1].specBlock(&b, "b", "c")
	rels[2].specBlock(&b, "c", "d")
	return b.String()
}
