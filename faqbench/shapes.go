package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"github.com/faqdb/faq/internal/server"
)

// shape is a query over n variables of domain 2: its hypergraph, the
// aggregate of each variable (a free prefix, then sum or max), and for
// each factor the value of every one of its 2^arity tuples (0 = absent).
// Values are 1 or 2, so every sum of products stays an exact integer.
type shape struct {
	n     int
	aggs  []string
	edges [][]int // ascending variable ids per factor
	vals  [][]float64
	// fhtw is the known fractional hypertree width of a textbook family
	// with every variable summed, checked against the daemon's plan width;
	// 0 leaves the width unchecked.
	fhtw float64
	name string
}

func (s *shape) nfree() int {
	k := 0
	for k < s.n && s.aggs[k] == "free" {
		k++
	}
	return k
}

// key is the shape's identity in the daemon's plan cache: variable count,
// aggregates and the sorted edge set.  Shapes with distinct keys must each
// cost one plan-cache miss.
func (s *shape) key() string {
	es := make([]string, len(s.edges))
	for i, e := range s.edges {
		es[i] = fmt.Sprint(e)
	}
	sort.Strings(es)
	return fmt.Sprintf("%d|%s|%s", s.n, strings.Join(s.aggs, ","), strings.Join(es, ";"))
}

func (s *shape) spec() string {
	var b strings.Builder
	for v := 0; v < s.n; v++ {
		fmt.Fprintf(&b, "var v%d 2 %s\n", v, s.aggs[v])
	}
	for i, e := range s.edges {
		b.WriteString("factor")
		for _, v := range e {
			fmt.Fprintf(&b, " v%d", v)
		}
		b.WriteByte('\n')
		for t, val := range s.vals[i] {
			if val == 0 {
				continue
			}
			for j := range e {
				fmt.Fprintf(&b, "%d ", t>>(len(e)-1-j)&1)
			}
			fmt.Fprintf(&b, "= %g\n", val)
		}
		b.WriteString("end\n")
	}
	return b.String()
}

// eval computes the query by brute force over all 2^n assignments,
// aggregating variables innermost first.  It returns the scalar (no free
// variables) or the non-zero rows of the listing keyed by the free
// variables' bits, most significant first.
func (s *shape) eval() (float64, map[int]float64) {
	assign := make([]int, s.n)
	var rec func(v int) float64
	rec = func(v int) float64 {
		if v == s.n {
			p := 1.0
			for i, e := range s.edges {
				t := 0
				for _, u := range e {
					t = t<<1 | assign[u]
				}
				p *= s.vals[i][t]
				if p == 0 {
					return 0
				}
			}
			return p
		}
		assign[v] = 0
		a := rec(v + 1)
		assign[v] = 1
		b := rec(v + 1)
		if s.aggs[v] == "max" {
			return math.Max(a, b)
		}
		return a + b
	}
	k := s.nfree()
	if k == 0 {
		return rec(0), nil
	}
	out := map[int]float64{}
	for f := 0; f < 1<<k; f++ {
		for v := 0; v < k; v++ {
			assign[v] = f >> (k - 1 - v) & 1
		}
		if val := rec(k); val != 0 {
			out[f] = val
		}
	}
	return 0, out
}

// check compares a daemon answer with eval, and the plan width with the
// family's known width.
func (s *shape) check(value any, out *server.OutputData, width float64) error {
	scalar, rows := s.eval()
	if s.fhtw != 0 && math.Abs(width-s.fhtw) > 1e-9 {
		return wrong("%s: plan width %g, want the fractional hypertree width %g", s.name, width, s.fhtw)
	}
	if rows == nil {
		r := server.QueryResponse{Domain: "float", Value: value}
		got, err := r.FloatValue()
		if err != nil {
			return wrong("%s: %v", s.name, err)
		}
		if got != scalar {
			return wrong("%s: value %v, want %v", s.name, got, scalar)
		}
		return nil
	}
	if out == nil {
		return wrong("%s: no output listing", s.name)
	}
	vals, err := out.FloatValues()
	if err != nil {
		return wrong("%s: %v", s.name, err)
	}
	if len(out.Tuples) != len(rows) {
		return wrong("%s: %d output rows, want %d", s.name, len(out.Tuples), len(rows))
	}
	for i, tup := range out.Tuples {
		f := 0
		for _, x := range tup {
			f = f<<1 | x
		}
		if want, ok := rows[f]; !ok || vals[i] != want {
			return wrong("%s: row %v = %v, want %v", s.name, tup, vals[i], want)
		}
	}
	return nil
}

// fill draws every factor's tuple values: mostly 1 or 2, some absent.
func (s *shape) fill(rng *rand.Rand) {
	s.vals = make([][]float64, len(s.edges))
	for i, e := range s.edges {
		s.vals[i] = make([]float64, 1<<len(e))
		for t := range s.vals[i] {
			if rng.Intn(8) != 0 {
				s.vals[i][t] = float64(1 + rng.Intn(2))
			}
		}
	}
}

func allSum(n int) []string {
	a := make([]string, n)
	for i := range a {
		a[i] = "sum"
	}
	return a
}

// family builds a textbook shape over n variables, relabelled by perm so
// that every instance is a distinct plan-cache key.
func family(kind string, n int, perm []int) *shape {
	s := &shape{n: n, aggs: allSum(n), name: fmt.Sprintf("%s%d", kind, n)}
	edge := func(vs ...int) {
		e := make([]int, len(vs))
		for i, v := range vs {
			e[i] = perm[v]
		}
		sort.Ints(e)
		s.edges = append(s.edges, e)
	}
	switch kind {
	case "path":
		for v := 0; v+1 < n; v++ {
			edge(v, v+1)
		}
		s.fhtw = 1
	case "star":
		for v := 1; v < n; v++ {
			edge(0, v)
		}
		s.fhtw = 1
	case "cycle":
		for v := 0; v < n; v++ {
			edge(v, (v+1)%n)
		}
		s.fhtw = 2
		if n == 3 {
			s.fhtw = 1.5
		}
	case "clique":
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				edge(u, v)
			}
		}
		s.fhtw = float64(n) / 2
	}
	return s
}

// randomShape is a random hypergraph over n variables: edges of arity 2 or
// 3 until every variable is covered and about 1.3n edges exist, some free
// variables and a mix of sum and max.
func randomShape(rng *rand.Rand, n int) *shape {
	s := &shape{n: n, name: fmt.Sprintf("random%d", n)}
	covered := make([]bool, n)
	addEdge := func(first int) {
		k := 2 + rng.Intn(2)
		set := map[int]bool{first: true}
		for len(set) < k {
			set[rng.Intn(n)] = true
		}
		e := make([]int, 0, k)
		for v := range set {
			e = append(e, v)
			covered[v] = true
		}
		sort.Ints(e)
		s.edges = append(s.edges, e)
	}
	for len(s.edges) < n+n*3/10 {
		addEdge(rng.Intn(n))
	}
	for v := 0; v < n; v++ {
		if !covered[v] {
			addEdge(v)
		}
	}
	nfree := 0
	if rng.Intn(3) == 0 {
		nfree = 1 + rng.Intn(2)
	}
	s.aggs = make([]string, n)
	for v := range s.aggs {
		switch {
		case v < nfree:
			s.aggs[v] = "free"
		case rng.Intn(4) == 0:
			s.aggs[v] = "max"
		default:
			s.aggs[v] = "sum"
		}
	}
	return s
}

// shapeStream yields distinct shapes in a sequence fixed by its seed.  It
// hands them out a round at a time: one random hypergraph each of 10, 11
// and 12 variables, then one relabelled textbook family.  (Shapes of 13
// variables and more take 40-300 ms each to plan, so a run's planning
// time would rest on a handful of them.)  Which client
// gets which round depends on timing; the sequence and the make-up of
// every round do not.
type shapeStream struct {
	mu   sync.Mutex
	rng  *rand.Rand
	seen map[string]bool
}

func newShapeStream(seed int64, seen map[string]bool) *shapeStream {
	return &shapeStream{rng: rand.New(rand.NewSource(seed)), seen: seen}
}

// shapesPerRound is the length of one round of the stream.
const shapesPerRound = 4

// minFactorsPerRound is the fewest factors (hyperedges) one round's shapes
// hold: the random shapes of 10, 11 and 12 variables have at least
// n + 3n/10 edges each, and the smallest family, a path of 10, has 9.
const minFactorsPerRound = 13 + 14 + 15 + 9

func (g *shapeStream) round() []*shape {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*shape, 0, shapesPerRound)
	for _, n := range []int{10, 11, 12} {
		out = append(out, g.distinct(func() *shape { return randomShape(g.rng, n) }))
	}
	return append(out, g.distinct(g.family))
}

func (g *shapeStream) family() *shape {
	switch g.rng.Intn(4) {
	case 0:
		n := 10 + g.rng.Intn(3)
		return family("path", n, g.rng.Perm(n))
	case 1:
		n := 10 + g.rng.Intn(3)
		return family("star", n, g.rng.Perm(n))
	case 2:
		n := 10 + g.rng.Intn(3)
		return family("cycle", n, g.rng.Perm(n))
	}
	// Every labelling of a clique is one key, so only a K4..K7 not yet
	// sent comes out of this branch; once all four are, it redraws.
	n := 4 + g.rng.Intn(4)
	return family("clique", n, g.rng.Perm(n))
}

// distinct draws until the shape is one not seen before.
func (g *shapeStream) distinct(draw func() *shape) *shape {
	for {
		s := draw()
		s.fill(g.rng)
		if k := s.key(); !g.seen[k] {
			g.seen[k] = true
			return s
		}
	}
}

// widthSet is the fixed set of shapes whose mean plan width every run
// reports.  It does not depend on --seed: plan_width_mean measures the
// planner's choices, and a fixed set makes it comparable between commits.
type widthSet struct {
	shapes []*shape
}

func newWidthSet() *widthSet {
	rng := rand.New(rand.NewSource(20160626))
	ws := &widthSet{}
	for _, f := range []struct {
		kind string
		n    int
	}{{"path", 6}, {"star", 6}, {"cycle", 3}, {"cycle", 4}, {"cycle", 5}, {"cycle", 6},
		{"clique", 4}, {"clique", 5}, {"clique", 6}} {
		ws.shapes = append(ws.shapes, family(f.kind, f.n, identity(f.n)))
	}
	for i := 0; i < 16; i++ {
		ws.shapes = append(ws.shapes, randomShape(rng, 8))
	}
	for _, s := range ws.shapes {
		s.fill(rng)
	}
	return ws
}

func identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// plan sends every shape of the set once, checks each answer and returns
// the mean plan width.
func (ws *widthSet) plan(ctx context.Context, c *server.Client) (float64, error) {
	var sum float64
	for _, s := range ws.shapes {
		resp, err := c.Query(ctx, &server.QueryRequest{Spec: s.spec()})
		if err != nil {
			return 0, fmt.Errorf("planning width-set shape %s: %w", s.name, err)
		}
		if err := s.check(resp.Value, resp.Output, resp.Plan.Width); err != nil {
			return 0, err
		}
		sum += resp.Plan.Width
	}
	return sum / float64(len(ws.shapes)), nil
}
