package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"

	"github.com/faqdb/faq/internal/join"
	"github.com/faqdb/faq/internal/server"
	"github.com/faqdb/faq/internal/wire"
)

var workloads = map[string]func(seed int64, clients int) (*bench, error){
	"serve-small": serveSmall,
	"join-large":  joinLarge,
	"delta-large": deltaLarge,
	"plan-cold":   planCold,
}

var workloadNames = []string{"serve-small", "join-large", "delta-large", "plan-cold"}

// triangle is one instance of φ = ⊕_x ⊕_y ⊕_z R(x,y)·S(y,z)·T(x,z): its
// relations, their wire frames and the oracle's answers.
type triangle struct {
	n      int
	rels   [3]*relation
	frames []*wire.Frame
	perX   []float64 // Σ per x
	total  float64
}

func newTriangle(rels [3]*relation, dom wire.Domain) *triangle {
	t := &triangle{n: rels[0].n, rels: rels}
	for _, r := range rels {
		t.frames = append(t.frames, r.frame(dom))
	}
	if dom == wire.DomainTropical {
		t.perX, t.total = triangleMin(rels[0], rels[1], rels[2])
	} else {
		t.perX, t.total = triangleSum(rels[0], rels[1], rels[2])
	}
	return t
}

// freshSpec is the triangle spec with empty factor blocks: the data rides
// along as frames.
func (t *triangle) freshSpec(domain string, listing bool) string {
	empty := [3]*relation{{n: t.n}, {n: t.n}, {n: t.n}}
	return triangleSpec(domain, t.n, empty, listing)
}

func relations(rng *rand.Rand, n, m int, skew float64) [3]*relation {
	return [3]*relation{
		randomRelation(rng, n, m, skew, 3),
		randomRelation(rng, n, m, skew, 3),
		randomRelation(rng, n, m, skew, 3),
	}
}

func queryReply(resp *server.QueryResponse) reply {
	return reply{serverMS: resp.ElapsedMS, traces: traceOf(resp.Trace), stats: resp.Stats, runs: 1}
}

func checkFloat(what string, got func() (float64, error), want float64) error {
	v, err := got()
	if err != nil {
		return wrong("%s: %v", what, err)
	}
	if math.Float64bits(v) != math.Float64bits(want) {
		return wrong("%s: value %v, want %v", what, v, want)
	}
	return nil
}

// checkListing holds an x-free listing to the oracle's per-x answers:
// exactly the x whose value is not the aggregate's identity, bit for bit.
func checkListing(what string, out *server.OutputData, perX []float64, identity float64) error {
	if out == nil {
		return wrong("%s: no output listing", what)
	}
	vals, err := out.FloatValues()
	if err != nil {
		return wrong("%s: %v", what, err)
	}
	want := 0
	for _, v := range perX {
		if v != identity {
			want++
		}
	}
	if len(out.Tuples) != want || len(vals) != want {
		return wrong("%s: %d output rows, want %d", what, len(out.Tuples), want)
	}
	for i, tup := range out.Tuples {
		if len(tup) != 1 || tup[0] < 0 || tup[0] >= len(perX) {
			return wrong("%s: output row %v out of range", what, tup)
		}
		if math.Float64bits(vals[i]) != math.Float64bits(perX[tup[0]]) {
			return wrong("%s: x=%d value %v, want %v", what, tup[0], vals[i], perX[tup[0]])
		}
	}
	return nil
}

// encodeStream renders a binary /v1/query body once, so the measured loop
// re-posts the bytes.
func encodeStream(spec string, frames []*wire.Frame) ([]byte, error) {
	return server.EncodeQueryStream(&server.QueryRequest{Spec: spec}, frames)
}

func putDataset(ctx context.Context, c *server.Client, lay *layers, name string, frames []*wire.Frame) error {
	return lay.timeCall("store.put_ms", func() error {
		_, err := c.PutDataset(ctx, name, frames)
		return err
	})
}

// runsAddUp is the totals check every workload makes: the engine runs and
// delta batches the daemon counted equal those the client's successful
// operations asked for.
func runsAddUp(st0, st1 *server.StatszResponse, p *phase) error {
	got := (st1.Engine.Runs - st0.Engine.Runs) + (st1.Engine.DeltasApplied - st0.Engine.DeltasApplied)
	if got != p.runs {
		return fmt.Errorf("/statsz counted %d engine runs and delta batches, the client's %d successful operations asked for %d",
			got, p.ok(), p.runs)
	}
	return nil
}

// serveSmall: small requests in a fixed cyclic order at dom 16 and 48 —
// inline triangle, star and chain, int and tropical triangles, a fresh
// binary triangle, a dataset triangle and a streamed batch of 8.
func serveSmall(seed int64, clients int) (*bench, error) {
	rng := rand.New(rand.NewSource(seed))
	var cycle []op
	type dsUpload struct {
		name   string
		frames []*wire.Frame
	}
	var uploads []dsUpload
	var direct []*triangle
	for _, n := range []int{16, 48} {
		m := n * n / 5
		tri := newTriangle(relations(rng, n, m, 0), wire.DomainFloat)
		starRels, chainRels := relations(rng, n, m, 0), relations(rng, n, m, 0)
		half := [3]*relation{tri.rels[0].halfWeights(), tri.rels[1].halfWeights(), tri.rels[2].halfWeights()}
		_, tropMin := triangleMin(half[0], half[1], half[2])
		star, chain := starSum(starRels), chainSum(chainRels)
		triText := triangleSpec("", n, tri.rels, false)
		direct = append(direct, tri)

		inline := func(kind, text string, check func(*server.QueryResponse) error) op {
			req := &server.QueryRequest{Spec: text}
			return op{kind, func(ctx context.Context, c *server.Client) (reply, error) {
				resp, err := c.Query(ctx, req)
				if err != nil {
					return reply{}, err
				}
				return queryReply(resp), check(resp)
			}}
		}
		floatIs := func(what string, want float64) func(*server.QueryResponse) error {
			return func(r *server.QueryResponse) error { return checkFloat(what, r.FloatValue, want) }
		}
		cycle = append(cycle,
			inline(fmt.Sprintf("triangle%d", n), triText, floatIs("triangle", tri.total)),
			inline(fmt.Sprintf("star%d", n), starSpec(n, starRels), floatIs("star", star)),
			inline(fmt.Sprintf("chain%d", n), chainSpec(n, chainRels), floatIs("chain", chain)),
			inline(fmt.Sprintf("int-triangle%d", n), triangleSpec("int", n, tri.rels, false),
				func(r *server.QueryResponse) error {
					v, err := r.IntValue()
					if err != nil || v != int64(tri.total) {
						return wrong("int triangle: value %v (%v), want %d", v, err, int64(tri.total))
					}
					return nil
				}),
			inline(fmt.Sprintf("tropical-triangle%d", n), triangleSpec("tropical", n, half, false),
				floatIs("tropical triangle", tropMin)),
		)

		fresh, err := encodeStream(tri.freshSpec("", false), tri.frames)
		if err != nil {
			return nil, err
		}
		cycle = append(cycle, op{fmt.Sprintf("fresh-triangle%d", n), func(ctx context.Context, c *server.Client) (reply, error) {
			resp, err := c.QueryStream(ctx, fresh)
			if err != nil {
				return reply{}, err
			}
			return queryReply(resp), checkFloat("fresh triangle", resp.FloatValue, tri.total)
		}})

		ds := fmt.Sprintf("small%d", n)
		uploads = append(uploads, dsUpload{ds, tri.frames})
		dsReq := &server.QueryRequest{Spec: datasetTriangleSpec(ds, "", n, false)}
		cycle = append(cycle, op{fmt.Sprintf("dataset-triangle%d", n), func(ctx context.Context, c *server.Client) (reply, error) {
			resp, err := c.Query(ctx, dsReq)
			if err != nil {
				return reply{}, err
			}
			return queryReply(resp), checkFloat("dataset triangle", resp.FloatValue, tri.total)
		}})

		const items = 8
		groups := make([][]*wire.Frame, items)
		for i := range groups {
			groups[i] = tri.frames
		}
		batch, err := server.EncodeBatchStream(&server.BatchRequest{Spec: tri.freshSpec("", false)}, groups)
		if err != nil {
			return nil, err
		}
		cycle = append(cycle, op{fmt.Sprintf("batch%d", n), func(ctx context.Context, c *server.Client) (reply, error) {
			resp, err := c.QueryBatchStream(ctx, wire.BatchContentType, batch, nil)
			if err != nil {
				return reply{}, err
			}
			rep := reply{serverMS: resp.ElapsedMS, traces: traceOf(resp.Trace)}
			for i := range resp.Items {
				it := &resp.Items[i]
				if it.Error != "" {
					return rep, fmt.Errorf("batch item %d: %s", i, it.Error)
				}
				rep.runs++
				rep.stats.IntermediateRows += it.Stats.IntermediateRows
				rep.stats.MaxIntermediate = max(rep.stats.MaxIntermediate, it.Stats.MaxIntermediate)
				rep.stats.JoinProbes += it.Stats.JoinProbes
				if err := checkFloat(fmt.Sprintf("batch item %d", i), it.FloatValue, tri.total); err != nil {
					return rep, err
				}
			}
			if len(resp.Items) != items || resp.Completed != items || resp.Status != server.BatchStatusOK {
				return rep, wrong("batch: %d items, %d completed, status %q; want %d, %d, ok",
					len(resp.Items), resp.Completed, resp.Status, items, items)
			}
			return rep, nil
		}})
	}
	return &bench{
		setup: func(ctx context.Context, c *server.Client, lay *layers) error {
			for _, u := range uploads {
				if err := putDataset(ctx, c, lay, u.name, u.frames); err != nil {
					return err
				}
			}
			return nil
		},
		// Each client starts the cycle at its own offset, so the clients
		// do not send the same request at the same moment.
		round: func(ci int) []op {
			out := make([]op, len(cycle))
			for i := range cycle {
				out[i] = cycle[(i+ci*len(cycle)/max(clients, 1))%len(cycle)]
			}
			return out
		},
		// Every request but the two by dataset name registers its spec's
		// three parsed factors in the engine's trie cache (see CHANGES.md,
		// FOUND).  The warm-up registers twice the cache's factor cap, so
		// the cache passes the cap and reaches its steady churn during
		// warm-up, not while measuring.
		warmRounds: 2*join.DefaultTrieCacheFactors/(clients*3*(len(cycle)-2)) + 1,
		totals:     runsAddUp,
		direct: func(ctx context.Context, lay *layers) error {
			for _, tri := range direct {
				if err := directTriangle(ctx, lay, tri, triangleSpec("", tri.n, tri.rels, false), 20); err != nil {
					return err
				}
			}
			return nil
		},
	}, nil
}

// Sizes of the large graphs: vertices, edges per relation and the Zipf
// exponent of the endpoint degrees.
const (
	largeN    = 8192
	largeM    = 50000
	largeSkew = 1.3
)

// joinLarge: three kinds of request over skewed 50k-edge relations,
// alternating — the scalar triangle by dataset name, the x-free listing by
// name with a binary response, and the scalar triangle with fresh binary
// factors.
func joinLarge(seed int64, clients int) (*bench, error) {
	rng := rand.New(rand.NewSource(seed))
	tri := newTriangle(relations(rng, largeN, largeM, largeSkew), wire.DomainFloat)
	const ds = "graph"
	scalar := &server.QueryRequest{Spec: datasetTriangleSpec(ds, "", tri.n, false)}
	listing := &server.QueryRequest{Spec: datasetTriangleSpec(ds, "", tri.n, true)}
	freshText := tri.freshSpec("", false)
	fresh, err := encodeStream(freshText, tri.frames)
	if err != nil {
		return nil, err
	}
	cycle := []op{
		{"dataset-triangle", func(ctx context.Context, c *server.Client) (reply, error) {
			resp, err := c.Query(ctx, scalar)
			if err != nil {
				return reply{}, err
			}
			return queryReply(resp), checkFloat("dataset triangle", resp.FloatValue, tri.total)
		}},
		{"dataset-listing", func(ctx context.Context, c *server.Client) (reply, error) {
			resp, err := c.QueryBinary(ctx, listing)
			if err != nil {
				return reply{}, err
			}
			return queryReply(resp), checkListing("dataset listing", resp.Output, tri.perX, 0)
		}},
		{"fresh-triangle", func(ctx context.Context, c *server.Client) (reply, error) {
			resp, err := c.QueryStream(ctx, fresh)
			if err != nil {
				return reply{}, err
			}
			return queryReply(resp), checkFloat("fresh triangle", resp.FloatValue, tri.total)
		}},
	}
	return &bench{
		setup: func(ctx context.Context, c *server.Client, lay *layers) error {
			return putDataset(ctx, c, lay, ds, tri.frames)
		},
		round: func(ci int) []op {
			out := make([]op, len(cycle))
			for i := range cycle {
				out[i] = cycle[(i+ci)%len(cycle)]
			}
			return out
		},
		warmRounds: 2,
		settle:     fillRegistrations,
		totals: func(st0, st1 *server.StatszResponse, p *phase) error {
			if err := runsAddUp(st0, st1, p); err != nil {
				return err
			}
			if n := st1.Sort.RadixSorts - st0.Sort.RadixSorts; n <= 0 {
				return fmt.Errorf("no radix sort ran (%d)", n)
			}
			if n := st1.Sort.ParallelScans - st0.Sort.ParallelScans; n <= 0 {
				return fmt.Errorf("no parallel scan ran (%d)", n)
			}
			return nil
		},
		direct: func(ctx context.Context, lay *layers) error {
			return directTriangle(ctx, lay, tri, freshText, 3)
		},
	}, nil
}

// fillRegistrations sends fresh-factor triangles over two vertices.  Each
// one registers its spec's three parsed factors in the engine's trie cache,
// as every fresh-factor request of join-large does, and the cache expels
// the least recently *registered* factor past its cap (see CHANGES.md,
// FOUND).  The fresh requests of join-large reach that state after a third
// of the cap of them, at a moment of the run that depends on its speed;
// registering the cap's worth of factors here, with a margin, puts every
// measured request in that steady state.
func fillRegistrations(ctx context.Context, c *server.Client) error {
	one := &relation{n: 2, a: []int32{0}, b: []int32{1}, w: []float64{1}}
	tiny := newTriangle([3]*relation{one, one, one}, wire.DomainFloat)
	body, err := encodeStream(tiny.freshSpec("", false), tiny.frames)
	if err != nil {
		return err
	}
	for i := 0; i < join.DefaultTrieCacheFactors/3+64; i++ {
		if _, err := c.QueryStream(ctx, body); err != nil {
			return err
		}
	}
	return nil
}

// Delta batches: rows inserted into R, then into S, then deleted again.
const deltaBatch = 64

// deltaSession is one /v1/delta session of delta-large and its cycle: the
// four binary delta bodies and the listing each must produce.
type deltaSession struct {
	name     string
	spec     string
	domain   wire.Domain
	dataset  string
	frames   []*wire.Frame
	base     []float64 // per-x listing of the seeded state
	steps    [][]byte  // encoded delta streams
	want     [][]float64
	deltas   []*wire.DeltaFrame
	identity float64
	strategy string // the maintenance strategy the daemon picks, set at seeding
}

// newDeltaSession builds a session over one relation triple.  R and S are
// drawn with deltaBatch extra edges each; those edges form the insert
// batches A and B, so every insert is a new row and every delete removes
// exactly what was inserted.  The cycle is +A, +B, −A, −B.
func newDeltaSession(rng *rand.Rand, name, dataset string, dom wire.Domain) (*deltaSession, error) {
	var full [3]*relation
	for i := range full {
		m := largeM
		if i < 2 {
			m += deltaBatch
		}
		full[i] = randomRelation(rng, largeN, m, largeSkew, 3)
	}
	domain, identity := "", 0.0
	if dom == wire.DomainTropical {
		domain, identity = "tropical", math.Inf(1)
		for i := range full {
			full[i] = full[i].halfWeights()
		}
	}
	split := func(r *relation) (base, extra *relation) {
		base = &relation{n: r.n, a: r.a[:largeM], b: r.b[:largeM], w: r.w[:largeM]}
		extra = &relation{n: r.n, a: r.a[largeM:], b: r.b[largeM:], w: r.w[largeM:]}
		return base, extra
	}
	r0, a := split(full[0])
	s0, b := split(full[1])
	t := full[2]
	listing := func(r, s *relation) []float64 {
		if dom == wire.DomainTropical {
			perX, _ := triangleMin(r, s, t)
			return perX
		}
		perX, _ := triangleSum(r, s, t)
		return perX
	}
	union := func(x, y *relation) *relation {
		return &relation{n: x.n, a: append(append([]int32(nil), x.a...), y.a...),
			b: append(append([]int32(nil), x.b...), y.b...), w: append(append([]float64(nil), x.w...), y.w...)}
	}
	ds := &deltaSession{name: name, dataset: dataset, domain: dom, identity: identity,
		spec: datasetTriangleSpec(dataset, domain, largeN, true)}
	for _, r := range []*relation{r0, s0, t} {
		ds.frames = append(ds.frames, r.frame(dom))
	}
	ra, sb := union(r0, a), union(s0, b)
	ds.base = listing(r0, s0)
	ds.want = [][]float64{listing(ra, s0), listing(ra, sb), listing(r0, sb), ds.base}
	for i, e := range []struct {
		op     wire.DeltaOp
		factor int
		rel    *relation
	}{{wire.DeltaOpInsert, 0, a}, {wire.DeltaOpInsert, 1, b}, {wire.DeltaOpDelete, 0, a}, {wire.DeltaOpDelete, 1, b}} {
		f := e.rel.frame(dom)
		df := &wire.DeltaFrame{Op: e.op, Domain: dom, Factor: e.factor, Arity: 2, Rows: f.Rows}
		if e.op == wire.DeltaOpInsert {
			df.Floats = f.Floats
		}
		body, err := server.EncodeDeltaStream(&server.DeltaRequest{Spec: ds.spec, Session: name}, []*wire.DeltaFrame{df})
		if err != nil {
			return nil, fmt.Errorf("session %s step %d: %w", name, i, err)
		}
		ds.steps = append(ds.steps, body)
		ds.deltas = append(ds.deltas, df)
	}
	return ds, nil
}

func (ds *deltaSession) ops() []op {
	out := make([]op, len(ds.steps))
	for i := range ds.steps {
		body, want := ds.steps[i], ds.want[i]
		what := fmt.Sprintf("%s step %d", ds.name, i)
		out[i] = op{"delta-" + ds.name, func(ctx context.Context, c *server.Client) (reply, error) {
			resp, err := c.DeltaStream(ctx, body)
			if err != nil {
				return reply{}, err
			}
			rep := reply{serverMS: resp.ElapsedMS, traces: traceOf(resp.Trace), stats: resp.Stats, runs: 1}
			if resp.Applied != 1 || resp.Strategy != ds.strategy {
				return rep, wrong("%s: applied %d with strategy %q, want 1 with %q", what, resp.Applied, resp.Strategy, ds.strategy)
			}
			return rep, checkListing(what, resp.Output, want, ds.identity)
		}}
	}
	return out
}

// deltaLarge: two /v1/delta sessions seeded from datasets, each cycling
// insert/delete batches that return it to its baseline — an x-free float
// sum listing (an aggregate with an inverse) and an x-free tropical min
// listing (none).
func deltaLarge(seed int64, clients int) (*bench, error) {
	rng := rand.New(rand.NewSource(seed))
	ring, err := newDeltaSession(rng, "sum", "graph-sum", wire.DomainFloat)
	if err != nil {
		return nil, err
	}
	min, err := newDeltaSession(rng, "min", "graph-min", wire.DomainTropical)
	if err != nil {
		return nil, err
	}
	sessions := []*deltaSession{ring, min}
	return &bench{
		setup: func(ctx context.Context, c *server.Client, lay *layers) error {
			for _, ds := range sessions {
				if err := putDataset(ctx, c, lay, ds.dataset, ds.frames); err != nil {
					return err
				}
				resp, err := c.Delta(ctx, &server.DeltaRequest{Spec: ds.spec, Session: ds.name})
				if err != nil {
					return fmt.Errorf("seeding session %s: %w", ds.name, err)
				}
				if err := checkListing("seeded "+ds.name, resp.Output, ds.base, ds.identity); err != nil {
					return err
				}
				ds.strategy = resp.Strategy
			}
			if ring.strategy != "ring" {
				return fmt.Errorf("the float sum session uses strategy %q, want ring", ring.strategy)
			}
			return nil
		},
		// A client owns the sessions whose index is its own modulo the
		// client count, and a round is one whole cycle of each.
		round: func(ci int) []op {
			var out []op
			for i, ds := range sessions {
				if i%clients == ci {
					out = append(out, ds.ops()...)
				}
			}
			return out
		},
		warmRounds: 2,
		totals:     runsAddUp,
		direct: func(ctx context.Context, lay *layers) error {
			return directDelta(ctx, lay, ring, 5)
		},
	}, nil
}

// planCold: every request is a shape the daemon has not seen, over domain
// 2, so planning is nearly the whole request.
func planCold(seed int64, clients int) (*bench, error) {
	seen := map[string]bool{}
	for _, s := range newWidthSet().shapes {
		seen[s.key()] = true
	}
	stream := newShapeStream(seed, seen)
	type answer struct {
		s     *shape
		value any
		out   *server.OutputData
		width float64
	}
	var mu sync.Mutex
	var answers []answer
	return &bench{
		round: func(ci int) []op {
			var out []op
			for _, s := range stream.round() {
				out = append(out, op{"cold-" + strings.TrimRightFunc(s.name, isDigit), func(ctx context.Context, c *server.Client) (reply, error) {
					resp, err := c.Query(ctx, &server.QueryRequest{Spec: s.spec()})
					if err != nil {
						return reply{}, err
					}
					mu.Lock()
					answers = append(answers, answer{s, resp.Value, resp.Output, resp.Plan.Width})
					mu.Unlock()
					return queryReply(resp), nil
				}})
			}
			return out
		},
		// Every request registers its parsed factors in the trie cache; the
		// warm-up's rounds register at least the cache's factor cap, so its
		// evictions are steady before measuring.
		warmRounds: join.DefaultTrieCacheFactors/(clients*minFactorsPerRound) + 1,
		// The brute-force oracle runs after the measured phase, so its
		// cost stays out of every metric.
		verify: func() error {
			mu.Lock()
			defer mu.Unlock()
			for _, a := range answers {
				if err := a.s.check(a.value, a.out, a.width); err != nil {
					return err
				}
			}
			return nil
		},
		totals: func(st0, st1 *server.StatszResponse, p *phase) error {
			if err := runsAddUp(st0, st1, p); err != nil {
				return err
			}
			if d := st1.Engine.PlanCacheMisses - st0.Engine.PlanCacheMisses; d != p.attempted {
				return fmt.Errorf("plan cache misses grew by %d for %d distinct shapes sent", d, p.attempted)
			}
			if d := st1.Engine.PlanCacheHits - st0.Engine.PlanCacheHits; d != 0 {
				return fmt.Errorf("plan cache hits grew by %d on shapes never sent before", d)
			}
			return nil
		},
		direct: func(ctx context.Context, lay *layers) error {
			return directPlan(ctx, lay, newShapeStream(seed+1, map[string]bool{}), 3)
		},
	}, nil
}

func isDigit(r rune) bool { return r >= '0' && r <= '9' }
