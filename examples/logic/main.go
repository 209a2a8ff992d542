// Quantified and counting conjunctive queries (Table 1 rows #QCQ, QCQ,
// #CQ), including the Chen–Dalmau family of Section 7.2.1 where the
// FAQ-width stays ≤ 2 while prefix-based widths grow with the query.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	faq "github.com/faqdb/faq"
	"github.com/faqdb/faq/internal/logicq"
)

func main() {
	rng := rand.New(rand.NewSource(11))
	const dom = 16

	// Random binary relations.
	rel := func(name string, size int) *logicq.Relation {
		r := &logicq.Relation{Name: name, Arity: 2}
		seen := map[[2]int]bool{}
		for len(seen) < size {
			e := [2]int{rng.Intn(dom), rng.Intn(dom)}
			if !seen[e] {
				seen[e] = true
				r.Add(e[0], e[1])
			}
		}
		return r
	}
	r1, r2, r3 := rel("R1", dom*dom*3/4), rel("R2", dom*dom*3/4), rel("R3", dom*dom*3/4)

	// One engine answers the counting queries; a bool-typed handle onto it
	// answers the QCQ.
	counts := faq.NewEngine[int64](faq.EngineOptions{})
	defer counts.Close()
	bools := faq.Retype[bool](counts)

	// #QCQ: count x0 with ∀x1 ∃x2 ∀x3 (R1(x0,x1) ∧ R2(x0,x2) ∧ R3(x2,x3)).
	q := &logicq.Query{
		NumVars:  4,
		NumFree:  1,
		DomSizes: []int{dom, dom, dom, dom},
		Quants:   []logicq.Quantifier{logicq.ForAll, logicq.Exists, logicq.ForAll},
		Atoms: []logicq.Atom{
			{Rel: r1, Vars: []int{0, 1}},
			{Rel: r2, Vars: []int{0, 2}},
			{Rel: r3, Vars: []int{2, 3}},
		},
	}
	count, err := logicq.CountQCQ(counts, q)
	if err != nil {
		log.Fatal(err)
	}
	naive, err := logicq.NaiveCount(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("#QCQ  ∀∃∀ star query: InsideOut = %d, naive = %d\n", count, naive)

	// #CQ: same atoms, all-∃ prefix.
	q.Quants = []logicq.Quantifier{logicq.Exists, logicq.Exists, logicq.Exists}
	count, err = logicq.CountCQ(counts, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("#CQ   ∃∃∃ star query: %d satisfying x0 values\n", count)

	// Chen–Dalmau: ∀X_0..∀X_{n-1} ∃X_n (S(X_0..X_{n-1}) ∧ ⋀ R(X_i, X_n)).
	n := 4
	s := &logicq.Relation{Name: "S", Arity: n}
	tuple := make([]int, n)
	var fill func(i int)
	fill = func(i int) {
		if i == n {
			s.Add(tuple...)
			return
		}
		for v := 0; v < 3; v++ {
			tuple[i] = v
			fill(i + 1)
		}
	}
	fill(0)
	succ := &logicq.Relation{Name: "R", Arity: 2}
	for a := 0; a < 3; a++ {
		succ.Add(a, (a+1)%3)
	}
	cd := logicq.ChenDalmau(n, s, succ, 3)
	out, err := logicq.SolveQCQ(bools, cd)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("QCQ   Chen–Dalmau n=%d: holds = %v\n", n, out.Size() > 0)

	// The width story of Section 7.2.1: faqw stays ~2, prefix width is n+1.
	cq, err := logicq.CompileQCQ(cd)
	if err != nil {
		log.Fatal(err)
	}
	shape := cq.Shape()
	wc := faq.NewWidthCalc(shape.H)
	plan, err := faq.PlanExact(shape, wc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("      faqw(φ) = %.3f (prefix width would be %d)\n", plan.Width, n+1)

	// Engine-served #QCQ: the same ∀∃∀ star shape over growing domains
	// compiles to one query shape, so a fresh engine plans it once and
	// serves every subsequent domain size from the plan cache.
	eng := faq.NewEngine[int64](faq.EngineOptions{})
	defer eng.Close()
	ctx := context.Background()
	fmt.Println("engine-served #QCQ sweep (∀∃∀ star):")
	for _, sweepDom := range []int{8, 12, 16} {
		srel := func(name string) *logicq.Relation {
			r := &logicq.Relation{Name: name, Arity: 2}
			seen := map[[2]int]bool{}
			for len(seen) < sweepDom*sweepDom*3/4 {
				e := [2]int{rng.Intn(sweepDom), rng.Intn(sweepDom)}
				if !seen[e] {
					seen[e] = true
					r.Add(e[0], e[1])
				}
			}
			return r
		}
		sq := &logicq.Query{
			NumVars:  4,
			NumFree:  1,
			DomSizes: []int{sweepDom, sweepDom, sweepDom, sweepDom},
			Quants:   []logicq.Quantifier{logicq.ForAll, logicq.Exists, logicq.ForAll},
			Atoms: []logicq.Atom{
				{Rel: srel("S1"), Vars: []int{0, 1}},
				{Rel: srel("S2"), Vars: []int{0, 2}},
				{Rel: srel("S3"), Vars: []int{2, 3}},
			},
		}
		scq, err := logicq.CompileSharpQCQ(sq)
		if err != nil {
			log.Fatal(err)
		}
		prep, err := eng.Prepare(scq)
		if err != nil {
			log.Fatal(err)
		}
		res, err := prep.Run(ctx)
		if err != nil {
			log.Fatal(err)
		}
		want, err := logicq.NaiveCount(sq)
		if err != nil {
			log.Fatal(err)
		}
		if res.Scalar() != want {
			log.Fatalf("engine #QCQ = %d, naive = %d", res.Scalar(), want)
		}
		fmt.Printf("  dom %2d: count %4d (plan %s)\n", sweepDom, res.Scalar(), prep.Plan().Method)
	}
	st := eng.Stats()
	fmt.Printf("  engine: %d prepares, %d planning pass(es), %d cache hits\n",
		st.Prepared, st.PlanCacheMisses, st.PlanCacheHits)
}
