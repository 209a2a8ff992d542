package core

import (
	"context"
	"math/rand"
	"testing"

	"github.com/faqdb/faq/internal/factor"
	"github.com/faqdb/faq/internal/semiring"
)

// deltaMatches compares two outputs value-wise, reading absent tuples as
// Zero: incremental maintenance may keep an explicit zero row (sum
// cancellation) where a recompute drops it, and both spellings are the same
// function.
func deltaMatches(d *semiring.Domain[int64], got, want *factor.Factor[int64]) bool {
	if got == nil || want == nil {
		return got == want
	}
	var tup []int
	for i := 0; i < got.Size(); i++ {
		tup = got.Tuple(i, tup)
		if got.Values[i] != want.ValueOrZero(d, tup) {
			return false
		}
	}
	for i := 0; i < want.Size(); i++ {
		tup = want.Tuple(i, tup)
		if got.ValueOrZero(d, tup) != want.Values[i] {
			return false
		}
	}
	return true
}

// FuzzApplyDeltas drives incremental maintenance with fuzz-chosen delta
// streams over small random int64 queries and asserts, after every batch,
// that ApplyDeltas agrees with a brute-force recompute over independently
// maintained factors — and that a batch the factor layer rejects is also
// rejected by the executor, leaving the maintained state untouched.  The
// raw bytes pick the target factor, the operation and the row cells, so
// duplicate rows, absent deletes and out-of-domain keys are all reached.
func FuzzApplyDeltas(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add(int64(7), []byte{255, 1, 9, 9, 0, 0, 0, 1, 2, 250, 4, 0, 0, 3})
	f.Add(int64(42), []byte{3, 2, 1})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		rng := rand.New(rand.NewSource(seed))
		d := semiring.Int()
		nvars := 2 + rng.Intn(2)
		doms := make([]int, nvars)
		for i := range doms {
			doms[i] = 1 + rng.Intn(3)
		}
		numFree := rng.Intn(nvars)
		aggs := make([]Aggregate[int64], nvars)
		for i := range aggs {
			switch {
			case i < numFree:
				aggs[i] = Free[int64]()
			case rng.Intn(2) == 0:
				aggs[i] = SemiringAgg(semiring.OpIntSum())
			default:
				aggs[i] = SemiringAgg(semiring.OpIntMax())
			}
		}
		var factors []*factor.Factor[int64]
		for i := 0; i < 2; i++ {
			arity := 1 + rng.Intn(min(2, nvars))
			vars := rng.Perm(nvars)[:arity]
			for i := 1; i < len(vars); i++ {
				for j := i; j > 0 && vars[j] < vars[j-1]; j-- {
					vars[j], vars[j-1] = vars[j-1], vars[j]
				}
			}
			factors = append(factors, factor.FromFunc(d, vars, doms, func([]int) int64 {
				if rng.Intn(3) == 0 {
					return 0
				}
				return int64(1 + rng.Intn(3))
			}))
		}
		for v := 0; v < nvars; v++ { // every variable must occur somewhere
			factors = append(factors, factor.FromFunc(d, []int{v}, doms, func([]int) int64 { return 1 }))
		}
		q := &Query[int64]{D: d, NVars: nvars, DomSizes: doms, NumFree: numFree,
			Aggs: aggs, Factors: factors}

		eng := NewEngine[int64](EngineOptions{Workers: 2})
		defer eng.Close()
		opts := DefaultOptions()
		opts.IndicatorProjections = rng.Intn(2) == 0
		opts.FilterOutput = rng.Intn(2) == 0
		opts.Workers = 1 + rng.Intn(3)
		prep, err := eng.PrepareCtx(context.Background(), q, opts)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()

		cur := append([]*factor.Factor[int64](nil), q.Factors...)
		for len(data) >= 3 {
			fi := int(data[0]) % len(cur)
			op := factor.DeltaInsert
			if data[1]%2 == 1 {
				op = factor.DeltaDelete
			}
			n := int(data[2])%3 + 1
			data = data[3:]
			fvars := cur[fi].Vars
			arity := len(fvars)
			if len(data) < n*(arity+1) {
				break
			}
			var rows []int32
			var vals []int64
			for r := 0; r < n; r++ {
				for c := 0; c < arity; c++ {
					// Mostly in-domain cells; one byte value in 16 escapes
					// the domain so range rejection is exercised too.
					cell := int32(data[c])
					if cell < 16 || doms[fvars[c]] == 0 {
						cell %= int32(doms[fvars[c]])
					}
					rows = append(rows, cell)
				}
				vals = append(vals, int64(data[arity])%4)
				data = data[arity+1:]
			}
			dl := factor.Delta[int64]{Op: op, Rows: rows}
			if op == factor.DeltaInsert {
				dl.Values = vals
			}

			nf, ferr := cur[fi].ApplyDelta(d, dl, factorDomSizes(q, cur[fi]))
			res, aerr := prep.ApplyDeltas(ctx, []Delta[int64]{
				{Factor: fi, Op: op, Rows: dl.Rows, Values: dl.Values}})
			if ferr != nil {
				if aerr == nil {
					t.Fatalf("executor accepted a batch the factor layer rejects (%v)", ferr)
				}
				continue // state must be untouched; later batches verify that
			}
			if aerr != nil {
				t.Fatalf("ApplyDeltas rejected a valid batch: %v", aerr)
			}
			cur[fi] = nf

			nq := *q
			nq.Factors = cur
			want, err := BruteForce(&nq)
			if err != nil {
				t.Fatalf("brute force: %v", err)
			}
			if !deltaMatches(d, res.Output, want) {
				t.Fatalf("ApplyDeltas (%s) diverged from recompute\nquery: doms=%v free=%d\ngot  %v\nwant %v",
					prep.DeltaStrategy(), doms, numFree, res.Output, want)
			}
		}
	})
}
