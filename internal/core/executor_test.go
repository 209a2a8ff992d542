package core

import (
	"context"
	"strings"
	"testing"

	"github.com/faqdb/faq/internal/join"
	"github.com/faqdb/faq/internal/testutil"
)

// poolWorkers counts the persistent join.Pool workers among stacks.
func poolWorkers(stacks []string) int {
	n := 0
	for _, s := range stacks {
		if strings.Contains(s, "join.NewPool.func") {
			n++
		}
	}
	return n
}

// leakTriangle is a triangle query large enough that its scans split into
// blocks once join.MinParallelRows is lowered.
func leakTriangle(t *testing.T) *Query[float64] {
	var edges [][]int
	for a := 0; a < 24; a++ {
		for b := 0; b < 24; b++ {
			if (a*7+b*3)%5 != 0 {
				edges = append(edges, []int{a, b})
			}
		}
	}
	return triangleQuery(t, 24, edges)
}

// TestSequentialEngineStartsNoPoolWorkers checks that an engine of width 1
// runs every scan on the calling goroutine: preparing and running on it,
// at every per-run Workers value, starts no goroutine at all.
func TestSequentialEngineStartsNoPoolWorkers(t *testing.T) {
	old := join.MinParallelRows
	join.MinParallelRows = 1
	defer func() { join.MinParallelRows = old }()
	q := leakTriangle(t)

	before := testutil.SnapshotGoroutines()
	e := NewEngine[float64](EngineOptions{Workers: 1})
	for _, w := range []int{0, 2, 1} {
		opts := DefaultOptions()
		opts.Workers = w
		prep, err := e.PrepareCtx(context.Background(), q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := prep.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if started := before.Started(); len(started) != 0 {
		t.Fatalf("an engine of width 1 started %d goroutines:\n%s",
			len(started), strings.Join(started, "\n\n"))
	}
	e.Close()
}

// TestEngineCloseLeavesNoGoroutines checks, by an exact stack diff, that an
// engine of width 4 starts its three pool workers, that runs at per-run
// Workers 0, 2 and 1 all agree, and that Close stops every goroutine the
// engine started.  A query prepared before Close still runs afterwards,
// sequentially, and leaves nothing behind either.
func TestEngineCloseLeavesNoGoroutines(t *testing.T) {
	old := join.MinParallelRows
	join.MinParallelRows = 1
	defer func() { join.MinParallelRows = old }()
	q := leakTriangle(t)

	before := testutil.SnapshotGoroutines()
	e := NewEngine[float64](EngineOptions{Workers: 4})
	if n := poolWorkers(before.Started()); n != 3 {
		t.Fatalf("engine of width 4 started %d pool workers, want 3", n)
	}
	var preps []*PreparedQuery[float64]
	var want float64
	var blocks int64
	for i, w := range []int{0, 2, 1} {
		opts := DefaultOptions()
		opts.Workers = w
		prep, err := e.PrepareCtx(context.Background(), q, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := prep.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = res.Scalar()
		} else if got := res.Scalar(); got != want {
			t.Fatalf("Workers=%d: %v, Workers=0: %v", w, got, want)
		}
		blocks += res.Stats.Join.Blocks
		preps = append(preps, prep)
	}
	if blocks == 0 {
		t.Fatal("no scan ran in blocks: the pool was never exercised")
	}
	e.Close()
	before.ExpectNoneStarted(t)

	after := testutil.SnapshotGoroutines()
	for _, prep := range preps {
		res, err := prep.Run(context.Background())
		if err != nil {
			t.Fatalf("run after Close: %v", err)
		}
		if got := res.Scalar(); got != want {
			t.Fatalf("run after Close: %v, want %v", got, want)
		}
	}
	after.ExpectNoneStarted(t)
}
