package core

import (
	"bytes"
	"os"
	"os/exec"
	"runtime"
	"testing"
)

// poolWorkerEnv marks the child process of TestSequentialRunStartsNoPoolWorkers.
const poolWorkerEnv = "FAQ_CORE_SEQ_POOL_CHILD"

// poolWorkers counts the live persistent pool workers of every join.Pool in
// the process, by their goroutine stacks.
func poolWorkers() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("(*Pool).Grow.func1"))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestSequentialRunStartsNoPoolWorkers checks that the one-shot entry points
// with Workers = 1 run sequentially without building the default engine's
// runtime: a sequential Solve or InsideOut must leave no persistent pool
// worker behind.  The default runtime is process-wide and built once, so
// the check runs in a fresh child process at GOMAXPROCS 2 (where that pool
// would have a worker), where no earlier test can have built it.
func TestSequentialRunStartsNoPoolWorkers(t *testing.T) {
	if os.Getenv(poolWorkerEnv) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestSequentialRunStartsNoPoolWorkers$", "-test.cpu=2")
		cmd.Env = append(os.Environ(), poolWorkerEnv+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("child process: %v\n%s", err, out)
		}
		return
	}

	before := poolWorkers()
	q := triangleQuery(t, 4, [][]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	res, _, err := Solve(q, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := res.Scalar()
	res, err = InsideOut(q, []int{0, 1, 2}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Scalar(); got != want {
		t.Fatalf("InsideOut = %v, Solve = %v", got, want)
	}
	if got := poolWorkers(); got != before {
		t.Fatalf("Workers=1 started %d pool workers", got-before)
	}
}
