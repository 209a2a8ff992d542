package testutil

import (
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// Goroutines is a snapshot of the live goroutines' stacks, keyed by
// goroutine id.  The runtime never reuses an id, so the diff of a snapshot
// against a later one is exact: it names precisely the goroutines started
// in between and still alive, whatever else ran or exited meanwhile.
type Goroutines map[string]string

var goroutineHead = regexp.MustCompile(`^goroutine (\d+) `)

// SnapshotGoroutines records every live goroutine's stack.
func SnapshotGoroutines() Goroutines {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := Goroutines{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		if m := goroutineHead.FindStringSubmatch(g); m != nil {
			out[m[1]] = g
		}
	}
	return out
}

// Started returns the stacks of the goroutines alive now that were not
// alive at the snapshot.
func (before Goroutines) Started() []string {
	var out []string
	for id, stack := range SnapshotGoroutines() {
		if _, ok := before[id]; !ok {
			out = append(out, stack)
		}
	}
	return out
}

// exitYields bounds how often ExpectNoneStarted yields the processor to
// goroutines that have already signalled their exit: a pool worker's
// WaitGroup.Done releases Close before the worker's own return has run.
const exitYields = 1000

// ExpectNoneStarted fails t with the stack of every goroutine started since
// the snapshot and still alive.  It never sleeps: it only yields the
// processor, so a goroutine still returning from its last call gets to
// finish, while one parked on a channel, lock or timer is reported.
func (before Goroutines) ExpectNoneStarted(t testing.TB) {
	t.Helper()
	started := before.Started()
	for i := 0; len(started) > 0 && i < exitYields; i++ {
		runtime.Gosched()
		started = before.Started()
	}
	for _, stack := range started {
		t.Errorf("goroutine outlived the check:\n%s", stack)
	}
}
