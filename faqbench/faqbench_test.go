package main

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// goroutines maps each live goroutine's id to its stack.
func goroutines() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := map[string]string{}
	head := regexp.MustCompile(`^goroutine (\d+) `)
	for _, g := range strings.Split(string(buf), "\n\n") {
		if m := head.FindStringSubmatch(g); m != nil {
			out[m[1]] = g
		}
	}
	return out
}

// leaked returns the stacks of goroutines that did not exist in before,
// waiting up to a few seconds for exiting ones (closed connections end
// their goroutines asynchronously).
func leaked(before map[string]string) []string {
	deadline := time.Now().Add(5 * time.Second)
	for {
		var extra []string
		for id, stack := range goroutines() {
			if _, ok := before[id]; !ok {
				extra = append(extra, stack)
			}
		}
		if len(extra) == 0 || time.Now().After(deadline) {
			return extra
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// checkClean asserts that a run left no goroutine behind and removed its
// data directory (the run itself checks that the listener is closed).
func checkClean(t *testing.T, before map[string]string, out string) {
	t.Helper()
	for _, stack := range leaked(before) {
		t.Errorf("goroutine outlived the run:\n%s", stack)
	}
	dirs, err := filepath.Glob(filepath.Join(out, "faqd-data-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 0 {
		t.Errorf("data directories left behind: %v", dirs)
	}
}

// TestWorkloadsRunCleanly runs every workload briefly, traced and not:
// every check passes with no failed operation, and the run leaves no
// goroutine, listener or data directory behind.
func TestWorkloadsRunCleanly(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "", true: "/trace"}[trace], func(t *testing.T) {
				out := t.TempDir()
				before := goroutines()
				o := options{workload: name, seed: 7, seconds: 1, trace: trace, clients: 2, out: out}
				res, err := run(context.Background(), o, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := len(perLayer)
				if !trace {
					want = 8
				}
				if len(res.Metrics) != want {
					t.Errorf("%d metrics, want %d", len(res.Metrics), want)
				}
				if trace {
					spans, err := filepath.Glob(filepath.Join(out, "spans-*.jsonl"))
					if err != nil || len(spans) != 1 {
						t.Errorf("span files %v (%v), want one", spans, err)
					}
				}
				checkClean(t, before, out)
			})
		}
	}
}

// TestCancelledRunShutsDown cancels a run in its measured phase — what
// SIGINT and SIGTERM do — and expects the normal shutdown path: an error,
// and nothing left behind.
func TestCancelledRunShutsDown(t *testing.T) {
	out := t.TempDir()
	before := goroutines()
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(4*time.Second, cancel)
	defer timer.Stop()
	o := options{workload: "serve-small", seed: 3, seconds: 30, clients: 2, out: out}
	start := time.Now()
	_, err := run(ctx, o, io.Discard)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run returned %v, want context.Canceled", err)
	}
	if took := time.Since(start); took > 15*time.Second {
		t.Errorf("cancelled run took %v to stop", took)
	}
	checkClean(t, before, out)
	if _, err := os.Stat(out); err != nil {
		t.Fatal(err)
	}
}
