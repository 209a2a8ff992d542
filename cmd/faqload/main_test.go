package main

import (
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/faqdb/faq/internal/server"
	"github.com/faqdb/faq/internal/testutil"
)

// TestFaqloadSmokeAndLoad drives both faqload modes against an in-process
// faqd server: the smoke handshake, then a short verified load run that
// writes the JSON benchmark report.
func TestFaqloadSmokeAndLoad(t *testing.T) {
	s, err := server.New(server.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	dir := t.TempDir()
	jsonOut := dir + "/bench.json"

	smokeCfg := config{addr: ts.URL, concurrency: 1, duration: time.Second, dom: 8, smoke: true, wait: 5 * time.Second}
	out := testutil.CaptureStdout(t, func() {
		if err := run(smokeCfg, os.Stdout); err != nil {
			t.Errorf("smoke: %v", err)
		}
	})
	if !strings.Contains(out, "smoke ok") {
		t.Fatalf("smoke output:\n%s", out)
	}

	loadCfg := config{
		addr:        ts.URL,
		shapes:      "triangle,triangle-fresh,chain",
		concurrency: 2,
		duration:    150 * time.Millisecond,
		dom:         8,
		jsonOut:     jsonOut,
		wait:        5 * time.Second,
	}
	out = testutil.CaptureStdout(t, func() {
		if err := run(loadCfg, os.Stdout); err != nil {
			t.Errorf("load: %v", err)
		}
	})
	for _, want := range []string{"shape", "triangle-fresh", "statsz: plan hits"} {
		if !strings.Contains(out, want) {
			t.Fatalf("load output missing %q:\n%s", want, out)
		}
	}
	buf, err := os.ReadFile(jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"tool": "faqload"`, `"shape": "chain"`, `"plan_cache_hits"`} {
		if !strings.Contains(string(buf), want) {
			t.Fatalf("bench JSON missing %q:\n%s", want, buf)
		}
	}

	// Under load, same-shape requests must have hit the cache: hits ≫ misses.
	st := s.Engine().Stats()
	if st.PlanCacheHits+st.PlanCoalesced <= st.PlanCacheMisses {
		t.Fatalf("plan cache not amortizing: %+v", st)
	}
	if cfg := (config{}); cfg.validate() == nil {
		t.Fatal("empty config validated")
	}
}

// TestBuildWorkloadRejectsUnknown covers the workload-name error path.
func TestBuildWorkloadRejectsUnknown(t *testing.T) {
	if _, err := buildWorkload("bogus", 8); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
