package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"github.com/faqdb/faq/internal/testutil"
)

// querySpec is a tiny two-factor sum-product query with one free variable:
// φ(x) = Σ_y Σ_z R(x,y)·S(y,z).
const querySpec = `# smoke-test query
var x 2 free
var y 3 sum
var z 2 sum
factor x y
0 0 = 1
0 1 = 2
1 2 = 3
end
factor y z
0 0 = 1
1 1 = 1
2 0 = 4
end
`

// TestFaqrunSmoke drives the evaluator CLI in-process on an embedded spec,
// then checks that a bad flag combination exits 2 naming the flag.
func TestFaqrunSmoke(t *testing.T) {
	spec := testutil.WriteFile(t, t.TempDir(), "query.faq", querySpec)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-spec", spec, "-workers", "2"}, &stdout, &stderr); code != 0 {
		t.Fatalf("faqrun exited %d: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"ordering:", "stats:", "output: 2 tuples"} {
		if !strings.Contains(out, want) {
			t.Fatalf("faqrun output missing %q:\n%s", want, out)
		}
	}
	// φ(0) = 1·1 + 2·1 = 3 and φ(1) = 3·4 = 12.
	if !strings.Contains(out, "[0] = 3") || !strings.Contains(out, "[1] = 12") {
		t.Fatalf("faqrun computed wrong values:\n%s", out)
	}

	stderr.Reset()
	if code := run([]string{"-spec", spec, "-workers", "-1"}, io.Discard, &stderr); code != 2 {
		t.Fatalf("-workers -1 exited %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-workers") {
		t.Fatalf("usage error does not name the flag:\n%s", stderr.String())
	}
}

// TestValidateFlagCombinations is the table test for the config validator:
// bad combinations must produce an error (and main exits 2), instead of the
// undefined behavior negative worker counts used to produce.
func TestValidateFlagCombinations(t *testing.T) {
	base := config{specFile: "q.faq", mode: "solve", repeat: 1, maxRows: 50, workers: 0}
	cases := []struct {
		name    string
		mutate  func(c config) config
		wantErr string
	}{
		{"default-ok", func(c config) config { return c }, ""},
		{"prepared-ok", func(c config) config { c.mode = "prepared"; c.repeat = 10; return c }, ""},
		{"sequential-ok", func(c config) config { c.workers = 1; return c }, ""},
		{"missing-spec", func(c config) config { c.specFile = ""; return c }, "-spec"},
		{"negative-workers", func(c config) config { c.workers = -1; return c }, "-workers"},
		{"unknown-mode", func(c config) config { c.mode = "turbo"; return c }, "unknown -mode"},
		{"zero-repeat", func(c config) config { c.repeat = 0; return c }, "-repeat"},
		{"negative-repeat", func(c config) config { c.repeat = -3; return c }, "-repeat"},
		{"repeat-without-prepared", func(c config) config { c.repeat = 5; return c }, "-mode prepared"},
		{"negative-max-rows", func(c config) config { c.maxRows = -1; return c }, "-max-rows"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.mutate(base).validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestParseOrder(t *testing.T) {
	got, err := parseOrder(" 2, 0 ,1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 2 || got[1] != 0 || got[2] != 1 {
		t.Fatalf("parseOrder = %v", got)
	}
	if _, err := parseOrder("1,x"); err == nil {
		t.Fatal("junk ordering should fail")
	}
}
