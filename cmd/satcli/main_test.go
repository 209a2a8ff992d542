package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"github.com/faqdb/faq/internal/testutil"
)

// TestSatcliSmoke counts the models of a tiny embedded DIMACS formula:
// (x1 ∨ ¬x2) ∧ (x2 ∨ x3) has 4 satisfying assignments — through the
// β-acyclic fast path, through the FAQ engine, and from stdin.
func TestSatcliSmoke(t *testing.T) {
	const formula = "c smoke test\np cnf 3 2\n1 -2 0\n2 3 0\n"
	cnfFile := testutil.WriteFile(t, t.TempDir(), "tiny.cnf", formula)
	for _, args := range [][]string{{"-count", cnfFile}, {"-count", "-faq", "-workers", "1", cnfFile}, {"-count"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, strings.NewReader(formula), &stdout, &stderr); code != 0 {
			t.Fatalf("satcli %v exited %d: %s", args, code, stderr.String())
		}
		if !strings.Contains(stdout.String(), "s mc 4") {
			t.Fatalf("satcli %v model count wrong, want 's mc 4':\n%s", args, stdout.String())
		}
	}
	if code := run([]string{"-faq"}, strings.NewReader(formula), io.Discard, io.Discard); code != 2 {
		t.Fatalf("-faq without -count exited %d, want 2", code)
	}
}
