package spec

import (
	"bufio"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

func TestFieldsMatchStringsFields(t *testing.T) {
	lines := []string{
		"", " ", "a", " a  b\t", "0 1 = 2", "\t\v\f\r x\r",
		"1\u00a00 = 2", "0\u00851", "a\u2028b", "\u3000a\u3000",
		"\xff 1", "1 \xc2", "\xc2\xa0", "x\u200by", "\u00e9 = 1",
	}
	for _, line := range lines {
		want := strings.Fields(line)
		if got := appendFields(nil, line); !slices.Equal(got, want) {
			t.Errorf("appendFields(%q) = %q, strings.Fields = %q", line, got, want)
		}
		// The buffer's earlier tokens survive, on both the ASCII and the
		// strings.Fields path.
		got := appendFields([]string{"prev"}, line)
		if !slices.Equal(got, append([]string{"prev"}, want...)) {
			t.Errorf("appendFields(prev, %q) = %q", line, got)
		}
	}
}

func TestParseCRLFCommentsAndLastLine(t *testing.T) {
	text := "var a 3 sum\r\nvar b 2 sum\r\nfactor b a\r\n1 2 = 4\r\n# a comment line\r\n\r\n" +
		"0 1 = 5 # after a row\r\n  \t\r\nend"
	doc, err := ParseDocument(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	blk := doc.Blocks[0]
	if !slices.Equal(blk.Rows, []int32{1, 2, 0, 1}) || !slices.Equal(blk.Values, []string{"4", "5"}) {
		t.Fatalf("rows %v values %q", blk.Rows, blk.Values)
	}
	q, _, err := doc.BuildFloat()
	if err != nil {
		t.Fatal(err)
	}
	// Declared (b, a), stored (a, b): row "1 2" is b=1, a=2.
	if v, ok := q.Factors[0].Value([]int{2, 1}); !ok || v != 4 {
		t.Fatalf("ψ(a=2,b=1) = %v, %v, want 4", v, ok)
	}

	// A bad weight after comment and blank lines names its own line.
	bad := strings.Replace(text, "= 5", "= five", 1)
	doc, err = ParseDocument(strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := doc.BuildFloat(); err == nil || !strings.HasPrefix(err.Error(), "spec:7:") {
		t.Fatalf("err = %v, want a spec:7 error", err)
	}
}

func TestParseUnicodeWhitespace(t *testing.T) {
	doc, err := ParseDocument(strings.NewReader(
		"var a 2 sum\nvar b 2 sum\nfactor a b\n1\u00a00 = 2\n0\u00851\u00a0=\u00a03\nend\n"))
	if err != nil {
		t.Fatal(err)
	}
	if blk := doc.Blocks[0]; !slices.Equal(blk.Rows, []int32{1, 0, 0, 1}) || !slices.Equal(blk.Values, []string{"2", "3"}) {
		t.Fatalf("rows %v values %q", blk.Rows, blk.Values)
	}
}

func TestParseInt32Range(t *testing.T) {
	doc, err := ParseDocument(strings.NewReader(
		"var a 2147483648 sum\nfactor a\n2147483647 = 1\n-2147483648 = 1\nend\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.Blocks[0].Rows; !slices.Equal(got, []int32{2147483647, -2147483648}) {
		t.Fatalf("rows %v", got)
	}
	for _, tc := range []struct{ text, line string }{
		{"var a 2147483648 sum\nfactor a\n2147483647 = 1\n2147483648 = 1\nend\n", "spec:4:"},
		{"var a 2 sum\nvar b 2 sum\nfactor a b\n0 -2147483649 = 0\nend\n", "spec:4:"},
	} {
		_, err := ParseDocument(strings.NewReader(tc.text))
		if !errors.Is(err, errTupleRange) || !strings.HasPrefix(err.Error(), tc.line) {
			t.Errorf("err = %v, want an int32-range error at %s", err, tc.line)
		}
	}
}

// TestParseLongLine pins the removal of the line cap: a row longer than
// the 4 MiB the retired Scanner accepted parses.
func TestParseLongLine(t *testing.T) {
	text := "var a 2 sum\nfactor a\n1" + strings.Repeat(" ", 5<<20) + "= 2\nend\n"
	doc, err := ParseDocument(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if blk := doc.Blocks[0]; !slices.Equal(blk.Rows, []int32{1}) || !slices.Equal(blk.Values, []string{"2"}) {
		t.Fatalf("rows %v values %q", blk.Rows, blk.Values)
	}
	if _, err := refParseDocument(strings.NewReader(text)); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("retired parser: err = %v, want bufio.ErrTooLong", err)
	}
}

// rowsSpec writes a three-block float spec with n rows per block, the
// last block declared against the stored column order.
func rowsSpec(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "var x %d sum\nvar y %d sum\nvar z %d sum\n", n, n, n)
	for _, vars := range []string{"x y", "y z", "z x"} {
		fmt.Fprintf(&b, "factor %s\n", vars)
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "%d %d = %d.5\n", i, (i*7+3)%n, i%5+1)
		}
		b.WriteString("end\n")
	}
	return b.String()
}

// TestParseAllocsIndependentOfRows is the allocation guard of the spec
// path: parsing and building 1,000 rows per block may cost at most 64
// allocations more than 10 rows per block, so no listed tuple allocates
// on its own (the retired path made about four allocations per row).
func TestParseAllocsIndependentOfRows(t *testing.T) {
	allocs := func(n int) float64 {
		text := rowsSpec(n)
		return testing.AllocsPerRun(10, func() {
			doc, err := ParseDocument(strings.NewReader(text))
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := doc.BuildFloat(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10), allocs(1000)
	t.Logf("allocations: %.0f at 10 rows per block, %.0f at 1,000", small, large)
	if large-small > 64 {
		t.Fatalf("1,000 rows per block cost %.0f allocations, 10 rows %.0f: more than 64 apart", large, small)
	}
}
