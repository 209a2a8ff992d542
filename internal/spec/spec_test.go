package spec

import (
	"context"
	"strings"
	"testing"

	"github.com/faqdb/faq/internal/core"
)

const sample = `
# triangle-ish query
var a 2 free
var b 2 sum
var c 3 max
factor a b
0 0 = 1
0 1 = 2
1 1 = 3    # comment after a row
end
factor c b   # unsorted variable order
2 0 = 4
0 1 = 5
end
`

// parseFloat parses a float-domain spec and builds it, the path the
// float-only tools (faqrun, faqplan) take.
func parseFloat(text string) (*core.Query[float64], error) {
	doc, err := ParseDocument(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	q, _, err := doc.BuildFloat()
	return q, err
}

func TestParseSample(t *testing.T) {
	q, err := parseFloat(sample)
	if err != nil {
		t.Fatal(err)
	}
	if q.NVars != 3 || q.NumFree != 1 {
		t.Fatalf("n=%d f=%d", q.NVars, q.NumFree)
	}
	if q.Names[2] != "c" || q.DomSizes[2] != 3 {
		t.Fatal("variable metadata wrong")
	}
	if len(q.Factors) != 2 {
		t.Fatalf("%d factors", len(q.Factors))
	}
	// Second factor was declared (c, b) = vars (2, 1); stored sorted (1, 2)
	// with columns swapped: row "2 0" means c=2, b=0 → tuple (b=0, c=2).
	f := q.Factors[1]
	if f.Vars[0] != 1 || f.Vars[1] != 2 {
		t.Fatalf("factor vars = %v", f.Vars)
	}
	if v, ok := f.Value([]int{0, 2}); !ok || v != 4 {
		t.Fatalf("f(b=0,c=2) = %v, %v", v, ok)
	}
	// End-to-end: the parsed query must evaluate.
	eng := core.NewEngine[float64](core.EngineOptions{})
	defer eng.Close()
	prep, err := eng.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.BruteForce(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Output.Equal(q.D, want) {
		t.Fatal("parsed query evaluates wrong")
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"bad var arity":      "var a 2\n",
		"bad dom":            "var a x free\n",
		"bad agg":            "var a 2 avg\n",
		"dup var":            "var a 2 sum\nvar a 2 sum\n",
		"free after bound":   "var a 2 sum\nvar b 2 free\nfactor a b\n0 0 = 1\nend\n",
		"unknown factor var": "var a 2 sum\nfactor z\n0 = 1\nend\n",
		"row outside block":  "var a 2 sum\n0 = 1\n",
		"nested factor":      "var a 2 sum\nfactor a\nfactor a\n",
		"bad row arity":      "var a 2 sum\nfactor a\n0 0 = 1\nend\n",
		"bad weight":         "var a 2 sum\nfactor a\n0 = x\nend\n",
		"unterminated":       "var a 2 sum\nfactor a\n0 = 1\n",
		"stray end":          "var a 2 sum\nend\n",
		"uncovered variable": "var a 2 sum\nvar b 2 sum\nfactor a\n0 = 1\nend\n",
	}
	for name, input := range cases {
		if _, err := parseFloat(input); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}

func TestParseProductAggregate(t *testing.T) {
	input := `
var a 2 sum
var b 2 prod
factor a b
0 0 = 1
0 1 = 1
1 0 = 1
end
`
	q, err := parseFloat(input)
	if err != nil {
		t.Fatal(err)
	}
	if q.Aggs[1].Kind != core.KindProduct {
		t.Fatal("b should be a product variable")
	}
	got, err := core.BruteForceScalar(q)
	if err != nil {
		t.Fatal(err)
	}
	// Σ_a Π_b ψ: a=0 → 1·1 = 1; a=1 → 1·0 = 0; total 1.
	if got != 1 {
		t.Fatalf("value = %v, want 1", got)
	}
}

// TestParseRejectsMinAggregate pins the lawfulness regression: "min" over
// the float spec format must fail at parse time with an error routing users
// to the tropical semiring, instead of compiling to the unlawful OpFloatMin.
func TestParseRejectsMinAggregate(t *testing.T) {
	_, err := parseFloat("var a 2 min\nfactor a\n0 = 1\nend\n")
	if err == nil {
		t.Fatal("spec with a min aggregate should fail to parse")
	}
	if !strings.Contains(err.Error(), "tropical") {
		t.Fatalf("min rejection does not route to the tropical semiring: %v", err)
	}
}
