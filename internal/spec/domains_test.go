package spec

import (
	"math"
	"strings"
	"testing"

	"github.com/faqdb/faq/internal/core"
)

func TestParseDocumentDomainDirective(t *testing.T) {
	doc, err := ParseDocument(strings.NewReader("domain int\nvar a 2 sum\nfactor a\n0 = 1\n1 = 2\nend\n"))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Domain != DomainInt {
		t.Fatalf("domain %q, want int", doc.Domain)
	}
	if doc.NumFree() != 0 || len(doc.Vars) != 1 || len(doc.Blocks) != 1 {
		t.Fatalf("document structure: %+v", doc)
	}

	// No directive means float.
	doc, err = ParseDocument(strings.NewReader("var a 2 sum\nfactor a\n0 = 1\nend\n"))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Domain != DomainFloat {
		t.Fatalf("default domain %q, want float", doc.Domain)
	}
}

func TestParseDocumentDomainErrors(t *testing.T) {
	cases := map[string]string{
		"unknown domain":     "domain quantum\nvar a 2 sum\nfactor a\n0 = 1\nend\n",
		"duplicate domain":   "domain int\ndomain int\nvar a 2 sum\nfactor a\n0 = 1\nend\n",
		"domain after var":   "var a 2 sum\ndomain int\nfactor a\n0 = 1\nend\n",
		"bad directive form": "domain\nvar a 2 sum\nfactor a\n0 = 1\nend\n",
	}
	for name, input := range cases {
		if _, err := ParseDocument(strings.NewReader(input)); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}

func TestBuildInt(t *testing.T) {
	doc, err := ParseDocument(strings.NewReader(
		"domain int\nvar a 2 sum\nvar b 2 max\nfactor b a\n0 1 = 3\n1 0 = 5\nend\n"))
	if err != nil {
		t.Fatal(err)
	}
	q, layout, err := doc.BuildInt()
	if err != nil {
		t.Fatal(err)
	}
	if q.D.Name != "int64" || q.NVars != 2 {
		t.Fatalf("query: domain %q, n=%d", q.D.Name, q.NVars)
	}
	// Declaration order (b, a) must surface in the layout; storage is sorted.
	if len(layout) != 1 || layout[0][0] != 1 || layout[0][1] != 0 {
		t.Fatalf("layout %v, want [[1 0]]", layout)
	}
	// Row "0 1" means b=0, a=1 → stored tuple (a=1, b=0).
	if v, ok := q.Factors[0].Value([]int{1, 0}); !ok || v != 3 {
		t.Fatalf("ψ(a=1,b=0) = %v, %v, want 3", v, ok)
	}
	got, err := core.BruteForceScalar(q)
	if err != nil {
		t.Fatal(err)
	}
	// Σ_a max_b ψ: a=0 → max(0, 5) = 5; a=1 → max(3, 0) = 3; total 8.
	if got != 8 {
		t.Fatalf("value %d, want 8", got)
	}
}

func TestBuildBool(t *testing.T) {
	doc, err := ParseDocument(strings.NewReader(
		"domain bool\nvar a 2 or\nvar b 2 or\nfactor a b\n0 1 = true\n1 0 = 1\n1 1 = false\nend\n"))
	if err != nil {
		t.Fatal(err)
	}
	q, _, err := doc.BuildBool()
	if err != nil {
		t.Fatal(err)
	}
	// false values are the additive identity and are dropped at build.
	if q.Factors[0].Size() != 2 {
		t.Fatalf("factor keeps %d rows, want 2 (false dropped)", q.Factors[0].Size())
	}
	got, err := core.BruteForceScalar(q)
	if err != nil {
		t.Fatal(err)
	}
	if got != true {
		t.Fatalf("∨∨ψ = %v, want true", got)
	}
}

func TestBuildTropical(t *testing.T) {
	// Two-edge path: min_{a,b,c} ψ(a,b) + ψ(b,c) — a shortest path.
	doc, err := ParseDocument(strings.NewReader(`domain tropical
var a 2 min
var b 2 min
var c 2 min
factor a b
0 0 = 1.5
0 1 = 4
end
factor b c
0 1 = 2
1 0 = inf
end
`))
	if err != nil {
		t.Fatal(err)
	}
	q, _, err := doc.BuildTropical()
	if err != nil {
		t.Fatal(err)
	}
	if q.D.Name != "tropical" {
		t.Fatalf("domain %q", q.D.Name)
	}
	// "inf" is the tropical zero and is dropped from the listing.
	if q.Factors[1].Size() != 1 {
		t.Fatalf("factor 1 keeps %d rows, want 1 (inf dropped)", q.Factors[1].Size())
	}
	got, err := core.BruteForceScalar(q)
	if err != nil {
		t.Fatal(err)
	}
	// Only supported route: a=0,b=0,c=1 → 1.5 + 2 = 3.5.
	if got != 3.5 {
		t.Fatalf("shortest path %v, want 3.5", got)
	}
	// Solve agrees (tropical runs through the full planner/executor stack).
	res, _, err := core.Solve(q, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(res.Scalar()) != math.Float64bits(got) {
		t.Fatalf("Solve %v != BruteForce %v", res.Scalar(), got)
	}
}

func TestBuildRejectsForeignAggregates(t *testing.T) {
	cases := map[string]string{
		"min in int":       "domain int\nvar a 2 min\nfactor a\n0 = 1\nend\n",
		"sum in bool":      "domain bool\nvar a 2 sum\nfactor a\n0 = 1\nend\n",
		"or in float":      "var a 2 or\nfactor a\n0 = 1\nend\n",
		"sum in tropical":  "domain tropical\nvar a 2 sum\nfactor a\n0 = 1\nend\n",
		"int float weight": "domain int\nvar a 2 sum\nfactor a\n0 = 1.5\nend\n",
		"bool bad weight":  "domain bool\nvar a 2 or\nfactor a\n0 = 2\nend\n",
	}
	for name, input := range cases {
		doc, err := ParseDocument(strings.NewReader(input))
		if err != nil {
			t.Errorf("%s: parse failed early: %v", name, err)
			continue
		}
		switch doc.Domain {
		case DomainFloat:
			_, _, err = doc.BuildFloat()
		case DomainInt:
			_, _, err = doc.BuildInt()
		case DomainBool:
			_, _, err = doc.BuildBool()
		case DomainTropical:
			_, _, err = doc.BuildTropical()
		}
		if err == nil {
			t.Errorf("%s: expected a build error", name)
		}
	}
}

func TestBuildRequiresMatchingDomain(t *testing.T) {
	doc, err := ParseDocument(strings.NewReader("domain int\nvar a 2 sum\nfactor a\n0 = 1\nend\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := doc.BuildFloat(); err == nil {
		t.Fatal("BuildFloat accepted an int document")
	}
	_, err = parseFloat("domain int\nvar a 2 sum\nfactor a\n0 = 1\nend\n")
	if err == nil || !strings.Contains(err.Error(), `"int"`) {
		t.Fatalf("float-only parse of an int document: err = %v, want one naming the domain", err)
	}
}

// TestIntFloatShapeKeysMatch pins the cross-domain plan-sharing invariant
// the multi-domain server relies on: the same query text instantiated over
// float and int produces identical shape keys, so one plan-LRU entry
// serves both value types through core.Retype.
func TestIntFloatShapeKeysMatch(t *testing.T) {
	text := "var x 4 free\nvar y 4 sum\nvar z 4 max\nfactor x y\n0 0 = 1\nend\nfactor y z\n0 0 = 1\nend\n"
	qf, err := parseFloat(text)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := ParseDocument(strings.NewReader("domain int\n" + text))
	if err != nil {
		t.Fatal(err)
	}
	qi, _, err := doc.BuildInt()
	if err != nil {
		t.Fatal(err)
	}
	if fk, ik := qf.Shape().Key(), qi.Shape().Key(); fk != ik {
		t.Fatalf("shape keys differ:\nfloat: %s\nint:   %s", fk, ik)
	}
}
