package spec

import (
	"bytes"
	"testing"

	"github.com/faqdb/faq/internal/core"
)

// specSeeds are the seed corpus of both spec fuzz targets.  New seeds go
// at the end: the test names seed#N follow this order.
var specSeeds = []string{
	sample,
	"domain int\nvar a 3 free\nvar b 2 sum\nfactor b a\n1 2 = 7\n0 0 = -3\nend\n",
	"domain bool\nvar x 2 or\nvar y 2 prod\nfactor x y\n1 1 = true\n0 1 = 0\nend\n",
	"domain tropical\nvar x 4 min\nfactor x\n3 = inf\n2 = 1.5\nend\n",
	"use g\nvar a 9 sum\nvar b 9 sum\nfactor a b @0\nfactor b a @1\n",
	"var a 2147483648 sum\nfactor a\n2147483647 = 1\nend\n",
	"var a 2 sum\nfactor a a\n0 0 = 1\nend\n",
	"var a 2 sum\nfactor a\n0 = 1\n0 = 2\nend\n",
	"var a 1 free\nvar b 1 sum\nvar c 1 free\nfactor a\n",
	// CRLF endings, a '#' comment and a blank line inside a block, and a
	// last line without a newline.
	"var a 2 sum\r\nvar b 3 sum\r\nfactor b a\r\n2 1 = 4\r\n# skipped\r\n\r\n0 0 = 1 # trailing\r\nend",
	// U+00A0 and U+0085 separate tokens, as in strings.Fields.
	"var a 2 sum\nvar b 2 sum\nfactor a b\n1\u00a00 = 2\n0\u00851\u00a0=\u00a03\nend\n",
	// The int32 edge: the first row stores, the second is a spec:<line> error.
	"var a 2147483648 sum\nfactor a\n2147483647 = 1\n2147483648 = 1\nend\n",
	"var a 2 sum\nfactor a\n-2147483649 = 0\nend\n",
}

// FuzzSpecParse feeds arbitrary bytes through ParseDocument and, for a
// document that parses, through every domain builder with StubResolver
// (the document's domain is overridden per builder, so each value grammar
// and aggregate table sees every input).  Each step must return an error
// or a query that passes Validate, and none may panic.  Spec text is what
// faqd accepts from the network, so this is a trust boundary.  Nothing
// here plans: planning cost is bounded separately.
func FuzzSpecParse(f *testing.F) {
	for _, s := range specSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := ParseDocument(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, dom := range Domains {
			d := *doc
			d.Domain = dom
			switch dom {
			case DomainFloat:
				q, _, err := d.BuildFloat(StubResolver[float64]())
				checkBuilt(t, dom, q, err)
			case DomainInt:
				q, _, err := d.BuildInt(StubResolver[int64]())
				checkBuilt(t, dom, q, err)
			case DomainBool:
				q, _, err := d.BuildBool(StubResolver[bool]())
				checkBuilt(t, dom, q, err)
			case DomainTropical:
				q, _, err := d.BuildTropical(StubResolver[float64]())
				checkBuilt(t, dom, q, err)
			}
		}
	})
}

// checkBuilt fails unless a build returned an error or a query that
// passes Validate.
func checkBuilt[V any](t *testing.T, dom string, q *core.Query[V], err error) {
	t.Helper()
	if err != nil {
		return
	}
	if q == nil {
		t.Fatalf("%s build returned neither a query nor an error", dom)
	}
	if err := q.Validate(); err != nil {
		t.Fatalf("%s build returned a query that fails Validate: %v", dom, err)
	}
}
