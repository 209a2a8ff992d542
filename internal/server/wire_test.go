package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"

	"github.com/faqdb/faq/internal/wire"
)

// pairSpec is Σ-style two-variable spec text for one domain, with the
// factor block declared in *unsorted* variable order (y x) so both decode
// paths must apply the declaration-order permutation.
func pairSpec(domain, agg string) string {
	var b strings.Builder
	if domain != "float" {
		fmt.Fprintf(&b, "domain %s\n", domain)
	}
	fmt.Fprintf(&b, "var x 4 %s\nvar y 4 %s\n", agg, agg)
	b.WriteString("factor y x\n0 1 = 1\nend\n")
	return b.String()
}

// TestBinaryAndJSONAgreePerDomain is the cross-encoding acceptance test:
// for every value domain, shipping the same fresh factor data as JSON
// "factors" and as a binary wire stream must produce bit-identical
// results.
func TestBinaryAndJSONAgreePerDomain(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	fresh := FactorData{
		// Columns in declaration order (y, x).
		Tuples: [][]int{{0, 1}, {1, 2}, {2, 0}, {3, 3}},
		Values: []float64{2, 3, 5, 1},
	}
	boolFresh := FactorData{Tuples: fresh.Tuples, Values: []float64{1, 0, 1, 1}}

	cases := []struct {
		domain, agg string
		data        FactorData
		wireDom     wire.Domain
		check       func(t *testing.T, jr, br *QueryResponse)
	}{
		{"float", "sum", fresh, wire.DomainFloat, func(t *testing.T, jr, br *QueryResponse) {
			jv, err := jr.FloatValue()
			if err != nil {
				t.Fatal(err)
			}
			bv, err := br.FloatValue()
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(jv) != math.Float64bits(bv) || jv != 11 {
				t.Fatalf("json %v, binary %v, want 11 for both", jv, bv)
			}
		}},
		{"int", "sum", fresh, wire.DomainInt, func(t *testing.T, jr, br *QueryResponse) {
			jv, err := jr.IntValue()
			if err != nil {
				t.Fatal(err)
			}
			bv, err := br.IntValue()
			if err != nil {
				t.Fatal(err)
			}
			if jv != bv || jv != 11 {
				t.Fatalf("json %d, binary %d, want 11 for both", jv, bv)
			}
		}},
		{"bool", "or", boolFresh, wire.DomainBool, func(t *testing.T, jr, br *QueryResponse) {
			jv, err := jr.BoolValue()
			if err != nil {
				t.Fatal(err)
			}
			bv, err := br.BoolValue()
			if err != nil {
				t.Fatal(err)
			}
			if jv != bv || jv != true {
				t.Fatalf("json %v, binary %v, want true for both", jv, bv)
			}
		}},
		{"tropical", "min", fresh, wire.DomainTropical, func(t *testing.T, jr, br *QueryResponse) {
			jv, err := jr.FloatValue()
			if err != nil {
				t.Fatal(err)
			}
			bv, err := br.FloatValue()
			if err != nil {
				t.Fatal(err)
			}
			// min over the shipped costs {2, 3, 5, 1} is 1.
			if math.Float64bits(jv) != math.Float64bits(bv) || jv != 1 {
				t.Fatalf("json %v, binary %v, want 1 for both", jv, bv)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.domain, func(t *testing.T) {
			specText := pairSpec(tc.domain, tc.agg)
			jr, err := c.Query(ctx, &QueryRequest{Spec: specText, Factors: []FactorData{tc.data}})
			if err != nil {
				t.Fatalf("json query: %v", err)
			}
			br, err := c.QueryWire(ctx, &QueryRequest{Spec: specText, Factors: []FactorData{tc.data}}, tc.wireDom)
			if err != nil {
				t.Fatalf("binary query: %v", err)
			}
			if jr.Domain != tc.domain || br.Domain != tc.domain {
				t.Fatalf("response domains %q / %q, want %q", jr.Domain, br.Domain, tc.domain)
			}
			tc.check(t, jr, br)
		})
	}
}

// TestBinaryInt64Precision proves the binary encoding carries int64 values
// JSON cannot: a count beyond 2^53 survives exactly.
func TestBinaryInt64Precision(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 1})
	big := int64(1)<<60 + 3
	resp, err := c.QueryFrames(context.Background(),
		&QueryRequest{Spec: "domain int\nvar x 2 sum\nfactor x\n0 = 1\nend\n"},
		[]*wire.Frame{{Domain: wire.DomainInt, Arity: 1, Rows: []int32{1}, Ints: []int64{big}}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := resp.IntValue()
	if err != nil {
		t.Fatal(err)
	}
	if got != big {
		t.Fatalf("int64 mangled in flight: got %d, want %d", got, big)
	}
	// The JSON factor path must refuse the value rather than round it.
	_, err = c.Query(context.Background(), &QueryRequest{
		Spec:    "domain int\nvar x 2 sum\nfactor x\n0 = 1\nend\n",
		Factors: []FactorData{{Tuples: [][]int{{1}}, Values: []float64{float64(big)}}},
	})
	if err == nil {
		t.Fatal("JSON path accepted an inexact int64")
	}
}

// TestTropicalInfinityResult pins the non-finite value contract: an empty
// tropical min is +Inf, which JSON numbers cannot express — it must
// travel as the string "inf" and decode back to +Inf, not surface as a
// 200 with an empty body.
func TestTropicalInfinityResult(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 1})
	// Two factors that share variable y but no joining tuple: min over
	// the empty set of assignments.
	resp, err := c.Query(context.Background(), &QueryRequest{
		Spec: "domain tropical\nvar x 3 min\nvar y 3 min\nvar z 3 min\n" +
			"factor x y\n0 1 = 2.5\nend\nfactor y z\n2 0 = 1.5\nend\n",
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := resp.FloatValue()
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(v, 1) {
		t.Fatalf("empty tropical min: got %v, want +Inf", v)
	}
}

// TestMultiDomainPlanSharing is the acceptance test for multi-domain
// routing: every domain runs on one shared engine runtime, so an int query
// of a shape the float path already planned is a cache hit — plan misses
// do not grow per domain.
func TestMultiDomainPlanSharing(t *testing.T) {
	s, _, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	// The same triangle text in three domains: float and int share
	// aggregate tags ("op:sum"), tropical differs ("op:min").
	triangle := func(domain, agg string) string {
		var b strings.Builder
		if domain != "float" {
			fmt.Fprintf(&b, "domain %s\n", domain)
		}
		for _, v := range []string{"x", "y", "z"} {
			fmt.Fprintf(&b, "var %s 6 %s\n", v, agg)
		}
		for _, e := range [][2]string{{"x", "y"}, {"y", "z"}, {"x", "z"}} {
			fmt.Fprintf(&b, "factor %s %s\n", e[0], e[1])
			for a := 0; a < 6; a++ {
				for c := 0; c < 6; c++ {
					if a < c {
						fmt.Fprintf(&b, "%d %d = 1\n", a, c)
					}
				}
			}
			b.WriteString("end\n")
		}
		return b.String()
	}

	misses := func() int64 { return s.Engine().Stats().PlanCacheMisses }

	fresp, err := c.Query(ctx, &QueryRequest{Spec: triangle("float", "sum")})
	if err != nil {
		t.Fatal(err)
	}
	if got := misses(); got != 1 {
		t.Fatalf("after float query: %d misses, want 1", got)
	}

	// Int, same shape: no new planning pass — the float plan serves it.
	iresp, err := c.Query(ctx, &QueryRequest{Spec: triangle("int", "sum")})
	if err != nil {
		t.Fatal(err)
	}
	if got := misses(); got != 1 {
		t.Fatalf("int query added a plan miss: %d, want 1 (shape shared across domains)", got)
	}
	fv, err := fresp.FloatValue()
	if err != nil {
		t.Fatal(err)
	}
	iv, err := iresp.IntValue()
	if err != nil {
		t.Fatal(err)
	}
	// C(6,3) = 20 triangles under the a<c support, in both algebras.
	if fv != 20 || iv != 20 {
		t.Fatalf("triangle counts: float %v, int %d, want 20", fv, iv)
	}

	// Tropical has different aggregate tags → one (and only one) new plan.
	for i := 0; i < 3; i++ {
		tresp, err := c.Query(ctx, &QueryRequest{Spec: triangle("tropical", "min")})
		if err != nil {
			t.Fatal(err)
		}
		if tv, err := tresp.FloatValue(); err != nil || tv != 3 {
			t.Fatalf("tropical cheapest triangle: %v, %v, want 3", tv, err)
		}
	}
	if got := misses(); got != 2 {
		t.Fatalf("after 3 tropical queries: %d misses, want 2 (planned once)", got)
	}

	// Repeats in every domain stay hits.
	for _, spec := range []string{triangle("float", "sum"), triangle("int", "sum")} {
		if _, err := c.Query(ctx, &QueryRequest{Spec: spec}); err != nil {
			t.Fatal(err)
		}
	}
	if got := misses(); got != 2 {
		t.Fatalf("repeat queries grew misses to %d, want 2", got)
	}

	st := s.Statsz()
	if st.Server.QueriesByDomain["float"] != 2 || st.Server.QueriesByDomain["int"] != 2 ||
		st.Server.QueriesByDomain["tropical"] != 3 {
		t.Fatalf("per-domain counters: %+v", st.Server.QueriesByDomain)
	}
}

// TestBinaryRequestErrors walks the binary decode error paths at the HTTP
// layer: each malformed stream must be a 400 (or 413), never a 5xx and
// never a hang.
func TestBinaryRequestErrors(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 1 << 20})
	specText := pairSpec("float", "sum")
	goodFrame := &wire.Frame{Domain: wire.DomainFloat, Arity: 2, Rows: []int32{0, 1}, Floats: []float64{2}}

	post := func(body []byte) int {
		resp, err := http.Post(ts.URL+"/v1/query", wire.ContentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var apiErr ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil || apiErr.Error == "" {
			t.Fatalf("error body missing (decode err %v)", err)
		}
		return resp.StatusCode
	}
	stream := func(header []byte, declared int, frames ...*wire.Frame) []byte {
		var buf bytes.Buffer
		enc := wire.NewEncoder(&buf)
		if err := enc.WriteStreamHeader(header, declared); err != nil {
			t.Fatal(err)
		}
		for _, f := range frames {
			if err := enc.Encode(f); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	header, err := json.Marshal(&QueryRequest{Spec: specText})
	if err != nil {
		t.Fatal(err)
	}

	if code := post([]byte("not a stream at all")); code != http.StatusBadRequest {
		t.Fatalf("garbage body: %d, want 400", code)
	}
	if code := post(stream(header, 2, goodFrame)); code != http.StatusBadRequest {
		t.Fatalf("missing frame: %d, want 400", code)
	}
	if code := post(stream(header, 0, goodFrame)); code != http.StatusBadRequest {
		t.Fatalf("undeclared trailing frame: %d, want 400", code)
	}
	if code := post(stream(header, 1, &wire.Frame{Domain: wire.DomainInt, Arity: 2,
		Rows: []int32{0, 1}, Ints: []int64{2}})); code != http.StatusBadRequest {
		t.Fatalf("domain mismatch with spec: %d, want 400", code)
	}
	if code := post(stream(header, 1, &wire.Frame{Domain: wire.DomainFloat, Arity: 3,
		Rows: []int32{0, 1, 2}, Floats: []float64{2}})); code != http.StatusBadRequest {
		t.Fatalf("arity mismatch with spec: %d, want 400", code)
	}
	jsonAndFrames, err := json.Marshal(&QueryRequest{Spec: specText,
		Factors: []FactorData{{Tuples: [][]int{{0, 1}}, Values: []float64{1}}}})
	if err != nil {
		t.Fatal(err)
	}
	if code := post(stream(jsonAndFrames, 1, goodFrame)); code != http.StatusBadRequest {
		t.Fatalf("JSON factors inside a binary stream: %d, want 400", code)
	}

	// A tiny body declaring an absurd frame count must fail fast — as a
	// length-limit 413 or a truncation 400 — without the server
	// allocating a frame slice of the declared size.
	for _, count := range []int{1 << 24, 100_000} {
		var hostile bytes.Buffer
		if err := wire.NewEncoder(&hostile).WriteStreamHeader(header, count); err != nil {
			t.Fatal(err)
		}
		code := post(hostile.Bytes())
		if code != http.StatusBadRequest && code != http.StatusRequestEntityTooLarge {
			t.Fatalf("hostile frame count %d: %d, want 400 or 413", count, code)
		}
	}

	// A binary body past MaxBodyBytes is a 413 (same contract as JSON):
	// the MaxBytesError must survive the wire decoder's error wrapping.
	big := &wire.Frame{Domain: wire.DomainFloat, Arity: 2,
		Rows: make([]int32, 300_000), Floats: make([]float64, 150_000)}
	for i := range big.Rows {
		big.Rows[i] = int32(i) // distinct rows; size alone should reject it
	}
	if code := post(stream(header, 1, big)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized binary body: %d, want 413", code)
	}

	// A valid stream still works through the raw HTTP path.
	resp, err := http.Post(ts.URL+"/v1/query", wire.ContentType,
		bytes.NewReader(stream(header, 1, goodFrame)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid stream: %d, want 200", resp.StatusCode)
	}
}
