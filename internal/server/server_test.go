package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/faqdb/faq/internal/core"
	"github.com/faqdb/faq/internal/spec"
)

// triangleSpec renders a triangle-count spec over a deterministic edge set:
// Σ_{x,y,z} ψ(x,y)·ψ(y,z)·ψ(x,z).  nfree frees the first variables (same
// hypergraph, distinct shape), shift perturbs the data (same shape,
// different answers).
func triangleSpec(dom, nfree int, shift float64) string {
	var b strings.Builder
	aggs := []string{"sum", "sum", "sum"}
	names := []string{"x", "y", "z"}
	for i, n := range names {
		agg := aggs[i]
		if i < nfree {
			agg = "free"
		}
		fmt.Fprintf(&b, "var %s %d %s\n", n, dom, agg)
	}
	edge := func(u, v string) {
		fmt.Fprintf(&b, "factor %s %s\n", u, v)
		for a := 0; a < dom; a++ {
			for c := 0; c < dom; c++ {
				if (a*7+c*3)%4 == 0 && a != c {
					fmt.Fprintf(&b, "%d %d = %g\n", a, c, 1+shift)
				}
			}
		}
		b.WriteString("end\n")
	}
	edge("x", "y")
	edge("y", "z")
	edge("x", "z")
	return b.String()
}

// solveSpec evaluates a spec single-threaded through the one-shot Solve
// path — the oracle the server must match bit-for-bit.
func solveSpec(t *testing.T, specText string) *core.Result[float64] {
	t.Helper()
	doc, err := spec.ParseDocument(strings.NewReader(specText))
	if err != nil {
		t.Fatalf("oracle parse: %v", err)
	}
	q, _, err := doc.BuildFloat()
	if err != nil {
		t.Fatalf("oracle build: %v", err)
	}
	opts := core.DefaultOptions()
	opts.Workers = 1
	res, _, err := core.Solve(q, opts)
	if err != nil {
		t.Fatalf("oracle solve: %v", err)
	}
	return res
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *Client) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	c := NewClient(ts.URL)
	c.HTTPClient = ts.Client()
	return s, ts, c
}

// fval unwraps a float-domain scalar response.
func fval(t *testing.T, resp *QueryResponse) float64 {
	t.Helper()
	v, err := resp.FloatValue()
	if err != nil {
		t.Fatalf("scalar value: %v", err)
	}
	return v
}

func TestQueryScalar(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 1})
	specText := triangleSpec(8, 0, 0)
	resp, err := c.Query(context.Background(), &QueryRequest{Spec: specText})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Value == nil || resp.Output != nil {
		t.Fatalf("scalar query: value=%v output=%v", resp.Value, resp.Output)
	}
	want := solveSpec(t, specText).Scalar()
	if got := fval(t, resp); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("server %v != solve %v", got, want)
	}
	if resp.Plan.Method == "" || resp.Plan.Width <= 0 || len(resp.Plan.Order) != 3 {
		t.Fatalf("plan summary: %+v", resp.Plan)
	}
	if resp.Stats.Eliminations == 0 {
		t.Fatalf("run stats missing: %+v", resp.Stats)
	}
}

func TestQueryFreeVariables(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 1})
	specText := triangleSpec(6, 2, 0.5)
	resp, err := c.Query(context.Background(), &QueryRequest{Spec: specText})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Output == nil || resp.Value != nil {
		t.Fatalf("free-variable query: value=%v output=%v", resp.Value, resp.Output)
	}
	want := solveSpec(t, specText)
	wantTuples := want.Output.Tuples()
	gotValues, err := resp.Output.FloatValues()
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Output.Tuples) != len(wantTuples) {
		t.Fatalf("output size %d != %d", len(resp.Output.Tuples), len(wantTuples))
	}
	for i := range wantTuples {
		for j := range wantTuples[i] {
			if resp.Output.Tuples[i][j] != wantTuples[i][j] {
				t.Fatalf("tuple %d: %v != %v", i, resp.Output.Tuples[i], wantTuples[i])
			}
		}
		if math.Float64bits(gotValues[i]) != math.Float64bits(want.Output.Values[i]) {
			t.Fatalf("value %d: %v != %v", i, gotValues[i], want.Output.Values[i])
		}
	}
	if want := []string{"x", "y"}; resp.Output.Vars[0] != want[0] || resp.Output.Vars[1] != want[1] {
		t.Fatalf("output vars %v, want %v", resp.Output.Vars, want)
	}
}

// TestQueryWithFreshFactors exercises the RunWithFactors path: the spec
// carries placeholder data, the request body carries the real data, and
// repeated shapes keep hitting one cached plan.
func TestQueryWithFreshFactors(t *testing.T) {
	s, _, c := newTestServer(t, Config{Workers: 1})
	specText := triangleSpec(6, 0, 0)

	fresh := func(w float64) []FactorData {
		fd := FactorData{}
		for a := 0; a < 6; a++ {
			for b := 0; b < 6; b++ {
				if a < b { // different support than the spec data
					fd.Tuples = append(fd.Tuples, []int{a, b})
					fd.Values = append(fd.Values, w)
				}
			}
		}
		return []FactorData{fd, fd, fd}
	}

	for i, w := range []float64{1, 2, 3} {
		resp, err := c.Query(context.Background(), &QueryRequest{Spec: specText, Factors: fresh(w)})
		if err != nil {
			t.Fatal(err)
		}
		// x<y<z over the upper-triangular support: C(6,3)=20 triangles, w³ each.
		want := 20 * w * w * w
		if got := fval(t, resp); got != want {
			t.Fatalf("fresh factors w=%g: got %v, want %v", w, got, want)
		}
		st := s.Engine().StatsSnapshot()
		if st.PlanCacheMisses != 1 || int(st.PlanCacheHits) != i {
			t.Fatalf("after request %d: %+v", i, st)
		}
	}

	// Wrong factor count and wrong arity are client errors.
	if _, err := c.Query(context.Background(), &QueryRequest{Spec: specText, Factors: fresh(1)[:2]}); err == nil {
		t.Fatal("short factor list accepted")
	}
	bad := fresh(1)
	bad[0].Tuples[0] = []int{1}
	if _, err := c.Query(context.Background(), &QueryRequest{Spec: specText, Factors: bad}); err == nil {
		t.Fatal("bad arity accepted")
	}
}

// TestQueryFreshFactorsDeclarationOrder pins the fresh-factors column
// contract: tuple columns follow the spec factor block's *declaration*
// order, even when that order is unsorted, exactly like the spec's own
// data lines.  A transposition here silently corrupts results, so the
// asymmetric factor ψ(y=0, x=1) = 7 must round-trip unswapped.
func TestQueryFreshFactorsDeclarationOrder(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 1})
	// factor y x: columns of its data lines (and of fresh factors) are
	// (y, x); storage order is sorted (x, y).
	specText := "var x 3 sum\nvar y 3 sum\nfactor y x\n0 1 = 1\nend\n"
	resp, err := c.Query(context.Background(), &QueryRequest{
		Spec:    specText,
		Factors: []FactorData{{Tuples: [][]int{{0, 1}}, Values: []float64{7}}}, // ψ(y=0, x=1) = 7
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := fval(t, resp); got != 7 {
		t.Fatalf("declaration-order factor transposed: got %v, want 7", got)
	}
	// The same data through the spec's inline path agrees.
	inline, err := c.Query(context.Background(), &QueryRequest{
		Spec: "var x 3 sum\nvar y 3 sum\nfactor y x\n0 1 = 7\nend\n",
	})
	if err != nil {
		t.Fatal(err)
	}
	if fval(t, inline) != fval(t, resp) {
		t.Fatalf("inline %v != fresh %v", fval(t, inline), fval(t, resp))
	}
}

func TestQueryTimeoutOverflow(t *testing.T) {
	s, _, c := newTestServer(t, Config{Workers: 1, MaxTimeout: time.Second})
	// An absurd timeout_ms must not wrap negative (which would expire the
	// context instantly and dodge the MaxTimeout clamp): the tiny query
	// below still succeeds under the clamped deadline.
	resp, err := c.Query(context.Background(), &QueryRequest{
		Spec:      "var x 2 sum\nfactor x\n0 = 1\n1 = 2\nend\n",
		TimeoutMS: 1 << 62,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := fval(t, resp); got != 3 {
		t.Fatalf("got %v, want 3", got)
	}
	if to := s.queryTimeout(1 << 62); to != time.Second {
		t.Fatalf("overflowing timeout resolved to %v, want the 1s clamp", to)
	}
	if to := s.queryTimeout(0); to != time.Second {
		t.Fatalf("zero timeout resolved to %v, want the clamped default (1s)", to)
	}
}

func TestQueryBadRequests(t *testing.T) {
	_, ts, c := newTestServer(t, Config{Workers: 1})
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var apiErr ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil || apiErr.Error == "" {
			t.Fatalf("error body missing for %q (decode err %v)", body, err)
		}
		return resp.StatusCode
	}
	for _, tc := range []string{
		"{not json",
		`{"spec": ""}`,
		`{"spec": "var x 2 sum\nbogus"}`,
		`{"spec": "var x 2 min\nfactor x\n0 = 1\nend"}`, // unlawful aggregate
		`{"unknown_field": 1}`,
	} {
		if code := post(tc); code != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", tc, code)
		}
	}
	// GET on a POST route is a 405 from the method-aware mux.
	resp, err := http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/query: %d, want 405", resp.StatusCode)
	}
	_ = c
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Planner: "gredy"}); err == nil {
		t.Fatal("misspelled planner accepted")
	}
	if _, err := New(Config{Workers: -1}); err == nil {
		t.Fatal("negative workers accepted")
	}
}

func TestQueryBodyTooLarge(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 128})
	body := `{"spec": "` + strings.Repeat("# padding\\n", 64) + `"}`
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

func TestQueryDeadline(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 1})
	// A dense 200-node triangle with free variables runs for tens of
	// milliseconds across several executor phases, each of which polls the
	// context: a 1 ms deadline must cancel between phases and map to 504.
	body, err := json.Marshal(&QueryRequest{Spec: triangleSpec(200, 2, 0), TimeoutMS: 1})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
}

func TestPlanEndpoint(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	rep, err := c.PlanExample(ctx, "6.2")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Vars) != 7 || rep.ExpressionTree == "" || len(rep.Plans) == 0 || rep.FHTW <= 0 {
		t.Fatalf("example report: %+v", rep)
	}

	rep, err = c.Plan(ctx, triangleSpec(4, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Vars) != 3 || rep.Vars[0] != "x" {
		t.Fatalf("spec report vars: %v", rep.Vars)
	}
	// The triangle's exact plan has width ρ* = 1.5.
	var sawExact bool
	for _, p := range rep.Plans {
		if p.Method == "exact-dp" {
			sawExact = true
			if p.Width != 1.5 {
				t.Fatalf("exact triangle width %v, want 1.5", p.Width)
			}
		}
	}
	if !sawExact {
		t.Fatalf("no exact-dp plan in %+v", rep.Plans)
	}

	if _, err := c.PlanExample(ctx, "nope"); err == nil {
		t.Fatal("unknown example accepted")
	}
}

func TestHealthzAndStatsz(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	if err := c.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
	specText := triangleSpec(6, 0, 0)
	for i := 0; i < 3; i++ {
		if _, err := c.Query(ctx, &QueryRequest{Spec: specText}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Statsz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Engine.Runs != 3 || st.Engine.PlanCacheMisses != 1 || st.Engine.PlanCacheHits != 2 {
		t.Fatalf("engine statsz: %+v", st.Engine)
	}
	if st.Server.Queries != 3 || st.Server.RequestsOK < 4 || st.Server.RequestsErr != 0 {
		t.Fatalf("server statsz: %+v", st.Server)
	}
	if st.Server.LatencyP50MS <= 0 || st.Server.LatencyP99MS < st.Server.LatencyP50MS {
		t.Fatalf("latency percentiles: %+v", st.Server)
	}
	if st.UptimeSeconds <= 0 {
		t.Fatalf("uptime %v", st.UptimeSeconds)
	}
}

func TestWaitHealthy(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 1})
	if err := c.WaitHealthy(context.Background(), time.Second); err != nil {
		t.Fatal(err)
	}
	dead := NewClient("http://127.0.0.1:1") // nothing listens on port 1
	if err := dead.WaitHealthy(context.Background(), 100*time.Millisecond); err == nil {
		t.Fatal("WaitHealthy against a dead address succeeded")
	}
}
