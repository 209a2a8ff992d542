package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"github.com/faqdb/faq/internal/wire"
)

// triEdge is the deterministic edge predicate shared by the inline specs
// and the uploaded frames, so the two query paths see identical data.  The
// off-diagonal-complete graph guarantees a nonzero triangle count at every
// size, so a wrong or stale answer cannot hide behind an empty result.
func triEdge(a, c int) bool { return a != c }

// triFrames builds the three triangle edge factors as wire frames, with a
// distinct value per edge so permutation or column mixups change answers.
func triFrames(dom wire.Domain, size int) []*wire.Frame {
	frames := make([]*wire.Frame, 3)
	for i := range frames {
		f := &wire.Frame{Domain: dom, Arity: 2}
		for a := 0; a < size; a++ {
			for c := 0; c < size; c++ {
				if !triEdge(a, c) {
					continue
				}
				f.Rows = append(f.Rows, int32(a), int32(c))
				switch dom {
				case wire.DomainFloat, wire.DomainTropical:
					f.Floats = append(f.Floats, float64(a*size+c+1))
				case wire.DomainInt:
					f.Ints = append(f.Ints, int64(a*size+c+1))
				case wire.DomainBool:
					f.Bools = append(f.Bools, true)
				}
			}
		}
		frames[i] = f
	}
	return frames
}

// triDomSpec renders the triangle spec for one domain, either with inline
// data (refs=false) or as @<i> references against a dataset (refs=true).
// The inline data matches triFrames exactly.
func triDomSpec(dom wire.Domain, size, nfree int, refs bool, dataset string) string {
	var b strings.Builder
	agg, domLine := "sum", ""
	switch dom {
	case wire.DomainInt:
		domLine = "domain int\n"
	case wire.DomainBool:
		agg, domLine = "or", "domain bool\n"
	case wire.DomainTropical:
		agg, domLine = "min", "domain tropical\n"
	}
	b.WriteString(domLine)
	if refs {
		fmt.Fprintf(&b, "use %s\n", dataset)
	}
	for i, n := range []string{"x", "y", "z"} {
		a := agg
		if i < nfree {
			a = "free"
		}
		fmt.Fprintf(&b, "var %s %d %s\n", n, size, a)
	}
	for i, pair := range [][2]string{{"x", "y"}, {"y", "z"}, {"x", "z"}} {
		if refs {
			fmt.Fprintf(&b, "factor %s %s @%d\n", pair[0], pair[1], i)
			continue
		}
		fmt.Fprintf(&b, "factor %s %s\n", pair[0], pair[1])
		for a := 0; a < size; a++ {
			for c := 0; c < size; c++ {
				if !triEdge(a, c) {
					continue
				}
				if dom == wire.DomainBool {
					fmt.Fprintf(&b, "%d %d = 1\n", a, c)
				} else {
					fmt.Fprintf(&b, "%d %d = %d\n", a, c, a*size+c+1)
				}
			}
		}
		b.WriteString("end\n")
	}
	return b.String()
}

func TestDatasetEndpointsWithoutStore(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	if _, err := c.Datasets(ctx); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("list without store: %v, want 503", err)
	}
	if _, err := c.PutDataset(ctx, "tri", triFrames(wire.DomainFloat, 4)); err == nil ||
		!strings.Contains(err.Error(), "503") {
		t.Fatalf("put without store: %v, want 503", err)
	}
	if err := c.DeleteDataset(ctx, "tri"); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("delete without store: %v, want 503", err)
	}
	useSpec := triDomSpec(wire.DomainFloat, 4, 0, true, "tri")
	if _, err := c.Query(ctx, &QueryRequest{Spec: useSpec}); err == nil ||
		!strings.Contains(err.Error(), "503") {
		t.Fatalf("use-spec without store: %v, want 503", err)
	}
	if st, err := c.Statsz(ctx); err != nil || st.Store != nil {
		t.Fatalf("statsz without store: store=%+v err=%v", st.Store, err)
	}
}

func TestDatasetLifecycle(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 1, DataDir: t.TempDir()})
	ctx := context.Background()

	info, err := c.PutDataset(ctx, "tri", triFrames(wire.DomainFloat, 4))
	if err != nil {
		t.Fatalf("PutDataset: %v", err)
	}
	if info.Name != "tri" || info.Domain != "float" || len(info.Factors) != 3 || info.Bytes <= 0 {
		t.Fatalf("put info = %+v", info)
	}
	for i, f := range info.Factors {
		if f.Arity != 2 || f.Rows <= 0 || f.Bytes <= 0 || len(f.CRC32) != 8 {
			t.Fatalf("factor %d info = %+v", i, f)
		}
	}
	got, err := c.Dataset(ctx, "tri")
	if err != nil {
		t.Fatalf("Dataset: %v", err)
	}
	if !reflect.DeepEqual(info, got) {
		t.Fatalf("GET %+v != PUT %+v", got, info)
	}
	list, err := c.Datasets(ctx)
	if err != nil || len(list) != 1 || list[0].Name != "tri" {
		t.Fatalf("Datasets = %+v, %v", list, err)
	}
	if err := c.DeleteDataset(ctx, "tri"); err != nil {
		t.Fatalf("DeleteDataset: %v", err)
	}
	if _, err := c.Dataset(ctx, "tri"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("GET after delete: %v, want 404", err)
	}
	if err := c.DeleteDataset(ctx, "tri"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("double delete: %v, want 404", err)
	}
}

func TestDatasetPutErrors(t *testing.T) {
	_, ts, c := newTestServer(t, Config{Workers: 1, DataDir: t.TempDir()})
	ctx := context.Background()

	if _, err := c.PutDataset(ctx, "bad/name", triFrames(wire.DomainFloat, 4)); err == nil ||
		!strings.Contains(err.Error(), "400") {
		t.Fatalf("traversal name: %v, want 400", err)
	}
	if _, err := c.PutDataset(ctx, "empty", nil); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("no frames: %v, want 400", err)
	}
	mixed := []*wire.Frame{triFrames(wire.DomainFloat, 4)[0], triFrames(wire.DomainInt, 4)[0]}
	if _, err := c.PutDataset(ctx, "mixed", mixed); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("mixed domains: %v, want 400", err)
	}

	// A PUT that is not a binary factor stream is rejected by media type.
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/datasets/tri", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/plain")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("text/plain upload: HTTP %d, want 415", resp.StatusCode)
	}
}

func TestDatasetQueryErrors(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 1, DataDir: t.TempDir()})
	ctx := context.Background()

	useSpec := triDomSpec(wire.DomainFloat, 4, 0, true, "ghost")
	if _, err := c.Query(ctx, &QueryRequest{Spec: useSpec}); err == nil ||
		!strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown dataset: %v, want 404", err)
	}

	if _, err := c.PutDataset(ctx, "tri", triFrames(wire.DomainFloat, 4)); err != nil {
		t.Fatal(err)
	}
	// A use spec must not also ship factor data.
	shipped := &QueryRequest{
		Spec:    triDomSpec(wire.DomainFloat, 4, 0, true, "tri"),
		Factors: []FactorData{{Tuples: [][]int{{0, 1}}, Values: []float64{1}}},
	}
	if _, err := c.Query(ctx, shipped); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("use + shipped factors: %v, want 400", err)
	}
	// The spec's domain must match the dataset's.
	intSpec := triDomSpec(wire.DomainInt, 4, 0, true, "tri")
	if _, err := c.Query(ctx, &QueryRequest{Spec: intSpec}); err == nil ||
		!strings.Contains(err.Error(), "400") {
		t.Fatalf("domain mismatch: %v, want 400", err)
	}
	// A reference past the stored factor count is the spec's mistake.
	refSpec := strings.Replace(triDomSpec(wire.DomainFloat, 4, 0, true, "tri"), "@2", "@9", 1)
	if _, err := c.Query(ctx, &QueryRequest{Spec: refSpec}); err == nil ||
		!strings.Contains(err.Error(), "400") {
		t.Fatalf("out-of-range ref: %v, want 400", err)
	}
}

// TestDatasetQueryEquivalence is the equivalence harness of the resident
// path: for every domain and worker count, a query over an uploaded
// dataset must match the same query with inline data bit for bit — value,
// output listing and run stats.
func TestDatasetQueryEquivalence(t *testing.T) {
	_, _, c := newTestServer(t, Config{DataDir: t.TempDir()})
	ctx := context.Background()
	const size = 6
	for _, dom := range []wire.Domain{wire.DomainFloat, wire.DomainInt, wire.DomainBool, wire.DomainTropical} {
		name := fmt.Sprintf("eq-%d", int(dom))
		if _, err := c.PutDataset(ctx, name, triFrames(dom, size)); err != nil {
			t.Fatalf("PutDataset %v: %v", dom, err)
		}
		for _, nfree := range []int{0, 2} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%v/free%d/w%d", dom, nfree, workers), func(t *testing.T) {
					inline, err := c.Query(ctx, &QueryRequest{
						Spec: triDomSpec(dom, size, nfree, false, ""), Workers: workers,
					})
					if err != nil {
						t.Fatalf("inline query: %v", err)
					}
					byName, err := c.Query(ctx, &QueryRequest{
						Spec: triDomSpec(dom, size, nfree, true, name), Workers: workers,
					})
					if err != nil {
						t.Fatalf("dataset query: %v", err)
					}
					if !reflect.DeepEqual(inline.Value, byName.Value) {
						t.Fatalf("value: inline %v != dataset %v", inline.Value, byName.Value)
					}
					if !reflect.DeepEqual(inline.Output, byName.Output) {
						t.Fatalf("output: inline %+v != dataset %+v", inline.Output, byName.Output)
					}
					if !reflect.DeepEqual(inline.Stats, byName.Stats) {
						t.Fatalf("stats: inline %+v != dataset %+v", inline.Stats, byName.Stats)
					}
					if inline.Domain != byName.Domain {
						t.Fatalf("domain: %q != %q", inline.Domain, byName.Domain)
					}
				})
			}
		}
	}
}

// TestDatasetResidentReuse checks the prepared-query registry: repeats hit
// the resident entry, a replace invalidates it, and /statsz counts both.
func TestDatasetResidentReuse(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 1, DataDir: t.TempDir()})
	ctx := context.Background()

	if _, err := c.PutDataset(ctx, "tri", triFrames(wire.DomainFloat, 4)); err != nil {
		t.Fatal(err)
	}
	useSpec := triDomSpec(wire.DomainFloat, 4, 0, true, "tri")
	first, err := c.Query(ctx, &QueryRequest{Spec: useSpec})
	if err != nil {
		t.Fatalf("first query: %v", err)
	}
	second, err := c.Query(ctx, &QueryRequest{Spec: useSpec})
	if err != nil {
		t.Fatalf("second query: %v", err)
	}
	if !reflect.DeepEqual(first.Value, second.Value) {
		t.Fatalf("resident hit changed the answer: %v != %v", first.Value, second.Value)
	}

	st, err := c.Statsz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Store == nil {
		t.Fatal("statsz has no store section")
	}
	if st.Store.Datasets != 1 || st.Store.BytesMapped <= 0 {
		t.Fatalf("store statsz = %+v", st.Store)
	}
	if st.Store.DatasetQueries != 2 || st.Store.ResidentPrepared != 1 {
		t.Fatalf("queries=%d resident=%d, want 2 and 1", st.Store.DatasetQueries, st.Store.ResidentPrepared)
	}
	if st.Store.ChecksumFailures != 0 || st.Store.LoadErrors != 0 {
		t.Fatalf("unexpected failures in %+v", st.Store)
	}

	// Replacing the dataset must evict the resident entry and serve the
	// new data, not the old mapping.
	bigger := triFrames(wire.DomainFloat, 4)
	for _, f := range bigger {
		for i := range f.Floats {
			f.Floats[i] *= 2
		}
	}
	if _, err := c.PutDataset(ctx, "tri", bigger); err != nil {
		t.Fatal(err)
	}
	replaced, err := c.Query(ctx, &QueryRequest{Spec: useSpec})
	if err != nil {
		t.Fatalf("query after replace: %v", err)
	}
	if reflect.DeepEqual(first.Value, replaced.Value) {
		t.Fatalf("replace served stale data: still %v", replaced.Value)
	}
	want := fval(t, first) * 8 // three factors, each value doubled
	if got := fval(t, replaced); got != want {
		t.Fatalf("replaced value = %v, want %v", got, want)
	}
}

// TestDatasetTriesSurviveInlineTraffic: a resident dataset query owns its
// tries, so thousands of inline queries in between — more than three times
// the registration cap of the engine-wide cache this replaced — leave them
// warm: the next dataset query moves trie_cache_hits, not
// trie_cache_misses, and answers the same value.
func TestDatasetTriesSurviveInlineTraffic(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 1, DataDir: t.TempDir()})
	ctx := context.Background()
	if _, err := c.PutDataset(ctx, "tri", triFrames(wire.DomainFloat, 6)); err != nil {
		t.Fatal(err)
	}
	useSpec := triDomSpec(wire.DomainFloat, 6, 0, true, "tri")
	first, err := c.Query(ctx, &QueryRequest{Spec: useSpec})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3100; i++ {
		if _, err := c.Query(ctx, &QueryRequest{Spec: triangleSpec(4, 0, float64(i))}); err != nil {
			t.Fatalf("inline query %d: %v", i, err)
		}
	}
	before, err := c.Statsz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.Query(ctx, &QueryRequest{Spec: useSpec})
	if err != nil {
		t.Fatal(err)
	}
	after, err := c.Statsz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, a := before.Engine, after.Engine
	if a.TrieCacheHits <= b.TrieCacheHits {
		t.Fatalf("dataset query hit no tries after inline traffic (%d -> %d hits)", b.TrieCacheHits, a.TrieCacheHits)
	}
	if a.TrieCacheMisses != b.TrieCacheMisses {
		t.Fatalf("dataset query rebuilt tries: misses %d -> %d", b.TrieCacheMisses, a.TrieCacheMisses)
	}
	if a.TrieCacheEvictions != 0 {
		t.Fatalf("trie_cache_evictions = %d, want 0", a.TrieCacheEvictions)
	}
	if !reflect.DeepEqual(first.Value, again.Value) {
		t.Fatalf("dataset answer changed: %v != %v", first.Value, again.Value)
	}
}

// TestDatasetColdRestart uploads through one server, shuts it down, and
// starts a second over the same directory: the dataset must be served from
// the verified on-disk file with no re-upload, bit-identical.
func TestDatasetColdRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	useSpec := triDomSpec(wire.DomainFloat, 5, 0, true, "tri")

	warm, err := New(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tsWarm := httptest.NewServer(warm.Handler())
	cw := NewClient(tsWarm.URL)
	cw.HTTPClient = tsWarm.Client()
	if _, err := cw.PutDataset(ctx, "tri", triFrames(wire.DomainFloat, 5)); err != nil {
		t.Fatal(err)
	}
	warmResp, err := cw.Query(ctx, &QueryRequest{Spec: useSpec})
	if err != nil {
		t.Fatal(err)
	}
	tsWarm.Close()
	warm.Close()

	_, _, cold := newTestServer(t, Config{Workers: 1, DataDir: dir})
	list, err := cold.Datasets(ctx)
	if err != nil || len(list) != 1 || list[0].Name != "tri" {
		t.Fatalf("cold catalog = %+v, %v", list, err)
	}
	coldResp, err := cold.Query(ctx, &QueryRequest{Spec: useSpec})
	if err != nil {
		t.Fatalf("cold query: %v", err)
	}
	if !reflect.DeepEqual(warmResp.Value, coldResp.Value) {
		t.Fatalf("cold restart changed the answer: %v != %v", warmResp.Value, coldResp.Value)
	}
	st, err := cold.Statsz(ctx)
	if err != nil || st.Store == nil {
		t.Fatalf("cold statsz: %+v, %v", st, err)
	}
	if st.Store.Datasets != 1 || st.Store.LoadErrors != 0 || st.Store.ChecksumFailures != 0 {
		t.Fatalf("cold store statsz = %+v", st.Store)
	}
}

// TestDatasetDeltaSeed seeds a /v1/delta session from a dataset: the
// session evolves a private copy, and the dataset itself stays untouched.
func TestDatasetDeltaSeed(t *testing.T) {
	_, _, c := newTestServer(t, Config{Workers: 1, DataDir: t.TempDir()})
	ctx := context.Background()
	const size = 4

	if _, err := c.PutDataset(ctx, "tri", triFrames(wire.DomainFloat, size)); err != nil {
		t.Fatal(err)
	}
	useSpec := triDomSpec(wire.DomainFloat, size, 0, true, "tri")
	base, err := c.Query(ctx, &QueryRequest{Spec: useSpec})
	if err != nil {
		t.Fatal(err)
	}

	// Insert one edge that the deterministic predicate excludes.
	resp, err := c.Delta(ctx, &DeltaRequest{
		Spec: useSpec,
		Deltas: []DeltaData{
			{Factor: 0, Op: "insert", Tuples: [][]int{{0, 0}}, Values: []float64{5}},
		},
	})
	if err != nil {
		t.Fatalf("Delta: %v", err)
	}
	if resp.Applied != 1 {
		t.Fatalf("applied = %d, want 1", resp.Applied)
	}
	// Oracle: the inline spec with the same extra row in factor 0.
	inline := triDomSpec(wire.DomainFloat, size, 0, false, "")
	oracleSpec := strings.Replace(inline, "factor x y\n", "factor x y\n0 0 = 5\n", 1)
	want := solveSpec(t, oracleSpec).Scalar()
	got, err := resp.FloatValue()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("delta value = %v, oracle = %v", got, want)
	}

	// The session evolved a copy: querying the dataset again must give the
	// original answer.
	again, err := c.Query(ctx, &QueryRequest{Spec: useSpec})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Value, again.Value) {
		t.Fatalf("delta session mutated the dataset: %v != %v", again.Value, base.Value)
	}
}
