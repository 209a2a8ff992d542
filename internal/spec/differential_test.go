package spec

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/faqdb/faq/internal/core"
	"github.com/faqdb/faq/internal/factor"
	"github.com/faqdb/faq/internal/semiring"
)

// The retired parser, kept as the reference the one-pass parser must agree
// with: a bufio.Scanner over lines, strings.Fields per line, one []int per
// listed tuple, permuted into a second []int at build time and handed to
// factor.New.  Only the types are renamed.

type refDocument struct {
	Domain  string
	Dataset string
	Vars    []VarDecl
	Blocks  []refBlock
}

type refBlock struct {
	Vars       []string
	VarIDs     []int
	Tuples     [][]int
	Values     []string
	Ref        string
	Line       int
	ValueLines []int
}

func refParseDocument(r io.Reader) (*refDocument, error) {
	doc := &refDocument{Domain: DomainFloat}
	names := map[string]int{}
	numFree := 0
	sawDomain := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)

	lineNo := 0
	var blk *refBlock // nil when outside a factor block
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "domain":
			if sawDomain {
				return nil, fmt.Errorf("spec:%d: duplicate domain directive", lineNo)
			}
			if len(doc.Vars) > 0 || len(doc.Blocks) > 0 || blk != nil {
				return nil, fmt.Errorf("spec:%d: domain directive must precede all declarations", lineNo)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("spec:%d: want 'domain <name>'", lineNo)
			}
			switch fields[1] {
			case DomainFloat, DomainInt, DomainBool, DomainTropical:
				doc.Domain = fields[1]
			default:
				return nil, fmt.Errorf("spec:%d: unknown domain %q (want %s)",
					lineNo, fields[1], strings.Join(Domains, ", "))
			}
			sawDomain = true
		case "use":
			if blk != nil {
				return nil, fmt.Errorf("spec:%d: use inside factor block", lineNo)
			}
			if doc.Dataset != "" {
				return nil, fmt.Errorf("spec:%d: duplicate use directive", lineNo)
			}
			if len(doc.Blocks) > 0 {
				return nil, fmt.Errorf("spec:%d: use directive must precede all factor blocks", lineNo)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("spec:%d: want 'use <dataset>'", lineNo)
			}
			doc.Dataset = fields[1]
		case "var":
			if blk != nil {
				return nil, fmt.Errorf("spec:%d: var inside factor block", lineNo)
			}
			if len(fields) != 4 {
				return nil, fmt.Errorf("spec:%d: want 'var <name> <dom> <agg>'", lineNo)
			}
			name := fields[1]
			if _, dup := names[name]; dup {
				return nil, fmt.Errorf("spec:%d: duplicate variable %q", lineNo, name)
			}
			dom, err := strconv.Atoi(fields[2])
			if err != nil || dom < 1 {
				return nil, fmt.Errorf("spec:%d: bad domain size %q", lineNo, fields[2])
			}
			if fields[3] == "free" {
				if numFree != len(doc.Vars) {
					return nil, fmt.Errorf("spec:%d: free variable %q after a bound variable", lineNo, name)
				}
				numFree++
			}
			names[name] = len(doc.Vars)
			doc.Vars = append(doc.Vars, VarDecl{Name: name, Dom: dom, Agg: fields[3], Line: lineNo})
		case "factor":
			if blk != nil {
				return nil, fmt.Errorf("spec:%d: nested factor block", lineNo)
			}
			varNames := fields[1:]
			ref := ""
			if len(varNames) > 0 && strings.HasPrefix(varNames[len(varNames)-1], "@") {
				ref = varNames[len(varNames)-1][1:]
				varNames = varNames[:len(varNames)-1]
				if ref == "" {
					return nil, fmt.Errorf("spec:%d: empty factor reference", lineNo)
				}
				if doc.Dataset == "" {
					return nil, fmt.Errorf("spec:%d: factor reference @%s without a use directive", lineNo, ref)
				}
			}
			if len(varNames) == 0 {
				return nil, fmt.Errorf("spec:%d: factor needs at least one variable", lineNo)
			}
			blk = &refBlock{Line: lineNo, Ref: ref}
			for _, name := range varNames {
				v, ok := names[name]
				if !ok {
					return nil, fmt.Errorf("spec:%d: unknown variable %q", lineNo, name)
				}
				blk.Vars = append(blk.Vars, name)
				blk.VarIDs = append(blk.VarIDs, v)
			}
			if ref != "" {
				doc.Blocks = append(doc.Blocks, *blk)
				blk = nil
			}
		case "end":
			if blk == nil {
				return nil, fmt.Errorf("spec:%d: end outside factor block", lineNo)
			}
			doc.Blocks = append(doc.Blocks, *blk)
			blk = nil
		default:
			if blk == nil {
				return nil, fmt.Errorf("spec:%d: unexpected %q outside a factor block", lineNo, fields[0])
			}
			eq := -1
			for i, f := range fields {
				if f == "=" {
					eq = i
					break
				}
			}
			if eq != len(blk.Vars) || len(fields) != eq+2 {
				return nil, fmt.Errorf("spec:%d: want '%d values = weight'", lineNo, len(blk.Vars))
			}
			tup := make([]int, len(blk.Vars))
			for i := range tup {
				x, err := strconv.Atoi(fields[i])
				if err != nil {
					return nil, fmt.Errorf("spec:%d: bad value %q", lineNo, fields[i])
				}
				tup[i] = x
			}
			blk.Tuples = append(blk.Tuples, tup)
			blk.Values = append(blk.Values, fields[eq+1])
			blk.ValueLines = append(blk.ValueLines, lineNo)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if blk != nil {
		return nil, fmt.Errorf("spec: unterminated factor block")
	}
	return doc, nil
}

func (doc *refDocument) NumFree() int {
	n := 0
	for _, v := range doc.Vars {
		if v.Agg != "free" {
			break
		}
		n++
	}
	return n
}

func refBuildQuery[V any](doc *refDocument, d *semiring.Domain[V],
	aggOf func(string) (core.Aggregate[V], error),
	parseVal func(string) (V, error), resolve Resolver[V]) (*core.Query[V], [][]int, error) {

	q := &core.Query[V]{D: d, NVars: len(doc.Vars), NumFree: doc.NumFree()}
	for _, vd := range doc.Vars {
		agg, err := aggOf(vd.Agg)
		if err != nil {
			return nil, nil, fmt.Errorf("spec:%d: %v", vd.Line, err)
		}
		q.Names = append(q.Names, vd.Name)
		q.DomSizes = append(q.DomSizes, vd.Dom)
		q.Aggs = append(q.Aggs, agg)
	}
	layout := make([][]int, 0, len(doc.Blocks))
	for _, blk := range doc.Blocks {
		perm := make([]int, len(blk.VarIDs))
		for i := range perm {
			perm[i] = i
		}
		sort.Slice(perm, func(a, b int) bool { return blk.VarIDs[perm[a]] < blk.VarIDs[perm[b]] })
		sortedVars := make([]int, len(perm))
		for i, p := range perm {
			sortedVars[i] = blk.VarIDs[p]
		}
		if blk.Ref != "" {
			if resolve == nil {
				return nil, nil, fmt.Errorf(
					"spec:%d: factor reference @%s needs a dataset resolver", blk.Line, blk.Ref)
			}
			f, err := resolve(d, blk.Ref, blk.VarIDs)
			if err != nil {
				return nil, nil, fmt.Errorf("spec:%d: @%s: %w", blk.Line, blk.Ref, err)
			}
			if len(f.Vars) != len(sortedVars) {
				return nil, nil, fmt.Errorf("spec:%d: @%s: resolver returned arity %d, block declares %d",
					blk.Line, blk.Ref, len(f.Vars), len(sortedVars))
			}
			for i := range sortedVars {
				if f.Vars[i] != sortedVars[i] {
					return nil, nil, fmt.Errorf("spec:%d: @%s: resolver variables %v, block declares %v",
						blk.Line, blk.Ref, f.Vars, sortedVars)
				}
			}
			q.Factors = append(q.Factors, f)
			layout = append(layout, blk.VarIDs)
			continue
		}
		tuples := make([][]int, len(blk.Tuples))
		for i, raw := range blk.Tuples {
			tup := make([]int, len(perm))
			for j, p := range perm {
				tup[j] = raw[p]
			}
			tuples[i] = tup
		}
		values := make([]V, len(blk.Values))
		for i, tok := range blk.Values {
			v, err := parseVal(tok)
			if err != nil {
				return nil, nil, fmt.Errorf("spec:%d: bad %s weight %q", blk.ValueLines[i], doc.Domain, tok)
			}
			values[i] = v
		}
		f, err := factor.New(d, sortedVars, tuples, values, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("spec:%d: %v", blk.Line, err)
		}
		q.Factors = append(q.Factors, f)
		layout = append(layout, blk.VarIDs)
	}
	if err := q.Validate(); err != nil {
		return nil, nil, err
	}
	return q, layout, nil
}

// checkAgainstRetired parses text with both parsers and, when both accept
// it, builds both documents in all four domains.  They must agree on
// every outcome: the same error text (so the same spec:<line>), the same
// document, and built queries with the same variables, layout, rows and
// value bits.  Two differences are by design: a tuple value outside the
// int32 range is now a parse error at its own line (the retired path
// failed in factor.New at the block's line, or dropped the row when its
// value was zero), and the retired Scanner's 4 MiB line cap is gone.
func checkAgainstRetired(t *testing.T, text string) {
	t.Helper()
	doc, err := ParseDocument(strings.NewReader(text))
	ref, refErr := refParseDocument(strings.NewReader(text))
	if errors.Is(err, errTupleRange) {
		checkRangeError(t, text, err, refErr)
		return
	}
	if errors.Is(refErr, bufio.ErrTooLong) {
		return
	}
	if !sameError(err, refErr) {
		t.Fatalf("parse: got error %v, retired parser %v\ninput %q", err, refErr, text)
	}
	if err != nil {
		return
	}
	compareDocuments(t, doc, ref, text)

	before := cloneBlocks(doc.Blocks)
	for _, dom := range Domains {
		d, r := *doc, *ref
		d.Domain, r.Domain = dom, dom
		switch dom {
		case DomainFloat:
			q, lay, err := d.BuildFloat(StubResolver[float64]())
			rq, rlay, rerr := refBuildQuery(&r, semiring.Float(), floatAgg, parseFloatValue, StubResolver[float64]())
			compareBuilt(t, dom, text, q, lay, err, rq, rlay, rerr, sameFloat)
		case DomainInt:
			q, lay, err := d.BuildInt(StubResolver[int64]())
			rq, rlay, rerr := refBuildQuery(&r, semiring.Int(), intAgg, parseIntValue, StubResolver[int64]())
			compareBuilt(t, dom, text, q, lay, err, rq, rlay, rerr, func(a, b int64) bool { return a == b })
		case DomainBool:
			q, lay, err := d.BuildBool(StubResolver[bool]())
			rq, rlay, rerr := refBuildQuery(&r, semiring.Bool(), boolAgg, parseBoolValue, StubResolver[bool]())
			compareBuilt(t, dom, text, q, lay, err, rq, rlay, rerr, func(a, b bool) bool { return a == b })
		case DomainTropical:
			q, lay, err := d.BuildTropical(StubResolver[float64]())
			rq, rlay, rerr := refBuildQuery(&r, semiring.Tropical(), tropicalAgg, parseFloatValue, StubResolver[float64]())
			compareBuilt(t, dom, text, q, lay, err, rq, rlay, rerr, sameFloat)
		}
	}
	for i := range before {
		if !slices.Equal(before[i].Rows, doc.Blocks[i].Rows) || !slices.Equal(before[i].Values, doc.Blocks[i].Values) {
			t.Fatalf("building modified block %d of the document\ninput %q", i, text)
		}
	}
}

// checkRangeError checks an int32-range rejection: the line it names must
// hold the quoted token, the token must be an integer outside int32, and
// the retired parser must not have failed on an earlier line.
func checkRangeError(t *testing.T, text string, err, refErr error) {
	t.Helper()
	line, ok := errLine(err)
	if !ok {
		t.Fatalf("range error without a line: %v", err)
	}
	msg := err.Error()
	tok, qerr := strconv.Unquote(msg[strings.LastIndex(msg, ": ")+2:])
	if qerr != nil {
		t.Fatalf("range error does not quote its token: %v", err)
	}
	x, aerr := strconv.Atoi(tok)
	if aerr != nil || (x >= math.MinInt32 && x <= math.MaxInt32) {
		t.Fatalf("range error on token %q, which is not an out-of-range integer", tok)
	}
	src := strings.Split(text, "\n")
	if line > len(src) || !slices.Contains(strings.Fields(stripComment(src[line-1])), tok) {
		t.Fatalf("range error names line %d, which does not hold %q\ninput %q", line, tok, text)
	}
	if refLine, ok := errLine(refErr); ok && refLine < line {
		t.Fatalf("retired parser failed earlier (%v) than the range error (%v)", refErr, err)
	}
}

// errLine extracts the line number of a "spec:<line>:" error.
func errLine(err error) (int, bool) {
	if err == nil {
		return 0, false
	}
	rest, ok := strings.CutPrefix(err.Error(), "spec:")
	if !ok {
		return 0, false
	}
	n, _, ok := strings.Cut(rest, ":")
	if !ok {
		return 0, false
	}
	line, aerr := strconv.Atoi(n)
	return line, aerr == nil
}

func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func cloneBlocks(blocks []FactorBlock) []FactorBlock {
	out := make([]FactorBlock, len(blocks))
	for i, b := range blocks {
		out[i] = FactorBlock{Rows: slices.Clone(b.Rows), Values: slices.Clone(b.Values)}
	}
	return out
}

func compareDocuments(t *testing.T, doc *Document, ref *refDocument, text string) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("document differs from the retired parser's: "+format+"\ninput %q", append(args, text)...)
	}
	if doc.Domain != ref.Domain || doc.Dataset != ref.Dataset || !slices.Equal(doc.Vars, ref.Vars) {
		fail("header %q %q %v, want %q %q %v", doc.Domain, doc.Dataset, doc.Vars, ref.Domain, ref.Dataset, ref.Vars)
	}
	if len(doc.Blocks) != len(ref.Blocks) {
		fail("%d blocks, want %d", len(doc.Blocks), len(ref.Blocks))
	}
	for i, b := range doc.Blocks {
		rb := ref.Blocks[i]
		var flat []int32
		for _, tup := range rb.Tuples {
			for _, x := range tup {
				flat = append(flat, int32(x))
			}
		}
		if !slices.Equal(b.Vars, rb.Vars) || !slices.Equal(b.VarIDs, rb.VarIDs) || b.Ref != rb.Ref || b.Line != rb.Line {
			fail("block %d header %v %v %q %d, want %v %v %q %d",
				i, b.Vars, b.VarIDs, b.Ref, b.Line, rb.Vars, rb.VarIDs, rb.Ref, rb.Line)
		}
		if !slices.Equal(b.Rows, flat) || !slices.Equal(b.Values, rb.Values) {
			fail("block %d rows %v %q, want %v %q", i, b.Rows, b.Values, flat, rb.Values)
		}
		for r := range rb.ValueLines {
			if got := doc.rowLine(&doc.Blocks[i], r); got != rb.ValueLines[r] {
				fail("block %d row %d on line %d, want %d", i, r, got, rb.ValueLines[r])
			}
		}
	}
}

func compareBuilt[V any](t *testing.T, dom, text string,
	q *core.Query[V], lay [][]int, err error,
	rq *core.Query[V], rlay [][]int, rerr error, eq func(a, b V) bool) {

	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s build differs from the retired path's: "+format+"\ninput %q", append([]any{dom}, append(args, text)...)...)
	}
	if !sameError(err, rerr) {
		fail("error %v, want %v", err, rerr)
	}
	if err != nil {
		return
	}
	if q.NVars != rq.NVars || q.NumFree != rq.NumFree || !slices.Equal(q.Names, rq.Names) ||
		!slices.Equal(q.DomSizes, rq.DomSizes) {
		fail("variables %d/%d %v %v, want %d/%d %v %v",
			q.NVars, q.NumFree, q.Names, q.DomSizes, rq.NVars, rq.NumFree, rq.Names, rq.DomSizes)
	}
	for i, a := range q.Aggs {
		ra := rq.Aggs[i]
		if a.Kind != ra.Kind || (a.Op == nil) != (ra.Op == nil) || a.Op != nil && a.Op.Name != ra.Op.Name {
			fail("aggregate %d differs", i)
		}
	}
	if !slices.EqualFunc(lay, rlay, slices.Equal[[]int]) {
		fail("layout %v, want %v", lay, rlay)
	}
	if len(q.Factors) != len(rq.Factors) {
		fail("%d factors, want %d", len(q.Factors), len(rq.Factors))
	}
	for i, f := range q.Factors {
		rf := rq.Factors[i]
		if !slices.Equal(f.Vars, rf.Vars) || !slices.Equal(f.Rows(), rf.Rows()) ||
			!slices.EqualFunc(f.Values, rf.Values, eq) {
			fail("factor %d: %v %v %v, want %v %v %v", i, f.Vars, f.Rows(), f.Values, rf.Vars, rf.Rows(), rf.Values)
		}
	}
}

// FuzzSpecDifferential runs arbitrary bytes through the one-pass parser and
// the retired one (see checkAgainstRetired) and fails on any disagreement.
func FuzzSpecDifferential(f *testing.F) {
	for _, s := range specSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstRetired(t, string(data))
	})
}

// TestParserAgreesWithRetired runs every fuzz seed and a generated corpus
// of well-formed and corrupted specs through checkAgainstRetired.
func TestParserAgreesWithRetired(t *testing.T) {
	for _, s := range specSeeds {
		checkAgainstRetired(t, s)
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 3000; i++ {
		checkAgainstRetired(t, genSpec(rng))
	}
}

// genSpec writes a random spec: a random domain, variables, inline and
// reference blocks and rows, with comments, blank lines, CRLF endings,
// ASCII and Unicode whitespace, and now and then a corrupted byte.
func genSpec(rng *rand.Rand) string {
	pick := func(xs ...string) string { return xs[rng.Intn(len(xs))] }
	sep := func() string {
		if rng.Intn(8) == 0 {
			return pick("\t", "  ", "\v", "\f", "\r", " ", "\u0085", "   ")
		}
		return " "
	}
	var b strings.Builder
	eol := func() {
		switch rng.Intn(12) {
		case 0:
			b.WriteString("  # note = 1 2")
		case 1:
			b.WriteString("\r")
		case 2:
			b.WriteString("\n")
		}
		b.WriteString("\n")
	}
	line := func(tokens ...string) {
		if rng.Intn(10) == 0 {
			b.WriteString(sep())
		}
		for i, tok := range tokens {
			if i > 0 {
				b.WriteString(sep())
			}
			b.WriteString(tok)
		}
		eol()
	}

	dom := pick(Domains...)
	if rng.Intn(3) > 0 {
		line("domain", dom)
	}
	if rng.Intn(6) == 0 {
		line("use", "g")
	}
	aggs := map[string][]string{
		DomainFloat: {"sum", "max"}, DomainInt: {"sum", "max"},
		DomainBool: {"or"}, DomainTropical: {"min"},
	}[dom]
	nv := 1 + rng.Intn(4)
	doms := make([]int, nv)
	nfree := rng.Intn(nv + 1)
	for v := range doms {
		doms[v] = 1 + rng.Intn(4)
		agg := pick(append(aggs, "prod")...)
		if v < nfree {
			agg = "free"
		}
		if rng.Intn(25) == 0 {
			agg = pick("sum", "min", "or", "avg", "free")
		}
		line("var", "v"+strconv.Itoa(v), strconv.Itoa(doms[v]), agg)
	}
	nb := 1 + rng.Intn(3)
	for bi := 0; bi < nb; bi++ {
		vars := rng.Perm(nv)[:1+rng.Intn(nv)]
		head := []string{"factor"}
		for _, v := range vars {
			head = append(head, "v"+strconv.Itoa(v))
		}
		if rng.Intn(8) == 0 {
			line(append(head, "@"+strconv.Itoa(bi))...)
			continue
		}
		line(head...)
		nr := rng.Intn(7)
		for r := 0; r < nr; r++ {
			if rng.Intn(8) == 0 {
				line("#", "comment", "inside", "the", "block")
			}
			row := make([]string, 0, len(vars)+2)
			for _, v := range vars {
				x := strconv.Itoa(rng.Intn(doms[v]))
				if rng.Intn(40) == 0 {
					x = pick("-1", "7", "+1", "01", "2147483647", "2147483648", "-2147483649", "x")
				}
				row = append(row, x)
			}
			row = append(row, "=", pick("1", "0", "2", "-3", "1.5", "inf", "-inf", "NaN",
				"true", "false", "1e400", "0x10", "+7", "9223372036854775808", "y"))
			line(row...)
		}
		if rng.Intn(12) > 0 {
			line("end")
		}
	}
	text := b.String()
	if rng.Intn(4) == 0 && strings.HasSuffix(text, "\n") {
		text = strings.TrimSuffix(text, "\n")
	}
	if rng.Intn(5) == 0 && len(text) > 0 {
		i := rng.Intn(len(text))
		if rng.Intn(2) == 0 {
			text = text[:i] + text[i+1:]
		} else {
			text = text[:i] + pick("=", "#", " ", "\n", "@", "-", "9", "end\n", "\xff") + text[i:]
		}
	}
	return text
}
