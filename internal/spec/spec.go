// Package spec parses a small text format describing FAQ queries, used by
// cmd/faqrun, cmd/faqplan and the faqd serving daemon.
//
// Format (line oriented, '#' starts a comment):
//
//	domain <name>                  # optional, first; float (default),
//	                               # int, bool or tropical
//	use <dataset>                  # optional: name a server-resident dataset
//	var <name> <domSize> <agg>     # agg ∈ free | prod | <domain aggregate>
//	factor <name> <name> ...       # starts a factor block over those vars
//	<v1> <v2> ... = <value>        # one listed tuple per line
//	end                            # closes the factor block
//	factor <name> <name> ... @<i>  # whole block: factor i of the used
//	                               # dataset, columns in declaration order
//
// The domain directive selects the value algebra of the whole query and
// with it the lawful aggregates and the value syntax:
//
//	domain    values               aggregates (besides free, prod)
//	float     float64 literals     sum, max
//	int       int64 literals       sum, max
//	bool      true/false or 1/0    or
//	tropical  float64 literals     min        (the (min, +) semiring)
//
// "min" over the float domain is rejected with an explanatory error:
// min-product over the reals is not a lawful FAQ semiring (the shared
// additive identity is 0 and min(x, 0) ≠ x); lawful min-product is the
// tropical domain, where ⊗ is + and the additive identity is +∞.
//
// Variables must be declared with all free variables first (the FAQ normal
// form of Eq. (1)); factors may list variables in any order.
//
// A factor line ending in @<ref> declares no inline data: its rows come
// from the named dataset's factor <ref> (server-resident, zero factor
// bytes on the wire), with stored columns interpreted in the block's
// declaration order exactly like shipped factor frames.  Such references
// require a preceding use directive, and building them requires a
// Resolver (the serving tier supplies one backed by its dataset store).
//
// Parsing is two-phase: ParseDocument reads the text into an untyped
// Document (syntax and structure only), and the per-domain builders
// (BuildFloat, BuildInt, BuildBool, BuildTropical) instantiate a typed
// core.Query from it.  The split is what multi-domain serving dispatches
// on: faqd parses once, reads Document.Domain, and routes to the engine
// handle of the matching value type.  ParseDocument is the only parser.
//
// Listed tuples go straight into the data plane's representation.  The
// text is read once into one string and tokenised in place: tokens split
// on whitespace exactly as strings.Fields splits them, rows land in one
// flat []int32 block per factor (a tuple value outside the int32 range is
// a spec:<line> error), and value tokens are substrings of the text.  A
// build permutes each block once into the stored column order and hands
// it to factor.NewRows.  No line length is capped here; faqd bounds the
// whole spec by its request body limit (MaxBodyBytes).
package spec

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"github.com/faqdb/faq/internal/core"
	"github.com/faqdb/faq/internal/factor"
	"github.com/faqdb/faq/internal/semiring"
)

// Canonical domain names, the accepted operands of the domain directive.
const (
	// DomainFloat is the real sum/max-product domain (float64, ·).
	DomainFloat = "float"
	// DomainInt is the counting domain (int64, ·) of #CQ / #QCQ.
	DomainInt = "int"
	// DomainBool is the Boolean domain ({false, true}, ∨, ∧).
	DomainBool = "bool"
	// DomainTropical is the min-plus semiring (R ∪ {+∞}, min, +).
	DomainTropical = "tropical"
)

// Domains lists the canonical domain names in directive order.
var Domains = []string{DomainFloat, DomainInt, DomainBool, DomainTropical}

// Document is a parsed spec before domain instantiation: structure and
// syntax are checked, values are still raw tokens (their grammar belongs
// to the domain).  Build it into a typed query with one of the Build
// methods matching Domain.
type Document struct {
	// Domain is the canonical value-domain name; DomainFloat when the
	// directive is absent.
	Domain string
	// Dataset is the name from the use directive, "" when absent.  Blocks
	// with a non-empty Ref draw their data from this dataset.
	Dataset string
	// Vars are the variable declarations in declaration (= expression)
	// order.
	Vars []VarDecl
	// Blocks are the factor blocks in declaration order.
	Blocks []FactorBlock

	src string // the parsed text; Blocks' value tokens point into it
}

// VarDecl is one var line.
type VarDecl struct {
	// Name is the variable's spec name.
	Name string
	// Dom is the domain size (the variable ranges over 0..Dom-1).
	Dom int
	// Agg is the raw aggregate token: "free", "prod", or a domain
	// aggregate name ("sum", "max", "min", "or").
	Agg string
	// Line is the source line of the declaration, for error messages.
	Line int
}

// FactorBlock is one factor block: variables and tuple columns in
// *declaration order* (the column order of the block's data lines), values
// as raw tokens.
type FactorBlock struct {
	// Vars are the block's variable names in declaration order.
	Vars []string
	// VarIDs are the corresponding variable indices (positions in
	// Document.Vars), parallel to Vars.
	VarIDs []int
	// Rows are the data rows as one flat row-major block, len(Vars)
	// cells per row, columns in declaration order and rows in listing
	// order.
	Rows []int32
	// Values are the raw value tokens, one per row, as substrings of the
	// parsed text.
	Values []string
	// Ref is the dataset factor reference of an @<ref> block ("" for an
	// inline block, the token after '@' otherwise).  Ref blocks carry no
	// Rows or Values; their data is resolved at build time.
	Ref string
	// Line is the source line of the factor directive, for error
	// messages.
	Line int
}

// ParseDocument reads a spec into its untyped Document form, checking
// syntax and structure (declaration order, arity, known variables, the
// int32 range of tuple values) but not domain semantics: aggregate
// lawfulness and value grammar are checked by the Build methods, which
// know the value algebra.
func ParseDocument(r io.Reader) (*Document, error) {
	var sb strings.Builder
	if _, err := io.Copy(&sb, r); err != nil {
		return nil, err
	}
	return parse(sb.String())
}

// errTupleRange marks a listed tuple value outside the int32 range the
// data plane stores.
var errTupleRange = errors.New("tuple value outside the int32 range")

// parse is ParseDocument over the whole text.  Lines are cut with
// IndexByte and tokenised in place, every token a substring of src; the
// rows of all blocks share one flat arena that each block slices at the
// end, so a listed tuple costs no allocation of its own.
func parse(src string) (*Document, error) {
	doc := &Document{Domain: DomainFloat, src: src}
	names := map[string]int{}
	numFree := 0
	sawDomain := false
	var (
		fields []string // the current line's tokens, reused line to line
		rows   []int32  // every inline block's cells, in declaration order
		values []string // every inline block's value tokens
		starts []int    // per block: the index in values of its first row
	)

	lineNo := 0
	var blk *FactorBlock // nil when outside a factor block
	for rest := src; rest != ""; {
		var line string
		line, rest = nextLine(rest)
		lineNo++
		fields = appendFields(fields[:0], stripComment(line))
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
			blk = &FactorBlock{Line: lineNo, Ref: ref}
			starts = append(starts, len(values))
			for _, name := range varNames {
				v, ok := names[name]
				if !ok {
					return nil, fmt.Errorf("spec:%d: unknown variable %q", lineNo, name)
				}
				blk.Vars = append(blk.Vars, name)
				blk.VarIDs = append(blk.VarIDs, v)
			}
			if ref != "" {
				// A reference block is complete on its factor line: no data
				// lines, no end.
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
			k := len(blk.Vars)
			eq := -1
			for i, f := range fields {
				if f == "=" {
					eq = i
					break
				}
			}
			if eq != k || len(fields) != eq+2 {
				return nil, fmt.Errorf("spec:%d: want '%d values = weight'", lineNo, k)
			}
			for _, tok := range fields[:k] {
				x, err := strconv.Atoi(tok)
				if err != nil {
					return nil, fmt.Errorf("spec:%d: bad value %q", lineNo, tok)
				}
				if x < math.MinInt32 || x > math.MaxInt32 {
					return nil, fmt.Errorf("spec:%d: %w: %q", lineNo, errTupleRange, tok)
				}
				rows = append(rows, int32(x))
			}
			values = append(values, fields[k+1])
		}
	}
	if blk != nil {
		return nil, fmt.Errorf("spec: unterminated factor block")
	}
	cell := 0 // the index in rows of the current block's first cell
	for i := range doc.Blocks {
		b := &doc.Blocks[i]
		lo, hi := starts[i], len(values)
		if i+1 < len(starts) {
			hi = starts[i+1]
		}
		end := cell + (hi-lo)*len(b.Vars)
		b.Rows = rows[cell:end:end]
		b.Values = values[lo:hi:hi]
		cell = end
	}
	return doc, nil
}

// nextLine cuts the first line off text, dropping its '\n'.  A trailing
// '\r' stays: it is whitespace to appendFields, as to strings.Fields.
func nextLine(text string) (line, rest string) {
	if i := strings.IndexByte(text, '\n'); i >= 0 {
		return text[:i], text[i+1:]
	}
	return text, ""
}

// stripComment drops everything from the first '#'.
func stripComment(line string) string {
	if i := strings.IndexByte(line, '#'); i >= 0 {
		return line[:i]
	}
	return line
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// appendFields appends line's tokens to dst exactly as strings.Fields
// splits them, as substrings of line.  ASCII lines split in place; a line
// holding any other byte goes to strings.Fields itself, whose Unicode
// spaces (U+0085, U+00A0, ...) and invalid-UTF-8 rules then apply.
func appendFields(dst []string, line string) []string {
	n := len(dst)
	start := -1
	for i := 0; i < len(line); i++ {
		c := line[i]
		if c >= utf8.RuneSelf {
			return append(dst[:n], strings.Fields(line)...)
		}
		if asciiSpace[c] {
			if start >= 0 {
				dst = append(dst, line[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}

// Resolver supplies the factor data of an @<ref> block from an external
// source (the serving tier's dataset store).  declVars are the block's
// variable ids in declaration order — the column order of the stored
// rows, exactly as for shipped factor frames — and the returned factor
// must carry those variables sorted ascending (permuting columns as
// needed).  The Build methods fail on any reference block when no
// resolver is supplied.
type Resolver[V any] func(d *semiring.Domain[V], ref string, declVars []int) (*factor.Factor[V], error)

// StubResolver resolves every reference to an empty factor over the
// declared variables: the right resolver for shape-only consumers
// (/v1/plan), where factor data never influences the output.
func StubResolver[V any]() Resolver[V] {
	return func(d *semiring.Domain[V], _ string, declVars []int) (*factor.Factor[V], error) {
		sorted := append([]int(nil), declVars...)
		sort.Ints(sorted)
		return factor.New(d, sorted, nil, nil, nil)
	}
}

// NumFree counts the leading free variables.
func (doc *Document) NumFree() int {
	n := 0
	for _, v := range doc.Vars {
		if v.Agg != "free" {
			break
		}
		n++
	}
	return n
}

// BuildFloat instantiates the document over the real domain (float64, ·)
// with sum/max aggregates.  The layout result holds each factor's
// variables in declaration order, the column order of its data lines:
// factors in the query carry sorted variables with permuted rows, and
// callers accepting out-of-band data in spec column order (the faqd
// `factors` request field and binary factor frames) need the declared
// layout to apply the same permutation.  An optional Resolver
// supplies the data of @<ref> blocks; without one, reference blocks are a
// build error.
func (doc *Document) BuildFloat(resolve ...Resolver[float64]) (*core.Query[float64], [][]int, error) {
	if err := doc.requireDomain(DomainFloat); err != nil {
		return nil, nil, err
	}
	return buildQuery(doc, semiring.Float(), floatAgg, parseFloatValue, pickResolver(resolve))
}

// BuildInt instantiates the document over the counting domain (int64, ·)
// with sum/max aggregates.
func (doc *Document) BuildInt(resolve ...Resolver[int64]) (*core.Query[int64], [][]int, error) {
	if err := doc.requireDomain(DomainInt); err != nil {
		return nil, nil, err
	}
	return buildQuery(doc, semiring.Int(), intAgg, parseIntValue, pickResolver(resolve))
}

// BuildBool instantiates the document over the Boolean domain (∨, ∧).
func (doc *Document) BuildBool(resolve ...Resolver[bool]) (*core.Query[bool], [][]int, error) {
	if err := doc.requireDomain(DomainBool); err != nil {
		return nil, nil, err
	}
	return buildQuery(doc, semiring.Bool(), boolAgg, parseBoolValue, pickResolver(resolve))
}

// BuildTropical instantiates the document over the tropical semiring
// (min, +): values are path costs, min is the lawful aggregate, and the
// additive identity is +∞ ("inf" in spec text).
func (doc *Document) BuildTropical(resolve ...Resolver[float64]) (*core.Query[float64], [][]int, error) {
	if err := doc.requireDomain(DomainTropical); err != nil {
		return nil, nil, err
	}
	return buildQuery(doc, semiring.Tropical(), tropicalAgg, parseFloatValue, pickResolver(resolve))
}

// pickResolver unwraps the optional variadic resolver argument.
func pickResolver[V any](rs []Resolver[V]) Resolver[V] {
	if len(rs) > 0 {
		return rs[0]
	}
	return nil
}

func (doc *Document) requireDomain(want string) error {
	if doc.Domain != want {
		return fmt.Errorf("spec: document declares domain %q, not %q", doc.Domain, want)
	}
	return nil
}

// buildQuery instantiates a Document over one value algebra: aggregates
// through aggOf, value tokens through parseVal, and each inline block's
// rows permuted once, from declaration order to the sorted variable order
// factors store, into the fresh row block factor.NewRows takes over.  It
// is the permutation faqd applies to out-of-band factor data, so inline
// and shipped data mean the same thing.  The document is not modified:
// one Document may be built in several domains.
func buildQuery[V any](doc *Document, d *semiring.Domain[V],
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
	for bi := range doc.Blocks {
		blk := &doc.Blocks[bi]
		perm := make([]int, len(blk.VarIDs))
		for i := range perm {
			perm[i] = i
		}
		slices.SortFunc(perm, func(a, b int) int { return cmp.Compare(blk.VarIDs[a], blk.VarIDs[b]) })
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
		values := make([]V, len(blk.Values))
		for i, tok := range blk.Values {
			v, err := parseVal(tok)
			if err != nil {
				return nil, nil, fmt.Errorf("spec:%d: bad %s weight %q", doc.rowLine(blk, i), doc.Domain, tok)
			}
			values[i] = v
		}
		k := len(perm)
		rows := make([]int32, len(blk.Rows))
		for r := 0; r < len(rows); r += k {
			src, dst := blk.Rows[r:r+k], rows[r:r+k]
			for j, p := range perm {
				dst[j] = src[p]
			}
		}
		f, err := factor.NewRows(d, sortedVars, rows, values, nil)
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

// rowLine returns the source line of data row i of blk: the i-th line
// holding a token after the block's factor directive.  Rows carry no line
// numbers of their own; only error messages need one, so the text is
// walked again instead.
func (doc *Document) rowLine(blk *FactorBlock, i int) int {
	lineNo := 0
	for rest := doc.src; rest != ""; {
		var line string
		line, rest = nextLine(rest)
		lineNo++
		if lineNo <= blk.Line || strings.TrimSpace(stripComment(line)) == "" {
			continue
		}
		if i == 0 {
			return lineNo
		}
		i--
	}
	return blk.Line
}

func floatAgg(s string) (core.Aggregate[float64], error) {
	switch s {
	case "free":
		return core.Free[float64](), nil
	case "sum":
		return core.SemiringAgg(semiring.OpFloatSum()), nil
	case "max":
		return core.SemiringAgg(semiring.OpFloatMax()), nil
	case "min":
		// Rejected at build time rather than at Validate time: min over
		// (float64, ·, 0) is not a lawful FAQ aggregate (min(x, 0) = 0 ≠ x).
		// The lawful alternative is one directive away.
		return core.Aggregate[float64]{}, fmt.Errorf(
			"aggregate \"min\" is not a lawful semiring over the real product " +
				"(min(x, 0) = 0 ≠ x); lawful min-product is the tropical semiring " +
				"(min, +) — declare 'domain tropical'")
	case "prod":
		return core.ProductAgg[float64](), nil
	}
	return core.Aggregate[float64]{}, fmt.Errorf("unknown aggregate %q for domain float (want free|sum|max|prod)", s)
}

func intAgg(s string) (core.Aggregate[int64], error) {
	switch s {
	case "free":
		return core.Free[int64](), nil
	case "sum":
		return core.SemiringAgg(semiring.OpIntSum()), nil
	case "max":
		return core.SemiringAgg(semiring.OpIntMax()), nil
	case "prod":
		return core.ProductAgg[int64](), nil
	}
	return core.Aggregate[int64]{}, fmt.Errorf("unknown aggregate %q for domain int (want free|sum|max|prod)", s)
}

func boolAgg(s string) (core.Aggregate[bool], error) {
	switch s {
	case "free":
		return core.Free[bool](), nil
	case "or":
		return core.SemiringAgg(semiring.OpOr()), nil
	case "prod":
		return core.ProductAgg[bool](), nil
	}
	return core.Aggregate[bool]{}, fmt.Errorf("unknown aggregate %q for domain bool (want free|or|prod)", s)
}

func tropicalAgg(s string) (core.Aggregate[float64], error) {
	switch s {
	case "free":
		return core.Free[float64](), nil
	case "min":
		return core.SemiringAgg(semiring.OpTropicalMin()), nil
	case "prod":
		return core.ProductAgg[float64](), nil
	}
	return core.Aggregate[float64]{}, fmt.Errorf("unknown aggregate %q for domain tropical (want free|min|prod)", s)
}

func parseFloatValue(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

func parseIntValue(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) }

func parseBoolValue(s string) (bool, error) {
	switch s {
	case "1", "true":
		return true, nil
	case "0", "false":
		return false, nil
	}
	return false, fmt.Errorf("bad bool %q", s)
}
