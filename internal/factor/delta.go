// Delta batches: the factor-level half of incremental view maintenance.
// A Delta is one validated batch of row changes against a single factor;
// ApplyDelta merges it into the sorted flat block in one linear pass and
// returns a new factor (bases are immutable — the engine's trie cache and
// concurrent readers may still hold the old one).  DeltaFactor extracts the
// algebraic difference new ⊖ old as a factor of its own, which is what ring
// Δ-propagation joins against the unchanged inputs.
package factor

import (
	"errors"
	"fmt"
	"sort"

	"github.com/faqdb/faq/internal/semiring"
	"github.com/faqdb/faq/internal/sortx"
)

// Sentinel errors for delta validation, matched with errors.Is.
var (
	// ErrDeltaArity reports a batch whose row block does not match the
	// factor's arity (or whose value count does not match its row count).
	ErrDeltaArity = errors.New("factor: delta arity mismatch")
	// ErrDeltaDup reports a batch listing the same row twice: the merge
	// would have to pick an order, so the batch is rejected instead.
	ErrDeltaDup = errors.New("factor: duplicate row in delta batch")
	// ErrDeltaAbsent reports a delete of a row the factor does not hold.
	ErrDeltaAbsent = errors.New("factor: delete of absent row")
	// ErrDeltaRange reports a key outside the variable's domain.
	ErrDeltaRange = errors.New("factor: delta key outside variable domain")
)

// DeltaOp says what a delta batch does to its rows.  The numeric values
// are shared with the wire encoding of delta frames.
type DeltaOp byte

const (
	// DeltaInsert upserts rows: present rows take the batch value, absent
	// rows are added.  A zero batch value removes the row (the listing
	// representation never stores zeros).
	DeltaInsert DeltaOp = 1
	// DeltaDelete removes rows; every row must be present.
	DeltaDelete DeltaOp = 2
)

// Valid reports whether the op byte is a known delta operation.
func (o DeltaOp) Valid() bool { return o == DeltaInsert || o == DeltaDelete }

// String names the op for error messages.
func (o DeltaOp) String() string {
	switch o {
	case DeltaInsert:
		return "insert"
	case DeltaDelete:
		return "delete"
	}
	return fmt.Sprintf("DeltaOp(%d)", byte(o))
}

// Delta is one batch of row changes against a single factor: a row-major
// block with the factor's arity, plus parallel values for inserts (deletes
// carry none).  Rows need not be sorted; ApplyDelta sorts a copy.
type Delta[V any] struct {
	Op     DeltaOp
	Rows   []int32
	Values []V
}

// NumRows returns the number of rows in the batch for the given arity.
func (dl *Delta[V]) NumRows(arity int) int {
	if arity == 0 {
		return 0
	}
	return len(dl.Rows) / arity
}

// check validates batch shape against the factor's arity and, when
// domSizes is non-nil (one entry per factor variable, aligned with Vars),
// that every key lies inside its variable's domain.  It returns the batch
// rows in sorted order along with the matching value permutation.
func (dl *Delta[V]) check(arity int, domSizes []int) (rows []int32, vals []V, err error) {
	if !dl.Op.Valid() {
		return nil, nil, fmt.Errorf("%w: unknown op %d", ErrDeltaArity, byte(dl.Op))
	}
	if arity == 0 || len(dl.Rows)%arity != 0 {
		return nil, nil, fmt.Errorf("%w: row block of %d cells for arity %d",
			ErrDeltaArity, len(dl.Rows), arity)
	}
	n := len(dl.Rows) / arity
	switch dl.Op {
	case DeltaInsert:
		if len(dl.Values) != n {
			return nil, nil, fmt.Errorf("%w: %d values for %d insert rows",
				ErrDeltaArity, len(dl.Values), n)
		}
	case DeltaDelete:
		if len(dl.Values) != 0 {
			return nil, nil, fmt.Errorf("%w: delete batch carries %d values",
				ErrDeltaArity, len(dl.Values))
		}
	}
	if domSizes != nil {
		if len(domSizes) != arity {
			return nil, nil, fmt.Errorf("%w: %d domain sizes for arity %d",
				ErrDeltaArity, len(domSizes), arity)
		}
		for i, x := range dl.Rows {
			if s := domSizes[i%arity]; x < 0 || int(x) >= s {
				return nil, nil, fmt.Errorf("%w: key %d at column %d, domain size %d",
					ErrDeltaRange, x, i%arity, s)
			}
		}
	}
	order := argsortRows(dl.Rows, arity, n, true)
	rows = sortx.GatherRows(dl.Rows, arity, order)
	for i := 1; i < n; i++ {
		if row := rows[i*arity : i*arity+arity]; compareRows(rows[(i-1)*arity:i*arity], row) == 0 {
			return nil, nil, fmt.Errorf("%w: row %v", ErrDeltaDup, tupleOfRow(row))
		}
	}
	if dl.Op == DeltaInsert {
		vals = sortx.Gather(dl.Values, order)
	}
	return rows, vals, nil
}

func tupleOfRow(row []int32) []int {
	t := make([]int, len(row))
	for i, x := range row {
		t[i] = int(x)
	}
	return t
}

// ApplyDelta merges a batch into the factor and returns the result as a
// NEW factor; the receiver is never mutated.  Inserts upsert (a zero value
// removes the row), deletes require the row to be present.  When domSizes
// is non-nil (one size per factor variable) every key is bounds-checked
// against it.  The merge is one linear pass over block and batch, so the
// result block stays strictly sorted by construction.
func (f *Factor[V]) ApplyDelta(d *semiring.Domain[V], dl Delta[V], domSizes []int) (*Factor[V], error) {
	k := len(f.Vars)
	rows, vals, err := dl.check(k, domSizes)
	if err != nil {
		return nil, err
	}
	n := f.Size()
	m := len(rows) / k
	out := &Factor[V]{
		Vars:   append([]int(nil), f.Vars...),
		Values: make([]V, 0, n+m),
		rows:   make([]int32, 0, (n+m)*k),
	}
	i, j := 0, 0
	for i < n && j < m {
		c := compareRows(f.rows[i*k:i*k+k], rows[j*k:j*k+k])
		switch {
		case c < 0: // only in the old block: keep
			out.rows = append(out.rows, f.rows[i*k:i*k+k]...)
			out.Values = append(out.Values, f.Values[i])
			i++
		case c > 0: // only in the batch
			if dl.Op == DeltaDelete {
				return nil, fmt.Errorf("%w: row %v", ErrDeltaAbsent, tupleOfRow(rows[j*k:j*k+k]))
			}
			if !d.IsZero(vals[j]) {
				out.rows = append(out.rows, rows[j*k:j*k+k]...)
				out.Values = append(out.Values, vals[j])
			}
			j++
		default: // in both: the batch wins
			if dl.Op == DeltaInsert && !d.IsZero(vals[j]) {
				out.rows = append(out.rows, rows[j*k:j*k+k]...)
				out.Values = append(out.Values, vals[j])
			}
			i++
			j++
		}
	}
	for ; i < n; i++ {
		out.rows = append(out.rows, f.rows[i*k:i*k+k]...)
		out.Values = append(out.Values, f.Values[i])
	}
	for ; j < m; j++ {
		if dl.Op == DeltaDelete {
			return nil, fmt.Errorf("%w: row %v", ErrDeltaAbsent, tupleOfRow(rows[j*k:j*k+k]))
		}
		if !d.IsZero(vals[j]) {
			out.rows = append(out.rows, rows[j*k:j*k+k]...)
			out.Values = append(out.Values, vals[j])
		}
	}
	return out, nil
}

// DeltaFactor returns the algebraic difference the batch induces, as a
// factor Δψ with Δψ(r) = new(r) ⊖ old(r) over exactly the batch's rows
// (rows whose value does not change are dropped).  inverse is the ⊕-group
// subtraction (a ⊖ b); ψ_after = ψ_before ⊕ Δψ pointwise.  Validation
// matches ApplyDelta so the two views of a batch always agree.
func (f *Factor[V]) DeltaFactor(d *semiring.Domain[V], inverse func(a, b V) V,
	dl Delta[V], domSizes []int) (*Factor[V], error) {

	k := len(f.Vars)
	rows, vals, err := dl.check(k, domSizes)
	if err != nil {
		return nil, err
	}
	m := len(rows) / k
	out := &Factor[V]{Vars: append([]int(nil), f.Vars...)}
	for j := 0; j < m; j++ {
		row := rows[j*k : j*k+k]
		old := f.ValueOrZero(d, tupleOfRow(row))
		next := d.Zero
		if dl.Op == DeltaInsert {
			next = vals[j]
		} else if _, ok := f.find(tupleOfRow(row)); !ok {
			return nil, fmt.Errorf("%w: row %v", ErrDeltaAbsent, tupleOfRow(row))
		}
		dv := inverse(next, old)
		if d.IsZero(dv) {
			continue
		}
		out.rows = append(out.rows, row...)
		out.Values = append(out.Values, dv)
	}
	return out, nil
}

// Add returns ψ ⊕ φ pointwise over two factors on the same variable set:
// a linear merge of the two sorted blocks, dropping rows that combine to
// zero.  This is how a Δ-propagated result folds back into the cached one.
func (f *Factor[V]) Add(d *semiring.Domain[V], combine func(a, b V) V, g *Factor[V]) *Factor[V] {
	k := len(f.Vars)
	if len(g.Vars) != k {
		panic(fmt.Sprintf("factor: Add over mismatched variable sets %v vs %v", f.Vars, g.Vars))
	}
	for i := range f.Vars {
		if f.Vars[i] != g.Vars[i] {
			panic(fmt.Sprintf("factor: Add over mismatched variable sets %v vs %v", f.Vars, g.Vars))
		}
	}
	n, m := f.Size(), g.Size()
	out := &Factor[V]{
		Vars:   append([]int(nil), f.Vars...),
		Values: make([]V, 0, n+m),
		rows:   make([]int32, 0, (n+m)*k),
	}
	emit := func(row []int32, v V) {
		if d.IsZero(v) {
			return
		}
		out.rows = append(out.rows, row...)
		out.Values = append(out.Values, v)
	}
	i, j := 0, 0
	for i < n && j < m {
		fr, gr := f.rows[i*k:i*k+k], g.rows[j*k:j*k+k]
		switch c := compareRows(fr, gr); {
		case c < 0:
			emit(fr, f.Values[i])
			i++
		case c > 0:
			emit(gr, g.Values[j])
			j++
		default:
			emit(fr, combine(f.Values[i], g.Values[j]))
			i++
			j++
		}
	}
	for ; i < n; i++ {
		emit(f.rows[i*k:i*k+k], f.Values[i])
	}
	for ; j < m; j++ {
		emit(g.rows[j*k:j*k+k], g.Values[j])
	}
	return out
}

// RestrictRange returns the rows whose value for variable v lies in
// [lo, hi).  Filtering preserves the sorted row order, so the result block
// needs no re-sort; this is the slicing primitive behind affected-block
// re-execution, where v is the partition variable of the block layout.
// When v is the leading column the matching rows are one contiguous span,
// found by binary search and copied whole; other columns are scanned.
func (f *Factor[V]) RestrictRange(v int, lo, hi int32) *Factor[V] {
	pos := f.VarPos(v)
	if pos < 0 {
		panic(fmt.Sprintf("factor: RestrictRange variable %d not in factor over %v", v, f.Vars))
	}
	out := &Factor[V]{Vars: append([]int(nil), f.Vars...)}
	k := len(f.Vars)
	if pos == 0 {
		n := len(f.Values)
		from := sort.Search(n, func(i int) bool { return f.rows[i*k] >= lo })
		to := from + sort.Search(n-from, func(i int) bool { return f.rows[(from+i)*k] >= hi })
		if to > from {
			out.rows = make([]int32, (to-from)*k)
			copy(out.rows, f.rows[from*k:to*k])
			out.Values = make([]V, to-from)
			copy(out.Values, f.Values[from:to])
		}
		return out
	}
	for i := 0; i < len(f.Values); i++ {
		x := f.rows[i*k+pos]
		if x < lo || x >= hi {
			continue
		}
		out.rows = append(out.rows, f.rows[i*k:i*k+k]...)
		out.Values = append(out.Values, f.Values[i])
	}
	return out
}

// KeyRange returns the minimum and maximum value variable v takes in the
// batch's rows, for dirtying only the blocks a delta can touch.  ok is
// false when the batch is empty or v is not a factor variable.
func (dl *Delta[V]) KeyRange(vars []int, v, arity int) (lo, hi int32, ok bool) {
	pos := -1
	for i, u := range vars {
		if u == v {
			pos = i
			break
		}
	}
	if pos < 0 || arity == 0 || len(dl.Rows) < arity {
		return 0, 0, false
	}
	lo, hi = dl.Rows[pos], dl.Rows[pos]
	for i := pos; i < len(dl.Rows); i += arity {
		if x := dl.Rows[i]; x < lo {
			lo = x
		} else if x > hi {
			hi = x
		}
	}
	return lo, hi, true
}
