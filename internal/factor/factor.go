// Package factor implements the listing representation of FAQ factors
// (Definition 4.1 of the paper): a factor ψ_S is stored as the table of
// tuples 〈x_S, ψ_S(x_S)〉 with ψ_S(x_S) ≠ 0; absent tuples are 0.  The
// package provides the primitive operations InsideOut needs — conditional
// lookup, indicator projection (Definition 4.2), product marginalization
// (the "factor oracle" assumptions of Section 8.1), pointwise powering for
// product aggregates (Section 5.2.2) — plus aggregation helpers used by
// baseline algorithms.
//
// Data layout: rows live in one contiguous row-major []int32 block (Arity
// columns per row, rows in strict lexicographic order, parallel to Values).
// Point lookups are binary searches over the sorted block — there is no
// hash index — and the grouping operations (Marginalize,
// ProductMarginalize, IndicatorProjection) work by sorting projected rows
// and folding contiguous runs instead of accumulating into string-keyed
// maps.  The flat block is what the join package's CSR tries are built
// from in a single O(n) pass.
package factor

import (
	"fmt"
	"math"
	"sort"

	"github.com/faqdb/faq/internal/semiring"
	"github.com/faqdb/faq/internal/sortx"
)

// Factor is a function ψ over Vars in listing representation.  Vars are
// global variable ids in strictly increasing order; each row assigns a
// domain value (small int) to the corresponding variable.  Rows are unique,
// lexicographically sorted, and values are non-zero.  The zero Factor value
// is an empty (identically zero) factor over no variables.
type Factor[V any] struct {
	Vars   []int
	Values []V

	rows []int32 // row-major block: len(Values) rows × len(Vars) columns
}

// New builds a factor from parallel tuple/value slices, dropping zero
// values, combining duplicate tuples with ⊕ (combine may be nil, in which
// case duplicates are an error) and sorting rows lexicographically.
func New[V any](d *semiring.Domain[V], vars []int, tuples [][]int, values []V,
	combine func(a, b V) V) (*Factor[V], error) {

	if err := checkVars(vars); err != nil {
		return nil, err
	}
	if len(tuples) != len(values) {
		return nil, fmt.Errorf("factor: %d tuples but %d values", len(tuples), len(values))
	}
	k := len(vars)
	rows := make([]int32, 0, len(tuples)*k)
	vals := make([]V, 0, len(values))
	for i, t := range tuples {
		if len(t) != k {
			return nil, fmt.Errorf("factor: tuple %v has arity %d, want %d", t, len(t), k)
		}
		if d.IsZero(values[i]) {
			continue
		}
		for _, x := range t {
			if x < math.MinInt32 || x > math.MaxInt32 {
				return nil, fmt.Errorf("factor: tuple %v exceeds the int32 domain-value range", t)
			}
			rows = append(rows, int32(x))
		}
		vals = append(vals, values[i])
	}
	return build(d, vars, rows, vals, combine)
}

// NewRows is New over an already-flat row block: len(rows) must be
// len(values)×len(vars) and rows is consumed (the factor takes ownership).
// It is the allocation-free construction path for scan outputs and network
// decoders that produce columnar data directly.
func NewRows[V any](d *semiring.Domain[V], vars []int, rows []int32, values []V,
	combine func(a, b V) V) (*Factor[V], error) {

	if err := checkVars(vars); err != nil {
		return nil, err
	}
	if len(rows) != len(values)*len(vars) {
		return nil, fmt.Errorf("factor: row block has %d cells for %d values of arity %d",
			len(rows), len(values), len(vars))
	}
	f := &Factor[V]{Vars: vars, Values: values, rows: rows}
	f.compact(d)
	return build(d, vars, f.rows, f.Values, combine)
}

func checkVars(vars []int) error {
	if !sort.IntsAreSorted(vars) {
		return fmt.Errorf("factor: variables %v not sorted", vars)
	}
	for i := 1; i < len(vars); i++ {
		if vars[i] == vars[i-1] {
			return fmt.Errorf("factor: duplicate variable %d", vars[i])
		}
	}
	return nil
}

// build finishes construction from a zero-free row block: rows are sorted
// (stably, so duplicates keep input order and combine left to right exactly
// as the map-based accumulation did) and gathered into exact-size blocks,
// adjacent duplicates are folded with combine, and zeros produced by
// combining are dropped.  Already strictly sorted blocks — scan outputs
// emitted in lexicographic order — skip all three passes.
func build[V any](d *semiring.Domain[V], vars []int, rows []int32, values []V,
	combine func(a, b V) V) (*Factor[V], error) {

	f := &Factor[V]{Vars: vars, Values: values, rows: rows}
	k := len(vars)
	if f.strictlySorted() {
		return f, nil
	}
	order := argsortRows(rows, k, len(values), true) // stable: duplicates fold in input order
	f.rows = sortx.GatherRows(rows, k, order)
	f.Values = sortx.Gather(values, order)
	if err := f.foldDuplicates(combine); err != nil {
		return nil, err
	}
	if combine != nil {
		f.compact(d) // combining may have produced zeros (e.g. +1 and -1)
	}
	return f, nil
}

// foldDuplicates folds each run of equal adjacent rows of the sorted block
// into its first row, combining values left to right; with a nil combine
// any duplicate is an error.  Rows before the first duplicate stay put.
func (f *Factor[V]) foldDuplicates(combine func(a, b V) V) error {
	k := len(f.Vars)
	w := 1 // rows [0, w) are kept and unique
	for i := 1; i < len(f.Values); i++ {
		row := f.rows[i*k : i*k+k]
		if compareRows(f.rows[(w-1)*k:w*k], row) == 0 {
			if combine == nil {
				return fmt.Errorf("factor: duplicate tuple %v", f.tupleOf(row))
			}
			f.Values[w-1] = combine(f.Values[w-1], f.Values[i])
			continue
		}
		if w != i {
			copy(f.rows[w*k:w*k+k], row)
			f.Values[w] = f.Values[i]
		}
		w++
	}
	if w < len(f.Values) {
		f.rows = f.rows[:w*k]
		f.Values = f.Values[:w]
	}
	return nil
}

// MustNew is New that panics on error; for tests and literals.
func MustNew[V any](d *semiring.Domain[V], vars []int, tuples [][]int, values []V) *Factor[V] {
	f, err := New(d, vars, tuples, values, nil)
	if err != nil {
		panic(err)
	}
	return f
}

// FromFunc materializes ψ over the full box Π dom(vars[i]) keeping non-zero
// entries: the bridge from "truth table" representations (dense matrices,
// CPTs) into the listing representation (Section 8.2).  Enumeration is
// lexicographic, so the block is born sorted.
func FromFunc[V any](d *semiring.Domain[V], vars []int, domSizes []int, f func(tuple []int) V) *Factor[V] {
	if err := checkVars(vars); err != nil {
		panic(fmt.Sprintf("factor: FromFunc %v", err))
	}
	out := &Factor[V]{Vars: append([]int(nil), vars...)}
	tuple := make([]int, len(vars))
	var rec func(i int)
	rec = func(i int) {
		if i == len(vars) {
			v := f(tuple)
			if !d.IsZero(v) {
				for _, x := range tuple {
					out.rows = append(out.rows, int32(x))
				}
				out.Values = append(out.Values, v)
			}
			return
		}
		for x := 0; x < domSizes[vars[i]]; x++ {
			tuple[i] = x
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// Scalar returns a nullary factor with the given value (or an empty factor
// if the value is zero).
func Scalar[V any](d *semiring.Domain[V], v V) *Factor[V] {
	f := &Factor[V]{Vars: []int{}}
	if !d.IsZero(v) {
		f.Values = []V{v}
	}
	return f
}

// compact drops zero-valued rows in place.  A block without zeros — every
// scan output and most parsed data — is left untouched, and otherwise only
// the rows after the first zero move.
func (f *Factor[V]) compact(d *semiring.Domain[V]) {
	w := 0
	for w < len(f.Values) && !d.IsZero(f.Values[w]) {
		w++
	}
	if w == len(f.Values) {
		return
	}
	k := len(f.Vars)
	for i := w + 1; i < len(f.Values); i++ {
		if v := f.Values[i]; !d.IsZero(v) {
			copy(f.rows[w*k:w*k+k], f.rows[i*k:i*k+k])
			f.Values[w] = v
			w++
		}
	}
	f.rows = f.rows[:w*k]
	f.Values = f.Values[:w]
}

// strictlySorted reports whether the block is already in strict ascending
// row order (sorted and duplicate-free).
func (f *Factor[V]) strictlySorted() bool {
	k := len(f.Vars)
	if k == 0 {
		return len(f.Values) <= 1
	}
	for i := 1; i < len(f.Values); i++ {
		if compareRows(f.rows[(i-1)*k:i*k], f.rows[i*k:i*k+k]) >= 0 {
			return false
		}
	}
	return true
}

// compareRows lexicographically compares two equal-length rows.
func compareRows(a, b []int32) int {
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// compareRowTuple compares a stored row against an []int probe tuple.
func compareRowTuple(row []int32, t []int) int {
	for i := range row {
		if int(row[i]) != t[i] {
			if int(row[i]) < t[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Size returns ‖ψ‖, the number of non-zero tuples.
func (f *Factor[V]) Size() int { return len(f.Values) }

// Arity returns the number of variables.
func (f *Factor[V]) Arity() int { return len(f.Vars) }

// Rows exposes the contiguous row-major block (Size()×Arity() cells).
// Callers must treat it as read-only; the join package builds its CSR tries
// straight from this block.
func (f *Factor[V]) Rows() []int32 { return f.rows }

// Row returns row i as a view into the block; it must not be mutated.
func (f *Factor[V]) Row(i int) []int32 {
	k := len(f.Vars)
	return f.rows[i*k : i*k+k]
}

// Tuple copies row i into buf (grown as needed) and returns it as []int.
func (f *Factor[V]) Tuple(i int, buf []int) []int {
	buf = buf[:0]
	for _, x := range f.Row(i) {
		buf = append(buf, int(x))
	}
	return buf
}

// Tuples materializes every row as a fresh [][]int — the compatibility and
// serialization view of the block.  Hot paths should iterate Row/Rows
// instead.
func (f *Factor[V]) Tuples() [][]int {
	out := make([][]int, f.Size())
	for i := range out {
		out[i] = f.Tuple(i, make([]int, 0, len(f.Vars)))
	}
	return out
}

func (f *Factor[V]) tupleOf(row []int32) []int {
	t := make([]int, len(row))
	for i, x := range row {
		t[i] = int(x)
	}
	return t
}

// find binary-searches the sorted block for a tuple aligned with Vars.  A
// probe of the wrong arity is simply absent, as it was for the map index.
func (f *Factor[V]) find(tuple []int) (int, bool) {
	k := len(f.Vars)
	if len(tuple) != k {
		return 0, false
	}
	if k == 0 {
		return 0, len(f.Values) > 0
	}
	i := sort.Search(len(f.Values), func(i int) bool {
		return compareRowTuple(f.rows[i*k:i*k+k], tuple) >= 0
	})
	if i < len(f.Values) && compareRowTuple(f.rows[i*k:i*k+k], tuple) == 0 {
		return i, true
	}
	return i, false
}

// Value looks up ψ(tuple) where tuple is aligned with Vars.  The second
// result reports whether the tuple is present (absent means 0).
func (f *Factor[V]) Value(tuple []int) (V, bool) {
	if i, ok := f.find(tuple); ok {
		return f.Values[i], true
	}
	var zero V
	return zero, false
}

// ValueOrZero returns ψ(tuple), using the domain's zero for absent tuples.
func (f *Factor[V]) ValueOrZero(d *semiring.Domain[V], tuple []int) V {
	if v, ok := f.Value(tuple); ok {
		return v
	}
	return d.Zero
}

// At evaluates ψ under a full assignment to all query variables
// (assignment[v] = value of variable v).
func (f *Factor[V]) At(d *semiring.Domain[V], assignment []int) V {
	tuple := make([]int, len(f.Vars))
	for i, v := range f.Vars {
		tuple[i] = assignment[v]
	}
	return f.ValueOrZero(d, tuple)
}

// VarPos returns the position of variable v in Vars, or -1.
func (f *Factor[V]) VarPos(v int) int {
	for i, u := range f.Vars {
		if u == v {
			return i
		}
	}
	return -1
}

// Clone returns a deep copy (values copied shallowly; value types are
// treated as immutable throughout the engine).
func (f *Factor[V]) Clone() *Factor[V] {
	return &Factor[V]{
		Vars:   append([]int(nil), f.Vars...),
		Values: append([]V(nil), f.Values...),
		rows:   append([]int32(nil), f.rows...),
	}
}

// keepPositions returns the positions of f.Vars retained by a projection
// onto the given variable set, plus the projected variable list.
func (f *Factor[V]) keepPositions(onto []int) (keep []int, vars []int) {
	ontoSet := map[int]bool{}
	for _, v := range onto {
		ontoSet[v] = true
	}
	for i, v := range f.Vars {
		if ontoSet[v] {
			keep = append(keep, i)
			vars = append(vars, v)
		}
	}
	return keep, vars
}

// isPrefix reports whether keep is exactly positions 0..len(keep)-1: such
// projections preserve lexicographic row order, so grouping needs no
// re-sort.
func isPrefix(keep []int) bool {
	for i, p := range keep {
		if p != i {
			return false
		}
	}
	return true
}

// projectRows builds the flat projected block (len(keep) columns).
func (f *Factor[V]) projectRows(keep []int) []int32 {
	k := len(f.Vars)
	out := make([]int32, 0, len(f.Values)*len(keep))
	for i := 0; i < len(f.Values); i++ {
		row := f.rows[i*k : i*k+k]
		for _, p := range keep {
			out = append(out, row[p])
		}
	}
	return out
}

// groupOrder returns row indices ordered by projected-row content, stable by
// row index, so each group is contiguous and folds in original row order —
// the same accumulation sequence the map-based grouping used.  A nil return
// means rows are already grouped in place (order-preserving projection).
func groupOrder(proj []int32, m, n int, prefix bool) []int32 {
	if prefix {
		return nil
	}
	return argsortRows(proj, m, n, true)
}

// argsortRows returns the row indices of an n×k block in lexicographic row
// order; stable guarantees equal rows keep their input order (required
// wherever duplicates fold in input order).  The work happens in the shared
// packed-key radix kernel, which goes chunk-parallel on very large blocks.
func argsortRows(rows []int32, k, n int, stable bool) []int32 {
	return sortx.Argsort(rows, k, n, stable)
}

// foldGroups iterates the projected rows group by group (a group is a
// maximal run of equal projected rows, visited in original row order) and
// calls emit once per group with the group's row and member indices.
func foldGroups(proj []int32, m, n int, order []int32, emit func(row []int32, members []int32)) {
	if n == 0 {
		return
	}
	at := func(i int) int32 {
		if order == nil {
			return int32(i)
		}
		return order[i]
	}
	var members []int32
	start := at(0)
	cur := proj[int(start)*m : int(start)*m+m]
	members = append(members, start)
	for i := 1; i < n; i++ {
		o := at(i)
		row := proj[int(o)*m : int(o)*m+m]
		if compareRows(cur, row) == 0 {
			members = append(members, o)
			continue
		}
		emit(cur, members)
		cur = row
		members = append(members[:0], o)
	}
	emit(cur, members)
}

// IndicatorProjection returns ψ_{S/T} of Definition 4.2: the {0,1}-valued
// function on S ∩ T that is One wherever some extension of the tuple has
// ψ ≠ 0.  The intersection must be non-empty.
func (f *Factor[V]) IndicatorProjection(d *semiring.Domain[V], onto []int) *Factor[V] {
	keep, vars := f.keepPositions(onto)
	out := &Factor[V]{Vars: vars}
	m := len(keep)
	n := f.Size()
	proj := f.projectRows(keep)
	order := groupOrder(proj, m, n, isPrefix(keep))
	foldGroups(proj, m, n, order, func(row []int32, _ []int32) {
		out.rows = append(out.rows, row...)
		out.Values = append(out.Values, d.One)
	})
	return out
}

// ProductMarginalize computes ψ'_{S−{v}}(x_{S−v}) = ⊗_{x_v ∈ Dom(X_v)} ψ(x_S)
// (Section 5.2.2, "product marginalization").  Groups that do not cover the
// full domain of v contain a zero entry, so their product is zero and they
// are dropped — this realizes the product-marginalization oracle assumption
// (Assumption 2) on listing factors.
func (f *Factor[V]) ProductMarginalize(d *semiring.Domain[V], v, domSize int) *Factor[V] {
	keep, vars, _ := f.dropPosition(v)
	out := &Factor[V]{Vars: vars}
	m := len(keep)
	n := f.Size()
	proj := f.projectRows(keep)
	order := groupOrder(proj, m, n, isPrefix(keep))
	foldGroups(proj, m, n, order, func(row []int32, members []int32) {
		if len(members) < domSize {
			return // an unlisted x_v is a zero entry: the product is zero
		}
		p := d.One
		for _, i := range members {
			p = d.Mul(p, f.Values[i])
		}
		if d.IsZero(p) {
			return
		}
		out.rows = append(out.rows, row...)
		out.Values = append(out.Values, p)
	})
	return out
}

// Marginalize aggregates variable v out with ⊕: ψ'(x_{S−v}) = ⊕_{x_v} ψ(x_S).
// Unlisted entries are zeros and contribute the identity of ⊕.
func (f *Factor[V]) Marginalize(d *semiring.Domain[V], op *semiring.Op[V], v int) *Factor[V] {
	keep, vars, _ := f.dropPosition(v)
	out := &Factor[V]{Vars: vars}
	m := len(keep)
	n := f.Size()
	proj := f.projectRows(keep)
	order := groupOrder(proj, m, n, isPrefix(keep))
	foldGroups(proj, m, n, order, func(row []int32, members []int32) {
		acc := f.Values[members[0]]
		for _, i := range members[1:] {
			acc = op.Combine(acc, f.Values[i])
		}
		if d.IsZero(acc) {
			return
		}
		out.rows = append(out.rows, row...)
		out.Values = append(out.Values, acc)
	})
	return out
}

// dropPosition returns the kept positions and variable list with v removed.
func (f *Factor[V]) dropPosition(v int) (keep []int, vars []int, pos int) {
	pos = f.VarPos(v)
	if pos < 0 {
		panic(fmt.Sprintf("factor: variable %d not in factor over %v", v, f.Vars))
	}
	keep = make([]int, 0, len(f.Vars)-1)
	vars = make([]int, 0, len(f.Vars)-1)
	for i, u := range f.Vars {
		if i != pos {
			keep = append(keep, i)
			vars = append(vars, u)
		}
	}
	return keep, vars, pos
}

// PowValues raises every non-⊗-idempotent value to the k-th power in place
// (Algorithm 1, lines 16–17).  It returns the receiver.
func (f *Factor[V]) PowValues(d *semiring.Domain[V], k int) *Factor[V] {
	for i, v := range f.Values {
		if d.MulIdempotent(v) {
			continue
		}
		f.Values[i] = d.Pow(v, k)
	}
	f.compact(d)
	return f
}

// RangeIdempotent reports whether every value of ψ is ⊗-idempotent
// (Definition 5.2); such factors pass unchanged through product aggregates.
func (f *Factor[V]) RangeIdempotent(d *semiring.Domain[V]) bool {
	for _, v := range f.Values {
		if !d.MulIdempotent(v) {
			return false
		}
	}
	return true
}

// Condition returns ψ(· | y_W): rows matching the partial assignment keep
// their value, all others are dropped (Section 4.1).  W is given as a
// map from variable id to value; variables absent from the factor are
// ignored per the conditional-factor definition.  Filtering preserves the
// sorted row order.
func (f *Factor[V]) Condition(assign map[int]int) *Factor[V] {
	var positions []int
	var want []int32
	for i, v := range f.Vars {
		if val, ok := assign[v]; ok {
			if val < math.MinInt32 || val > math.MaxInt32 {
				// Stored values always fit int32, so an out-of-range probe
				// matches nothing — don't let the conversion wrap.
				return &Factor[V]{Vars: append([]int(nil), f.Vars...)}
			}
			positions = append(positions, i)
			want = append(want, int32(val))
		}
	}
	out := &Factor[V]{Vars: append([]int(nil), f.Vars...)}
	k := len(f.Vars)
	for i := 0; i < len(f.Values); i++ {
		row := f.rows[i*k : i*k+k]
		ok := true
		for j, p := range positions {
			if row[p] != want[j] {
				ok = false
				break
			}
		}
		if ok {
			out.rows = append(out.rows, row...)
			out.Values = append(out.Values, f.Values[i])
		}
	}
	return out
}

// Rename returns a copy of the factor with every variable v replaced by
// mapping[v], re-sorting columns to keep Vars ascending.  The mapping must
// be injective on the factor's variables.
func (f *Factor[V]) Rename(mapping []int) *Factor[V] {
	vars := make([]int, len(f.Vars))
	for i, v := range f.Vars {
		vars[i] = mapping[v]
	}
	perm := make([]int, len(vars)) // positions ordered by new variable id
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return vars[perm[a]] < vars[perm[b]] })
	newVars := make([]int, len(vars))
	for i, p := range perm {
		newVars[i] = vars[p]
	}
	for i := 1; i < len(newVars); i++ {
		if newVars[i] == newVars[i-1] {
			panic(fmt.Sprintf("factor: Rename mapping collides on variable %d", newVars[i]))
		}
	}
	k := len(f.Vars)
	rows := make([]int32, 0, len(f.rows))
	for r := 0; r < len(f.Values); r++ {
		row := f.rows[r*k : r*k+k]
		for _, p := range perm {
			rows = append(rows, row[p])
		}
	}
	out := &Factor[V]{Vars: newVars, Values: append([]V(nil), f.Values...), rows: rows}
	out.sortUnique()
	return out
}

// sortUnique re-sorts the block lexicographically.  Rows must be unique
// (they are whenever columns were permuted injectively), so the comparator
// is a strict total order and the permutation is deterministic.
func (f *Factor[V]) sortUnique() {
	if f.strictlySorted() {
		return
	}
	k := len(f.Vars)
	order := argsortRows(f.rows, k, len(f.Values), false) // rows unique: no tie-break needed
	f.rows = sortx.GatherRows(f.rows, k, order)
	f.Values = sortx.Gather(f.Values, order)
}

// Equal reports whether two factors define the same function (same variable
// set, same non-zero tuples, equal values).  Both blocks are sorted and
// duplicate-free, so equality is one linear pass.
func (f *Factor[V]) Equal(d *semiring.Domain[V], g *Factor[V]) bool {
	if len(f.Vars) != len(g.Vars) || len(f.Values) != len(g.Values) {
		return false
	}
	for i := range f.Vars {
		if f.Vars[i] != g.Vars[i] {
			return false
		}
	}
	for i := range f.rows {
		if f.rows[i] != g.rows[i] {
			return false
		}
	}
	for i := range f.Values {
		if !d.Equal(f.Values[i], g.Values[i]) {
			return false
		}
	}
	return true
}

// String renders a small factor for debugging.
func (f *Factor[V]) String() string {
	s := fmt.Sprintf("ψ%v[%d rows]", f.Vars, f.Size())
	if f.Size() <= 8 {
		for i := 0; i < f.Size(); i++ {
			s += fmt.Sprintf(" %v=%v", f.Tuple(i, nil), f.Values[i])
		}
	}
	return s
}
