package factor

import (
	"math"
	"sort"
	"testing"
)

// refNew is the map-based reference construction the flat New replaced:
// drop zeros on input, combine duplicates into their first occurrence in
// input order, drop zeros produced by combining, sort rows
// lexicographically.  FuzzFactorNew holds the columnar implementation to
// bit-identical agreement with it.
func refNew(vars []int, tuples [][]int, values []float64,
	combine func(a, b float64) float64) (outTuples [][]int, outValues []float64, dupErr bool) {

	type row struct {
		t []int
		v float64
	}
	index := map[string]int{}
	var rows []row
	enc := func(t []int) string {
		b := make([]byte, 0, len(t)*4)
		for _, x := range t {
			b = append(b, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
		}
		return string(b)
	}
	for i, t := range tuples {
		if values[i] == 0 {
			continue
		}
		k := enc(t)
		if at, ok := index[k]; ok {
			if combine == nil {
				return nil, nil, true
			}
			rows[at].v = combine(rows[at].v, values[i])
			continue
		}
		index[k] = len(rows)
		rows = append(rows, row{t: append([]int(nil), t...), v: values[i]})
	}
	kept := rows[:0]
	for _, r := range rows {
		if r.v != 0 {
			kept = append(kept, r)
		}
	}
	sort.SliceStable(kept, func(a, b int) bool {
		for i := range kept[a].t {
			if kept[a].t[i] != kept[b].t[i] {
				return kept[a].t[i] < kept[b].t[i]
			}
		}
		return false
	})
	for _, r := range kept {
		outTuples = append(outTuples, r.t)
		outValues = append(outValues, r.v)
	}
	return outTuples, outValues, false
}

// decodeFuzzFactor turns raw fuzz bytes into (vars, tuples, values): byte 0
// picks the arity (0..3), then each row consumes arity tuple bytes (values
// 0..7, so collisions are frequent) plus one signed value byte in −2..2 —
// zeros exercise zero-dropping, ±x pairs exercise cancellation.
func decodeFuzzFactor(data []byte) (vars []int, tuples [][]int, values []float64) {
	if len(data) == 0 {
		return []int{}, nil, nil
	}
	arity := int(data[0]) % 4
	data = data[1:]
	vars = make([]int, arity)
	for i := range vars {
		vars[i] = i * 2 // sorted, non-contiguous ids
	}
	rowBytes := arity + 1
	for len(data) >= rowBytes && len(tuples) < 512 {
		t := make([]int, arity)
		for j := 0; j < arity; j++ {
			t[j] = int(data[j]) % 8
		}
		values = append(values, float64(int(data[arity])%5-2))
		tuples = append(tuples, t)
		data = data[rowBytes:]
	}
	return vars, tuples, values
}

// FuzzFactorNew differential-tests the columnar constructor against the
// map-based reference: zero-dropping, duplicate-combining (in input order,
// so float accumulation is bit-identical), row sorting and binary-search
// lookup must all agree, for both the [][]int and the flat-block entry
// points.
func FuzzFactorNew(f *testing.F) {
	f.Add([]byte{2, 1, 2, 3, 1, 2, 1, 1, 2, 200})
	f.Add([]byte{0, 1, 2})
	f.Add([]byte{1, 4, 1, 4, 255, 4, 0})
	f.Add([]byte{3, 1, 1, 1, 1, 1, 1, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		vars, tuples, values := decodeFuzzFactor(data)
		combine := func(a, b float64) float64 { return a + b }

		wantTuples, wantValues, _ := refNew(vars, tuples, values, combine)
		got, err := New(fd, vars, tuples, values, combine)
		if err != nil {
			t.Fatalf("New failed on fuzz input: %v", err)
		}
		if got.Size() != len(wantValues) {
			t.Fatalf("size %d, reference %d", got.Size(), len(wantValues))
		}
		for i := 0; i < got.Size(); i++ {
			row := got.Tuple(i, nil)
			for j := range row {
				if row[j] != wantTuples[i][j] {
					t.Fatalf("row %d = %v, reference %v", i, row, wantTuples[i])
				}
			}
			if math.Float64bits(got.Values[i]) != math.Float64bits(wantValues[i]) {
				t.Fatalf("value %d = %v, reference %v (accumulation order changed)",
					i, got.Values[i], wantValues[i])
			}
			if i > 0 && compareRows(got.Row(i-1), got.Row(i)) >= 0 {
				t.Fatalf("rows %d,%d out of order: %v then %v", i-1, i, got.Row(i-1), got.Row(i))
			}
			if v, ok := got.Value(wantTuples[i]); !ok || math.Float64bits(v) != math.Float64bits(wantValues[i]) {
				t.Fatalf("lookup(%v) = %v,%v, reference %v", wantTuples[i], v, ok, wantValues[i])
			}
		}

		// The flat-block constructor must agree with the [][]int one.
		rows := make([]int32, 0, len(tuples)*len(vars))
		for _, tup := range tuples {
			for _, x := range tup {
				rows = append(rows, int32(x))
			}
		}
		gotFlat, err := NewRows(fd, vars, rows, append([]float64(nil), values...), combine)
		if err != nil {
			t.Fatalf("NewRows failed on fuzz input: %v", err)
		}
		if !got.Equal(fd, gotFlat) {
			t.Fatalf("NewRows diverged from New:\n%v\n%v", gotFlat, got)
		}

		checkRestrictRange(t, got, -1, 9)

		// Duplicate detection without a combiner must agree too.
		_, _, wantDup := refNew(vars, tuples, values, nil)
		_, err = New(fd, vars, tuples, values, nil)
		if wantDup != (err != nil) {
			t.Fatalf("nil-combine duplicate error = %v, reference %v", err, wantDup)
		}
	})
}
