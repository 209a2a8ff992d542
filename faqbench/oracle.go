package main

// The oracles below compute every expected answer with plain loops over the
// benchmark's own edge sets.  None of them calls into the program: a fault
// shared by the daemon and its own reference code cannot hide here.

import "math"

// triangleSum is Σ_{x,y,z} R(x,y)·S(y,z)·T(x,z), per x (listing) and in
// total, by adjacency-set intersection: for each edge (x,y) of R, the
// common z of S[y] and T[x].  The cheaper side is scanned and the other
// probed, which keeps heavy-hitter pairs from dominating.
func triangleSum(r, s, t *relation) (perX []float64, total float64) {
	sa, ta := s.adjacency(), t.adjacency()
	perX = make([]float64, r.n)
	mark := make([]float64, r.n) // T(x, z) for the current x, 0 when absent
	ra := r.adjacency()
	for x := range ra.nbr {
		if len(ra.nbr[x]) == 0 || len(ta.nbr[x]) == 0 {
			continue
		}
		for i, z := range ta.nbr[x] {
			mark[z] = ta.w[x][i]
		}
		var acc float64
		for j, y := range ra.nbr[x] {
			rw := ra.w[x][j]
			var inner float64
			if len(sa.nbr[y]) <= len(ta.nbr[x]) {
				for k, z := range sa.nbr[y] {
					if tw := mark[z]; tw != 0 {
						inner += sa.w[y][k] * tw
					}
				}
			} else {
				for i, z := range ta.nbr[x] {
					if k, ok := find(sa.nbr[y], z); ok {
						inner += sa.w[y][k] * ta.w[x][i]
					}
				}
			}
			acc += rw * inner
		}
		for _, z := range ta.nbr[x] {
			mark[z] = 0
		}
		perX[x] = acc
		total += acc
	}
	return perX, total
}

// triangleMin is min_{x,y,z} R(x,y)+S(y,z)+T(x,z) per x and overall: the
// tropical triangle.  Absent x rows are +Inf.
func triangleMin(r, s, t *relation) (perX []float64, best float64) {
	sa, ta := s.adjacency(), t.adjacency()
	perX = make([]float64, r.n)
	best = math.Inf(1)
	ra := r.adjacency()
	for x := range ra.nbr {
		perX[x] = math.Inf(1)
		for j, y := range ra.nbr[x] {
			// Merge the two sorted neighbour lists S[y] and T[x].
			ys, xs := sa.nbr[y], ta.nbr[x]
			for p, q := 0, 0; p < len(ys) && q < len(xs); {
				switch {
				case ys[p] < xs[q]:
					p++
				case ys[p] > xs[q]:
					q++
				default:
					if c := ra.w[x][j] + sa.w[y][p] + ta.w[x][q]; c < perX[x] {
						perX[x] = c
					}
					p++
					q++
				}
			}
		}
		if perX[x] < best {
			best = perX[x]
		}
	}
	return perX, best
}

// find binary-searches a sorted neighbour list.
func find(xs []int32, v int32) (int, bool) {
	lo, hi := 0, len(xs)
	for lo < hi {
		m := (lo + hi) / 2
		if xs[m] < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(xs) && xs[lo] == v
}

// starSum is Σ_c Σ_l1 Σ_l2 Σ_l3 R1(c,l1)·R2(c,l2)·R3(c,l3) by nested loops:
// for each centre, the product of its three out-weight sums.
func starSum(rels [3]*relation) float64 {
	n := rels[0].n
	var out [3][]float64
	for i, r := range rels {
		out[i] = make([]float64, n)
		for k := range r.a {
			out[i][r.a[k]] += r.w[k]
		}
	}
	var total float64
	for c := 0; c < n; c++ {
		total += out[0][c] * out[1][c] * out[2][c]
	}
	return total
}

// chainSum is Σ_{a,b,c,d} R1(a,b)·R2(b,c)·R3(c,d): for each middle edge
// (b,c), the in-weight of b under R1 times the out-weight of c under R3.
func chainSum(rels [3]*relation) float64 {
	n := rels[0].n
	in, out := make([]float64, n), make([]float64, n)
	for k := range rels[0].a {
		in[rels[0].b[k]] += rels[0].w[k]
	}
	for k := range rels[2].a {
		out[rels[2].a[k]] += rels[2].w[k]
	}
	var total float64
	for k := range rels[1].a {
		total += in[rels[1].a[k]] * rels[1].w[k] * out[rels[1].b[k]]
	}
	return total
}
