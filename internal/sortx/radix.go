// The LSD radix kernel: each row packs into a compact key built from the
// bits that actually vary across the block, then counting passes over
// n-sized digits permute keys between ping-pong buffers from the least
// significant digit up.  Counting sort is stable, so the composed
// permutation is the stable lexicographic argsort.
package sortx

import "math/bits"

// maxDigitBits caps a counting pass's digit: 2^11 buckets of int32 is an
// 8 KiB histogram, and 2048 scatter streams still fit a core's L2.
const maxDigitBits = 11

// span is one column's varying bit span: after the sign flip, bits above
// and below it are constant across the block, so (u >> shift) & mask
// orders the column exactly as its full value does.
type span struct {
	shift uint
	mask  uint64
	width uint // bits.OnesCount64(mask)
}

// radixArgsort returns the stable lexicographic argsort of n rows of
// width k.
//
// A first scan OR- and AND-accumulates each column over sign-flipped
// values (so unsigned order equals signed column order); the bits where
// the accumulators disagree bound the column's varying span, and every
// bit outside it is constant and cannot change the order.  Each row's key
// is the concatenation of its columns' spans, first column most
// significant — one shift-and-mask per column.  Small domains give narrow
// spans (13 bits for a domain of 8192), so the key usually fits one
// uint64 together with the row index; then the key is sorted in place of
// the (key, index) pair.  Wider keys (high arity over large domains) pack
// into as many words as they need.  Digits are sized to n: a pass costs
// O(n + 2^digit), so small blocks take narrow digits and large blocks up
// to maxDigitBits, in as few passes as the key's width allows.
func radixArgsort(rows []int32, k, n int) []int32 {
	if n == 0 {
		return []int32{}
	}
	ors := make([]uint32, k)
	ands := make([]uint32, k)
	for c := 0; c < k; c++ {
		u := uint32(rows[c]) ^ 0x80000000
		ors[c], ands[c] = u, u
	}
	for r := 1; r < n; r++ {
		row := rows[r*k : r*k+k]
		for c, x := range row {
			u := uint32(x) ^ 0x80000000
			ors[c] |= u
			ands[c] &= u
		}
	}
	spans := make([]span, k)
	keyBits := uint(0)
	for c := range spans {
		diff := ors[c] ^ ands[c]
		if diff == 0 {
			continue // constant column: width 0, contributes nothing
		}
		lo := uint(bits.TrailingZeros32(diff))
		w := uint(bits.Len32(diff)) - lo
		spans[c] = span{shift: lo, mask: 1<<w - 1, width: w}
		keyBits += w
	}

	idxBits := uint(bits.Len(uint(n - 1)))
	digit := uint(bits.Len(uint(n))) - 1
	if digit > maxDigitBits {
		digit = maxDigitBits
	}
	if digit < 4 {
		digit = 4
	}
	switch {
	case keyBits == 0:
		// Every row is identical: the stable order is the identity.
		return identity(n)
	case keyBits+idxBits <= 64:
		return packedArgsort(rows, k, n, spans, keyBits, idxBits, digit)
	default:
		return wideArgsort(rows, k, n, spans, keyBits, digit)
	}
}

// passes splits a key of width b bits into the fewest digits of at most
// max bits, balanced so no pass sorts on fewer bits than it must.
func passes(b, max uint) (count, width uint) {
	count = (b + max - 1) / max
	return count, (b + count - 1) / count
}

// packedArgsort is the common case: the key and the row index fit one
// uint64 together (key above, index in the low idxBits), so each counting
// pass moves eight bytes per element and no separate index array exists.
// Equal rows differ only in their index bits, which sit below every digit,
// so the pack scan's ascending-index order plus counting-sort stability
// yields the stable permutation.  The per-pass histograms are built in the
// pack scan.
func packedArgsort(rows []int32, k, n int, spans []span, keyBits, idxBits, maxDigit uint) []int32 {
	m, d := passes(keyBits, maxDigit)
	size := 1 << d
	dmask := uint64(size - 1)
	keysA := make([]uint64, n)
	hist := make([]int32, int(m)*size)
	for i := 0; i < n; i++ {
		row := rows[i*k : i*k+k]
		var key uint64
		for c, s := range spans {
			key = key<<s.width | uint64((uint32(row[c])^0x80000000)>>s.shift)&s.mask
		}
		for t := uint(0); t < m; t++ {
			hist[int(t)*size+int(key>>(t*d)&dmask)]++
		}
		keysA[i] = key<<idxBits | uint64(i)
	}

	out := make([]int32, n)
	imask := uint64(1)<<idxBits - 1
	var keysB []uint64
	if m > 1 {
		keysB = make([]uint64, n)
	}
	offs := make([]int32, size)
	for t := uint(0); t < m; t++ {
		prefixSums(offs, hist[int(t)*size:int(t+1)*size])
		shift := idxBits + t*d
		if t == m-1 {
			for _, key := range keysA {
				b := key >> shift & dmask
				j := offs[b]
				offs[b] = j + 1
				out[j] = int32(key & imask)
			}
			break
		}
		for _, key := range keysA {
			b := key >> shift & dmask
			j := offs[b]
			offs[b] = j + 1
			keysB[j] = key
		}
		keysA, keysB = keysB, keysA
	}
	return out
}

// wideArgsort handles keys that do not fit one word beside the row index:
// each row's key packs into w = ceil(keyBits/64) words, word 0 least
// significant, with a column's span split across two words where it
// straddles a boundary.  Digits never straddle a word, so a pass reads
// one word; every pass moves the whole key alongside its index.
func wideArgsort(rows []int32, k, n int, spans []span, keyBits, maxDigit uint) []int32 {
	w := int(keyBits+63) / 64
	keysA := make([]uint64, n*w)
	for r := 0; r < n; r++ {
		row := rows[r*k : r*k+k]
		kb := keysA[r*w : r*w+w]
		at := keyBits // bit offset just above the next column's span
		for c, s := range spans {
			if s.width == 0 {
				continue
			}
			at -= s.width
			v := uint64((uint32(row[c])^0x80000000)>>s.shift) & s.mask
			word, off := at/64, at%64
			kb[word] |= v << off
			if off+s.width > 64 {
				kb[word+1] |= v >> (64 - off)
			}
		}
	}

	// One pass per digit of each word, least significant word first.
	type pass struct {
		word  int
		shift uint
		mask  uint64
	}
	var plan []pass
	for word := 0; word < w; word++ {
		b := keyBits - uint(word)*64
		if b > 64 {
			b = 64
		}
		m, d := passes(b, maxDigit)
		for t := uint(0); t < m; t++ {
			width := d
			if t*d+width > b {
				width = b - t*d
			}
			plan = append(plan, pass{word, t * d, 1<<width - 1})
		}
	}
	size := 1 << maxDigit
	hist := make([]int32, len(plan)*size)
	for r := 0; r < n; r++ {
		kb := keysA[r*w : r*w+w]
		for t, p := range plan {
			hist[t*size+int(kb[p.word]>>p.shift&p.mask)]++
		}
	}

	idxA := make([]int32, n)
	for i := range idxA {
		idxA[i] = int32(i)
	}
	keysB := make([]uint64, n*w)
	idxB := make([]int32, n)
	offs := make([]int32, size)
	for t, p := range plan {
		prefixSums(offs, hist[t*size:(t+1)*size])
		for i := 0; i < n; i++ {
			kb := keysA[i*w : i*w+w]
			b := kb[p.word] >> p.shift & p.mask
			j := int(offs[b])
			offs[b]++
			copy(keysB[j*w:j*w+w], kb)
			idxB[j] = idxA[i]
		}
		keysA, keysB = keysB, keysA
		idxA, idxB = idxB, idxA
	}
	return idxA
}

// prefixSums writes the exclusive prefix sums of h into offs.
func prefixSums(offs, h []int32) {
	sum := int32(0)
	for i, c := range h {
		offs[i] = sum
		sum += c
	}
}
