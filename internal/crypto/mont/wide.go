package mont

import (
	"math/big"
	"math/bits"
)

// wideWords is the width of the fixed-base and multi-exponentiation
// kernel: 8 words, the 512-bit SG-512 Schnorr-group modulus.
const wideWords = 8

// Wide holds the Montgomery constants for one odd 8-word modulus. It
// carries only the algorithms that beat big.Int.Exp at this width by
// doing fewer multiplications — a fixed-base comb (Comb, ExpCombs) and a
// simultaneous multi-exponentiation (MultiExp) — not a general Exp.
// A Wide is immutable after construction and safe for concurrent use.
type Wide struct {
	kernel[[wideWords]uint64]
}

// NewWide precomputes Montgomery constants for m. It returns nil unless m
// is an odd 8-word value on a 64-bit platform; callers treat nil as "use
// big.Int.Exp".
func NewWide(m *big.Int) *Wide {
	if bits.UintSize != 64 || m == nil || m.Sign() <= 0 || m.Bit(0) == 0 || len(m.Bits()) != wideWords {
		return nil
	}
	w := &Wide{}
	w.init(m)
	return w
}

// Comb is a fixed-base table for one base b with MaxTeeth teeth: entry
// idx holds b^(sum of 2^(32*j) over the set bits j of idx), in
// Montgomery form. It is 16 KiB and immutable once built.
type Comb struct {
	tbl [1 << MaxTeeth][wideWords]uint64
}

// NewComb builds the comb table for base b (any integer; it is reduced
// mod m first).
func (w *Wide) NewComb(b *big.Int) *Comb {
	c := new(Comb)
	w.buildComb(c.tbl[:], b, MaxTeeth)
	return c
}

// ExpCombs returns the product of b_i^es[i] mod m, where combs[i] is the
// table of b_i. The combs share one squaring chain, so k bases cost 31
// squarings plus at most 32k multiplies. It returns nil when any
// exponent lies outside [0, 2^256); the caller then computes the product
// with big.Int.Exp.
func (w *Wide) ExpCombs(combs []*Comb, es []*big.Int) *big.Int {
	var small [2][][wideWords]uint64
	tbls := small[:0]
	for _, c := range combs {
		tbls = append(tbls, c.tbl[:])
	}
	return w.expCombs(tbls, MaxTeeth, es)
}

// MultiExp returns the product of bases[i]^es[i] mod m by Straus's
// simultaneous method: one shared chain of squarings with 4-bit windows,
// so k bases cost about 252 squarings plus 64k multiplies instead of k
// separate exponentiations. Bases may be any integers (they are reduced
// mod m first). It returns nil when any exponent lies outside
// [0, 2^256); the caller then computes the product with big.Int.Exp.
func (w *Wide) MultiExp(bases, es []*big.Int) *big.Int { return w.multiExp(bases, es) }

// mul8 sets z = x*y*R^{-1} mod m: the 8-word CIOS kernel, mul4's scheme
// unrolled at twice the width. Inputs must be < m; the output is < m. z
// may alias x and/or y.
func mul8(w *kernel[[wideWords]uint64], z, x, y *[wideWords]uint64) {
	m0, m1, m2, m3, m4, m5, m6, m7 := w.m[0], w.m[1], w.m[2], w.m[3], w.m[4], w.m[5], w.m[6], w.m[7]
	x0, x1, x2, x3, x4, x5, x6, x7 := x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]
	inv := w.n0inv
	var t0, t1, t2, t3, t4, t5, t6, t7, t8 uint64
	for i := 0; i < 8; i++ {
		yi := y[i]
		var c, cc uint64
		hi, lo := bits.Mul64(x0, yi)
		t0, cc = bits.Add64(t0, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(x1, yi)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t1, cc = bits.Add64(t1, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(x2, yi)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t2, cc = bits.Add64(t2, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(x3, yi)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t3, cc = bits.Add64(t3, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(x4, yi)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t4, cc = bits.Add64(t4, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(x5, yi)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t5, cc = bits.Add64(t5, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(x6, yi)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t6, cc = bits.Add64(t6, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(x7, yi)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t7, cc = bits.Add64(t7, lo, 0)
		c = hi + cc
		t8, cc = bits.Add64(t8, c, 0)
		t9 := cc

		q := t0 * inv
		hi, lo = bits.Mul64(q, m0)
		_, cc = bits.Add64(lo, t0, 0)
		c = hi + cc
		hi, lo = bits.Mul64(q, m1)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t0, cc = bits.Add64(t1, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(q, m2)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t1, cc = bits.Add64(t2, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(q, m3)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t2, cc = bits.Add64(t3, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(q, m4)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t3, cc = bits.Add64(t4, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(q, m5)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t4, cc = bits.Add64(t5, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(q, m6)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t5, cc = bits.Add64(t6, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(q, m7)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t6, cc = bits.Add64(t7, lo, 0)
		c = hi + cc
		t7, cc = bits.Add64(t8, c, 0)
		t8 = t9 + cc
	}
	r0, b := bits.Sub64(t0, m0, 0)
	r1, b := bits.Sub64(t1, m1, b)
	r2, b := bits.Sub64(t2, m2, b)
	r3, b := bits.Sub64(t3, m3, b)
	r4, b := bits.Sub64(t4, m4, b)
	r5, b := bits.Sub64(t5, m5, b)
	r6, b := bits.Sub64(t6, m6, b)
	r7, b := bits.Sub64(t7, m7, b)
	if t8 != 0 || b == 0 {
		z[0], z[1], z[2], z[3], z[4], z[5], z[6], z[7] = r0, r1, r2, r3, r4, r5, r6, r7
	} else {
		z[0], z[1], z[2], z[3], z[4], z[5], z[6], z[7] = t0, t1, t2, t3, t4, t5, t6, t7
	}
}

// sqr8 sets z = x*x*R^{-1} mod m, for x < m; z may alias x. It computes
// the full 16-word square first — each cross product x[i]*x[j] once,
// doubled by a shift, plus the diagonal x[i]^2 — and then Montgomery-
// reduces it a word at a time (separated operand scanning), which needs
// 36 word multiplies for the square instead of mul8's 64.
func sqr8(w *kernel[[wideWords]uint64], z, x *[wideWords]uint64) {
	x0, x1, x2, x3, x4, x5, x6, x7 := x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]
	var t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15, hi, lo, c, cc uint64
	// Cross products x[i]*x[j], i < j, row by row.
	hi, lo = bits.Mul64(x0, x1)
	t1 = lo
	c = hi
	hi, lo = bits.Mul64(x0, x2)
	t2, cc = bits.Add64(lo, c, 0)
	c = hi + cc
	hi, lo = bits.Mul64(x0, x3)
	t3, cc = bits.Add64(lo, c, 0)
	c = hi + cc
	hi, lo = bits.Mul64(x0, x4)
	t4, cc = bits.Add64(lo, c, 0)
	c = hi + cc
	hi, lo = bits.Mul64(x0, x5)
	t5, cc = bits.Add64(lo, c, 0)
	c = hi + cc
	hi, lo = bits.Mul64(x0, x6)
	t6, cc = bits.Add64(lo, c, 0)
	c = hi + cc
	hi, lo = bits.Mul64(x0, x7)
	t7, cc = bits.Add64(lo, c, 0)
	c = hi + cc
	t8 = c
	hi, lo = bits.Mul64(x1, x2)
	t3, cc = bits.Add64(t3, lo, 0)
	c = hi + cc
	hi, lo = bits.Mul64(x1, x3)
	lo, cc = bits.Add64(lo, c, 0)
	hi += cc
	t4, cc = bits.Add64(t4, lo, 0)
	c = hi + cc
	hi, lo = bits.Mul64(x1, x4)
	lo, cc = bits.Add64(lo, c, 0)
	hi += cc
	t5, cc = bits.Add64(t5, lo, 0)
	c = hi + cc
	hi, lo = bits.Mul64(x1, x5)
	lo, cc = bits.Add64(lo, c, 0)
	hi += cc
	t6, cc = bits.Add64(t6, lo, 0)
	c = hi + cc
	hi, lo = bits.Mul64(x1, x6)
	lo, cc = bits.Add64(lo, c, 0)
	hi += cc
	t7, cc = bits.Add64(t7, lo, 0)
	c = hi + cc
	hi, lo = bits.Mul64(x1, x7)
	lo, cc = bits.Add64(lo, c, 0)
	hi += cc
	t8, cc = bits.Add64(t8, lo, 0)
	c = hi + cc
	t9 = c
	hi, lo = bits.Mul64(x2, x3)
	t5, cc = bits.Add64(t5, lo, 0)
	c = hi + cc
	hi, lo = bits.Mul64(x2, x4)
	lo, cc = bits.Add64(lo, c, 0)
	hi += cc
	t6, cc = bits.Add64(t6, lo, 0)
	c = hi + cc
	hi, lo = bits.Mul64(x2, x5)
	lo, cc = bits.Add64(lo, c, 0)
	hi += cc
	t7, cc = bits.Add64(t7, lo, 0)
	c = hi + cc
	hi, lo = bits.Mul64(x2, x6)
	lo, cc = bits.Add64(lo, c, 0)
	hi += cc
	t8, cc = bits.Add64(t8, lo, 0)
	c = hi + cc
	hi, lo = bits.Mul64(x2, x7)
	lo, cc = bits.Add64(lo, c, 0)
	hi += cc
	t9, cc = bits.Add64(t9, lo, 0)
	c = hi + cc
	t10 = c
	hi, lo = bits.Mul64(x3, x4)
	t7, cc = bits.Add64(t7, lo, 0)
	c = hi + cc
	hi, lo = bits.Mul64(x3, x5)
	lo, cc = bits.Add64(lo, c, 0)
	hi += cc
	t8, cc = bits.Add64(t8, lo, 0)
	c = hi + cc
	hi, lo = bits.Mul64(x3, x6)
	lo, cc = bits.Add64(lo, c, 0)
	hi += cc
	t9, cc = bits.Add64(t9, lo, 0)
	c = hi + cc
	hi, lo = bits.Mul64(x3, x7)
	lo, cc = bits.Add64(lo, c, 0)
	hi += cc
	t10, cc = bits.Add64(t10, lo, 0)
	c = hi + cc
	t11 = c
	hi, lo = bits.Mul64(x4, x5)
	t9, cc = bits.Add64(t9, lo, 0)
	c = hi + cc
	hi, lo = bits.Mul64(x4, x6)
	lo, cc = bits.Add64(lo, c, 0)
	hi += cc
	t10, cc = bits.Add64(t10, lo, 0)
	c = hi + cc
	hi, lo = bits.Mul64(x4, x7)
	lo, cc = bits.Add64(lo, c, 0)
	hi += cc
	t11, cc = bits.Add64(t11, lo, 0)
	c = hi + cc
	t12 = c
	hi, lo = bits.Mul64(x5, x6)
	t11, cc = bits.Add64(t11, lo, 0)
	c = hi + cc
	hi, lo = bits.Mul64(x5, x7)
	lo, cc = bits.Add64(lo, c, 0)
	hi += cc
	t12, cc = bits.Add64(t12, lo, 0)
	c = hi + cc
	t13 = c
	hi, lo = bits.Mul64(x6, x7)
	t13, cc = bits.Add64(t13, lo, 0)
	c = hi + cc
	t14 = c
	// Double the cross products, then add the squares x[i]^2.
	t15 = t14 >> 63
	t14 = t14<<1 | t13>>63
	t13 = t13<<1 | t12>>63
	t12 = t12<<1 | t11>>63
	t11 = t11<<1 | t10>>63
	t10 = t10<<1 | t9>>63
	t9 = t9<<1 | t8>>63
	t8 = t8<<1 | t7>>63
	t7 = t7<<1 | t6>>63
	t6 = t6<<1 | t5>>63
	t5 = t5<<1 | t4>>63
	t4 = t4<<1 | t3>>63
	t3 = t3<<1 | t2>>63
	t2 = t2<<1 | t1>>63
	t1 <<= 1
	var t0 uint64
	hi, lo = bits.Mul64(x0, x0)
	t0 = lo
	t1, cc = bits.Add64(t1, hi, 0)
	hi, lo = bits.Mul64(x1, x1)
	t2, cc = bits.Add64(t2, lo, cc)
	t3, cc = bits.Add64(t3, hi, cc)
	hi, lo = bits.Mul64(x2, x2)
	t4, cc = bits.Add64(t4, lo, cc)
	t5, cc = bits.Add64(t5, hi, cc)
	hi, lo = bits.Mul64(x3, x3)
	t6, cc = bits.Add64(t6, lo, cc)
	t7, cc = bits.Add64(t7, hi, cc)
	hi, lo = bits.Mul64(x4, x4)
	t8, cc = bits.Add64(t8, lo, cc)
	t9, cc = bits.Add64(t9, hi, cc)
	hi, lo = bits.Mul64(x5, x5)
	t10, cc = bits.Add64(t10, lo, cc)
	t11, cc = bits.Add64(t11, hi, cc)
	hi, lo = bits.Mul64(x6, x6)
	t12, cc = bits.Add64(t12, lo, cc)
	t13, cc = bits.Add64(t13, hi, cc)
	hi, lo = bits.Mul64(x7, x7)
	t14, cc = bits.Add64(t14, lo, cc)
	t15, cc = bits.Add64(t15, hi, cc)
	// Montgomery-reduce the 16-word square a word at a time. Each step
	// zeroes the lowest live word and shifts the window down one word, so
	// the live words stay in t0..t15; ov is the carry out of the top
	// word touched so far.
	m0, m1, m2, m3, m4, m5, m6, m7 := w.m[0], w.m[1], w.m[2], w.m[3], w.m[4], w.m[5], w.m[6], w.m[7]
	inv := w.n0inv
	var ov uint64
	for i := 0; i < wideWords; i++ {
		q := t0 * inv
		hi, lo = bits.Mul64(q, m0)
		_, cc = bits.Add64(t0, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(q, m1)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t0, cc = bits.Add64(t1, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(q, m2)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t1, cc = bits.Add64(t2, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(q, m3)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t2, cc = bits.Add64(t3, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(q, m4)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t3, cc = bits.Add64(t4, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(q, m5)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t4, cc = bits.Add64(t5, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(q, m6)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t5, cc = bits.Add64(t6, lo, 0)
		c = hi + cc
		hi, lo = bits.Mul64(q, m7)
		lo, cc = bits.Add64(lo, c, 0)
		hi += cc
		t6, cc = bits.Add64(t7, lo, 0)
		c = hi + cc
		t7, ov = bits.Add64(t8, c, ov)
		t8, t9, t10, t11, t12, t13, t14, t15 = t9, t10, t11, t12, t13, t14, t15, 0
	}
	r0, b := bits.Sub64(t0, m0, 0)
	r1, b := bits.Sub64(t1, m1, b)
	r2, b := bits.Sub64(t2, m2, b)
	r3, b := bits.Sub64(t3, m3, b)
	r4, b := bits.Sub64(t4, m4, b)
	r5, b := bits.Sub64(t5, m5, b)
	r6, b := bits.Sub64(t6, m6, b)
	r7, b := bits.Sub64(t7, m7, b)
	if ov != 0 || b == 0 {
		z[0], z[1], z[2], z[3], z[4], z[5], z[6], z[7] = r0, r1, r2, r3, r4, r5, r6, r7
	} else {
		z[0], z[1], z[2], z[3], z[4], z[5], z[6], z[7] = t0, t1, t2, t3, t4, t5, t6, t7
	}
}
