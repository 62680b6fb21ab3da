// Package mont implements modular exponentiation for odd fixed-width
// moduli using Montgomery multiplication over stack-allocated word
// arrays. It exists purely as a faster drop-in for big.Int.Exp on the
// simulator's hot paths: results are bit-exact (the reduced residue is
// unique, and every entry point returns it fully reduced), so
// accept/reject decisions and every byte derived from an exponentiation
// are identical to the math/big path.
//
// The speed comes from what is *not* done per call: no nat allocations,
// no normalization passes, and no per-limb function calls — fully
// unrolled CIOS (coarsely integrated operand scanning) multiply and
// separated-operand squaring kernels work directly on fixed-size arrays
// that never leave the stack. Two widths have a kernel:
//
//   - 4 words (Modulus): the 256-bit CRT halves through which every
//     TS-512 threshold-RSA exponentiation runs. Modulus.Exp is a general
//     drop-in for big.Int.Exp; beside it the width offers fixed-base
//     combs (NewComb, ExpCombs) for bases that never change — the
//     verification base and keys — or recur across one message's
//     signers, and a simultaneous multi-exponentiation (MultiExp) for
//     the products of powers in share verification.
//   - 8 words (Wide): the 512-bit SG-512 Schnorr group. At this width a
//     general square-and-multiply Exp does not beat math/big's assembly
//     inner loops (measured), so NewModulus still declines 8-word moduli.
//     What Wide offers instead are the same algorithms that do fewer
//     multiplications: a fixed-base comb for bases that never change
//     (the group generator, encryption keys, verification keys) and a
//     simultaneous multi-exponentiation for products of powers.
//
// Both widths run one implementation of the comb and Straus walks
// (kernel.go), instantiated per width. Combs and multi-exponentiations
// accept exponents in [0, 2^256) and return nil otherwise; callers then
// use big.Int.Exp. Moduli of any other width have no kernel; the
// constructors return nil and callers keep using big.Int.Exp.
//
// A Modulus or Wide (and a built comb) is immutable after construction
// and all per-call scratch is local to the call, so all are safe for
// concurrent use.
package mont

import (
	"math/big"
	"math/bits"
)

// maxWords is the widest supported modulus (4 words = 256 bits).
const maxWords = 4

// Modulus holds the precomputed Montgomery constants for one odd 4-word
// modulus. It is immutable after construction and safe for concurrent
// use.
type Modulus struct {
	kernel[[maxWords]uint64]
}

// NewModulus precomputes Montgomery constants for m. It returns nil when
// m has no specialized kernel (anything but an odd 4-word value, or a
// platform whose big.Word is not 64 bits) — callers treat nil as "use
// big.Int.Exp".
func NewModulus(m *big.Int) *Modulus {
	if bits.UintSize != 64 || m == nil || m.Sign() <= 0 || m.Bit(0) == 0 {
		return nil
	}
	if len(m.Bits()) != maxWords {
		return nil
	}
	mod := &Modulus{}
	mod.init(m)
	return mod
}

// Exp returns x^e mod m, fully reduced — bit-exact with
// new(big.Int).Exp(x, e, m). Negative exponents (modular inverses) take
// the big.Int path unchanged.
func (mod *Modulus) Exp(x, e *big.Int) *big.Int {
	if e.Sign() < 0 {
		return new(big.Int).Exp(x, e, mod.nat)
	}
	if e.Sign() == 0 {
		return big.NewInt(1)
	}
	if x.Sign() < 0 || x.Cmp(mod.nat) >= 0 {
		x = new(big.Int).Mod(x, mod.nat)
	}
	if x.Sign() == 0 {
		return new(big.Int)
	}

	// Power table in Montgomery form for 4-bit windows: tbl[i] = x^i * R.
	var tbl [16][maxWords]uint64
	mod.toMont(&tbl[1], x)
	for i := 2; i < 16; i++ {
		mod.mul(&tbl[i], &tbl[i-1], &tbl[1])
	}

	// Left-to-right 4-bit windows over the exponent, skipping the leading
	// zero nibbles so tiny exponents (2, 65537) cost only their true length.
	var z [maxWords]uint64
	started := false
	words := e.Bits()
	for i := len(words) - 1; i >= 0; i-- {
		wd := uint64(words[i])
		for sh := 60; sh >= 0; sh -= 4 {
			nib := (wd >> uint(sh)) & 0xf
			if !started {
				if nib == 0 {
					continue
				}
				z = tbl[nib]
				started = true
				continue
			}
			mod.sqr(&z, &z)
			mod.sqr(&z, &z)
			mod.sqr(&z, &z)
			mod.sqr(&z, &z)
			if nib != 0 {
				mod.mul(&z, &z, &tbl[nib])
			}
		}
	}
	return mod.fromMont(&z)
}

// NarrowComb is a fixed-base comb table for one base b under a Modulus:
// with t teeth, entry idx holds b^(sum of 2^(ceil(256/t)*j) over the set
// bits j of idx), in Montgomery form. It has 2^t entries of 32 bytes —
// 8 KiB at MaxTeeth, 512 B at 4 teeth — and is immutable once built.
type NarrowComb struct {
	teeth int
	tbl   [][maxWords]uint64
}

// NewComb builds the comb table of base b (any integer; it is reduced
// mod m first) with the given teeth, 1 <= teeth <= MaxTeeth. More teeth
// cost a larger table and build for fewer squarings per exponentiation:
// b^e costs ceil(256/teeth)-1 squarings plus about as many multiplies.
func (mod *Modulus) NewComb(b *big.Int, teeth int) *NarrowComb {
	if teeth < 1 || teeth > MaxTeeth {
		panic("mont: comb teeth out of range")
	}
	c := &NarrowComb{teeth: teeth, tbl: make([][maxWords]uint64, 1<<teeth)}
	mod.buildComb(c.tbl, b, teeth)
	return c
}

// ExpCombs returns the product of b_i^es[i] mod m, where combs[i] is the
// table of b_i; all combs must have the same teeth. The combs share one
// squaring chain. It returns nil when any exponent lies outside
// [0, 2^256); the caller then computes the product with big.Int.Exp.
func (mod *Modulus) ExpCombs(combs []*NarrowComb, es []*big.Int) *big.Int {
	var small [2][][maxWords]uint64
	tbls := small[:0]
	teeth := MaxTeeth
	for i, c := range combs {
		if i == 0 {
			teeth = c.teeth
		} else if c.teeth != teeth {
			panic("mont: ExpCombs over combs with different teeth")
		}
		tbls = append(tbls, c.tbl)
	}
	return mod.expCombs(tbls, teeth, es)
}

// MultiExp returns the product of bases[i]^es[i] mod m by Straus's
// simultaneous method (see Wide.MultiExp). It returns nil when any
// exponent lies outside [0, 2^256); the caller then computes the product
// with big.Int.Exp.
func (mod *Modulus) MultiExp(bases, es []*big.Int) *big.Int { return mod.multiExp(bases, es) }

// mul4 is the 4-word CIOS kernel. Each outer iteration folds in one word
// of y and immediately Montgomery-reduces one word, keeping the
// accumulator at 4 words + 1 bit (t4); the 128-bit column sums
// x[j]*yi + t[j] + carry and q*m[j] + t[j] + carry cannot overflow, so
// plain hi+carry adds are exact.
func mul4(mod *kernel[[maxWords]uint64], z, x, y *[maxWords]uint64) {
	m0, m1, m2, m3 := mod.m[0], mod.m[1], mod.m[2], mod.m[3]
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	inv := mod.n0inv
	var t0, t1, t2, t3, t4 uint64
	for i := 0; i < 4; i++ {
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
		t4, cc = bits.Add64(t4, c, 0)
		t5 := cc

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
		t3, cc = bits.Add64(t4, c, 0)
		t4 = t5 + cc
	}
	r0, b := bits.Sub64(t0, m0, 0)
	r1, b := bits.Sub64(t1, m1, b)
	r2, b := bits.Sub64(t2, m2, b)
	r3, b := bits.Sub64(t3, m3, b)
	if t4 != 0 || b == 0 {
		z[0], z[1], z[2], z[3] = r0, r1, r2, r3
	} else {
		z[0], z[1], z[2], z[3] = t0, t1, t2, t3
	}
}

// sqr4 sets z = x*x*R^{-1} mod m, for x < m; z may alias x. It is sqr8's
// scheme at half the width: the 8-word square from the six cross
// products (doubled by a shift) plus the four diagonal squares, then four
// word-by-word Montgomery reduction steps — 26 word multiplies instead
// of mul4's 32.
func sqr4(mod *kernel[[maxWords]uint64], z, x *[maxWords]uint64) {
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	var t1, t2, t3, t4, t5, t6, t7, hi, lo, c, cc uint64
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
	t4 = c
	hi, lo = bits.Mul64(x1, x2)
	t3, cc = bits.Add64(t3, lo, 0)
	c = hi + cc
	hi, lo = bits.Mul64(x1, x3)
	lo, cc = bits.Add64(lo, c, 0)
	hi += cc
	t4, cc = bits.Add64(t4, lo, 0)
	c = hi + cc
	t5 = c
	hi, lo = bits.Mul64(x2, x3)
	t5, cc = bits.Add64(t5, lo, 0)
	c = hi + cc
	t6 = c
	// Double the cross products, then add the squares x[i]^2.
	t7 = t6 >> 63
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
	t7, _ = bits.Add64(t7, hi, cc)
	// Montgomery-reduce the 8-word square a word at a time, as in sqr8.
	m0, m1, m2, m3 := mod.m[0], mod.m[1], mod.m[2], mod.m[3]
	inv := mod.n0inv
	var ov uint64
	for i := 0; i < maxWords; i++ {
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
		t3, ov = bits.Add64(t4, c, ov)
		t4, t5, t6, t7 = t5, t6, t7, 0
	}
	r0, b := bits.Sub64(t0, m0, 0)
	r1, b := bits.Sub64(t1, m1, b)
	r2, b := bits.Sub64(t2, m2, b)
	r3, b := bits.Sub64(t3, m3, b)
	if ov != 0 || b == 0 {
		z[0], z[1], z[2], z[3] = r0, r1, r2, r3
	} else {
		z[0], z[1], z[2], z[3] = t0, t1, t2, t3
	}
}
