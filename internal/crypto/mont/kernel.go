package mont

import (
	"math/big"
	"unsafe"
)

// expWords bounds the exponents the comb and Straus walks accept: 0 <= e
// < 2^256, which covers every exponent reduced mod a 256-bit group order
// and every exponent Fermat-reduced mod p-1 for a 4-word prime p.
const (
	expWords = 4
	expBits  = 64 * expWords
)

// MaxTeeth is the most teeth a comb table may have: 2^8 entries, one
// lookup per 8 exponent bits.
const MaxTeeth = 8

// limbs is a residue at one kernel width, as little-endian 64-bit words.
type limbs interface {
	[maxWords]uint64 | [wideWords]uint64
}

// kernel holds the Montgomery constants of one odd modulus at width E.
// Modulus (4 words) and Wide (8 words) embed it; the conversions and the
// comb and Straus walks below are written once against it and
// instantiated per width.
type kernel[E limbs] struct {
	m     E        // modulus, little-endian words
	r2    E        // R^2 mod m (to-Montgomery factor), R = 2^(64 * width)
	one   E        // R mod m: 1 in Montgomery form
	n0inv uint64   // -m^{-1} mod 2^64
	nat   *big.Int // the modulus as written, for fallbacks
}

// init precomputes the constants for the odd modulus m, whose word count
// must be the width.
func (k *kernel[E]) init(m *big.Int) {
	k.nat = new(big.Int).Set(m)
	for i, wd := range m.Bits() {
		k.m[i] = uint64(wd)
	}
	// inv = m[0]^{-1} mod 2^64 by Newton iteration: an odd m[0] is its own
	// inverse mod 8, and each step doubles the valid bit count (3 -> 96).
	inv := k.m[0]
	for i := 0; i < 5; i++ {
		inv *= 2 - k.m[0]*inv
	}
	k.n0inv = -inv
	r := new(big.Int).Lsh(big.NewInt(1), uint(64*len(k.m)))
	r.Mul(r, r)
	r.Mod(r, m)
	for i, wd := range r.Bits() {
		k.r2[i] = uint64(wd)
	}
	var unit E
	unit[0] = 1
	k.mul(&k.one, &unit, &k.r2)
}

// The width dispatch below compares len(*z), a constant in each
// instantiation, so it compiles to a direct call of the width's kernel:
// no dictionary lookup, and scratch arrays passed by pointer stay on the
// stack. The unsafe conversions only restate E as the array type the
// length just identified.

// mul sets z = x*y*R^{-1} mod m (the Montgomery product). Inputs must be
// < m; the output is < m. z may alias x and/or y.
func (k *kernel[E]) mul(z, x, y *E) {
	if len(*z) == maxWords {
		mul4((*kernel[[maxWords]uint64])(unsafe.Pointer(k)),
			(*[maxWords]uint64)(unsafe.Pointer(z)), (*[maxWords]uint64)(unsafe.Pointer(x)), (*[maxWords]uint64)(unsafe.Pointer(y)))
		return
	}
	mul8((*kernel[[wideWords]uint64])(unsafe.Pointer(k)),
		(*[wideWords]uint64)(unsafe.Pointer(z)), (*[wideWords]uint64)(unsafe.Pointer(x)), (*[wideWords]uint64)(unsafe.Pointer(y)))
}

// sqr sets z = x*x*R^{-1} mod m, for x < m; z may alias x. The result
// equals mul(z, x, x) exactly, in fewer word multiplies.
func (k *kernel[E]) sqr(z, x *E) {
	if len(*z) == maxWords {
		sqr4((*kernel[[maxWords]uint64])(unsafe.Pointer(k)),
			(*[maxWords]uint64)(unsafe.Pointer(z)), (*[maxWords]uint64)(unsafe.Pointer(x)))
		return
	}
	sqr8((*kernel[[wideWords]uint64])(unsafe.Pointer(k)),
		(*[wideWords]uint64)(unsafe.Pointer(z)), (*[wideWords]uint64)(unsafe.Pointer(x)))
}

// toMont sets z to x*R mod m, reducing x into [0, m) first.
func (k *kernel[E]) toMont(z *E, x *big.Int) {
	if x.Sign() < 0 || x.Cmp(k.nat) >= 0 {
		x = new(big.Int).Mod(x, k.nat)
	}
	var xw E
	for i, wd := range x.Bits() {
		xw[i] = uint64(wd)
	}
	k.mul(z, &xw, &k.r2)
}

// fromMont leaves the Montgomery domain (multiplying by 1 strips the R
// factor) and returns the fully reduced residue.
func (k *kernel[E]) fromMont(z *E) *big.Int {
	var unit, out E
	unit[0] = 1
	k.mul(&out, z, &unit)
	words := make([]big.Word, len(out))
	for i := range words {
		words[i] = big.Word(out[i])
	}
	return new(big.Int).SetBits(words)
}

// combSpan is the row count of a comb with the given teeth: a 256-bit
// exponent is read as teeth rows of combSpan bits, so b^e costs
// combSpan-1 squarings plus at most combSpan multiplies.
func combSpan(teeth int) int { return (expBits + teeth - 1) / teeth }

// buildComb fills tbl (2^teeth entries) with the comb of base b: entry
// idx holds b^(sum of 2^(combSpan*j) over the set bits j of idx), in
// Montgomery form. b may be any integer; it is reduced mod m first.
func (k *kernel[E]) buildComb(tbl []E, b *big.Int, teeth int) {
	span := combSpan(teeth)
	tbl[0] = k.one
	k.toMont(&tbl[1], b)
	for j := 1; j < teeth; j++ {
		p := &tbl[1<<j]
		*p = tbl[1<<(j-1)]
		for s := 0; s < span; s++ {
			k.sqr(p, p)
		}
	}
	for idx := 3; idx < len(tbl); idx++ {
		if low := idx & -idx; low != idx {
			k.mul(&tbl[idx], &tbl[idx^low], &tbl[low])
		}
	}
}

// expCombs returns the product of b_i^es[i] mod m, where tbls[i] is the
// teeth-tooth comb of b_i. The combs share one squaring chain, so k bases
// cost combSpan-1 squarings plus at most k*combSpan multiplies. It
// returns nil when any exponent lies outside [0, 2^256).
func (k *kernel[E]) expCombs(tbls [][]E, teeth int, es []*big.Int) *big.Int {
	var small [2][expWords]uint64
	ew, ok := expWordsOf(small[:0], es)
	if !ok {
		return nil
	}
	span := combSpan(teeth)
	z := k.one
	started := false
	for i := span - 1; i >= 0; i-- {
		if started {
			k.sqr(&z, &z)
		}
		for c, tbl := range tbls {
			e := &ew[c]
			idx := 0
			for j, bit := 0, i; j < teeth && bit < expBits; j, bit = j+1, bit+span {
				idx |= int(e[bit>>6]>>(bit&63)&1) << j
			}
			if idx != 0 {
				k.mul(&z, &z, &tbl[idx])
				started = true
			}
		}
	}
	return k.fromMont(&z)
}

// multiExp returns the product of bases[i]^es[i] mod m by Straus's
// simultaneous method: one shared chain of squarings with 4-bit windows,
// so k bases cost about 252 squarings plus 64k multiplies instead of k
// separate exponentiations. Bases may be any integers (they are reduced
// mod m first). It returns nil when any exponent lies outside [0, 2^256).
func (k *kernel[E]) multiExp(bases, es []*big.Int) *big.Int {
	var smallE [2][expWords]uint64
	ew, ok := expWordsOf(smallE[:0], es)
	if !ok {
		return nil
	}
	var smallT [2][16]E
	tbls := smallT[:0]
	if len(bases) <= len(smallT) {
		tbls = smallT[:len(bases)]
	} else {
		tbls = make([][16]E, len(bases))
	}
	top := 0
	for i, b := range bases {
		t := &tbls[i]
		t[0] = k.one
		k.toMont(&t[1], b)
		for j := 2; j < 16; j++ {
			k.mul(&t[j], &t[j-1], &t[1])
		}
		top = max(top, es[i].BitLen())
	}
	z := k.one
	started := false
	for pos := (top+3)/4 - 1; pos >= 0; pos-- {
		if started {
			k.sqr(&z, &z)
			k.sqr(&z, &z)
			k.sqr(&z, &z)
			k.sqr(&z, &z)
		}
		for i := range tbls {
			if nib := ew[i][pos>>4] >> (uint(pos&15) * 4) & 0xf; nib != 0 {
				k.mul(&z, &z, &tbls[i][nib])
				started = true
			}
		}
	}
	return k.fromMont(&z)
}

// Fits reports whether e is an exponent the comb and Straus walks
// accept: 0 <= e < 2^256.
func Fits(e *big.Int) bool { return e.Sign() >= 0 && e.BitLen() <= expBits }

// expWordsOf appends the little-endian words of each exponent to dst,
// reporting false if any exponent does not Fit.
func expWordsOf(dst [][expWords]uint64, es []*big.Int) ([][expWords]uint64, bool) {
	for _, e := range es {
		if !Fits(e) {
			return nil, false
		}
		var ew [expWords]uint64
		for i, wd := range e.Bits() {
			ew[i] = uint64(wd)
		}
		dst = append(dst, ew)
	}
	return dst, true
}
