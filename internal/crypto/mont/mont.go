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
// unrolled CIOS (coarsely integrated operand scanning) kernels work
// directly on fixed-size arrays that never leave the stack. Two widths
// have a kernel:
//
//   - 4 words (Modulus): the 256-bit CRT halves through which every
//     TS-512 threshold-RSA exponentiation runs. Modulus.Exp is a general
//     drop-in for big.Int.Exp.
//   - 8 words (Wide): the 512-bit SG-512 Schnorr group. At this width a
//     general square-and-multiply Exp does not beat math/big's assembly
//     inner loops (measured), so NewModulus still declines 8-word moduli.
//     What Wide offers instead are algorithms that do fewer
//     multiplications: a fixed-base comb for bases that never change
//     (the group generator, encryption keys, verification keys) and a
//     simultaneous multi-exponentiation for products of powers.
//
// Moduli of any other width have no kernel; the constructors return nil
// and callers keep using big.Int.Exp.
//
// A Modulus or Wide (and a built Comb) is immutable after construction
// and all per-call scratch is local to the call, so all are safe for
// concurrent use.
package mont

import (
	"math/big"
	"math/bits"
)

// maxWords is the widest supported modulus (4 words = 256 bits).
const maxWords = 4

// Modulus holds the precomputed Montgomery constants for one odd modulus.
// It is immutable after construction and safe for concurrent use.
type Modulus struct {
	m     [maxWords]uint64 // modulus, little-endian words
	r2    [maxWords]uint64 // R^2 mod m (to-Montgomery factor), R = 2^(64w)
	w     int              // live word count (always 4)
	n0inv uint64           // -m^{-1} mod 2^64
	nat   *big.Int         // the modulus as written, for fallbacks
}

// NewModulus precomputes Montgomery constants for m. It returns nil when
// m has no specialized kernel (anything but an odd 4-word value, or a
// platform whose big.Word is not 64 bits) — callers treat nil as "use
// big.Int.Exp".
func NewModulus(m *big.Int) *Modulus {
	if bits.UintSize != 64 || m == nil || m.Sign() <= 0 || m.Bit(0) == 0 {
		return nil
	}
	words := m.Bits()
	if len(words) != 4 {
		return nil
	}
	mod := &Modulus{w: len(words), nat: new(big.Int).Set(m)}
	mod.n0inv = setup(m, mod.m[:mod.w], mod.r2[:mod.w])
	return mod
}

// setup fills mw with the words of the odd modulus m and r2 with
// R^2 mod m (R = 2^(64*len(mw))), and returns -m^{-1} mod 2^64.
func setup(m *big.Int, mw, r2 []uint64) uint64 {
	for i, wd := range m.Bits() {
		mw[i] = uint64(wd)
	}
	// inv = m[0]^{-1} mod 2^64 by Newton iteration: an odd m[0] is its own
	// inverse mod 8, and each step doubles the valid bit count (3 -> 96).
	inv := mw[0]
	for i := 0; i < 5; i++ {
		inv *= 2 - mw[0]*inv
	}
	r := new(big.Int).Lsh(big.NewInt(1), uint(64*len(mw)))
	r.Mul(r, r)
	r.Mod(r, m)
	for i, wd := range r.Bits() {
		r2[i] = uint64(wd)
	}
	return -inv
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

	var xw [maxWords]uint64
	for i, wd := range x.Bits() {
		xw[i] = uint64(wd)
	}
	// Power table in Montgomery form for 4-bit windows: tbl[i] = x^i * R.
	var tbl [16][maxWords]uint64
	mod.mul(&tbl[1], &xw, &mod.r2)
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
			mod.mul(&z, &z, &z)
			mod.mul(&z, &z, &z)
			mod.mul(&z, &z, &z)
			mod.mul(&z, &z, &z)
			if nib != 0 {
				mod.mul(&z, &z, &tbl[nib])
			}
		}
	}

	// Leave the Montgomery domain: multiply by 1 strips the R factor.
	var onew [maxWords]uint64
	onew[0] = 1
	mod.mul(&z, &z, &onew)

	out := make([]big.Word, mod.w)
	for i := 0; i < mod.w; i++ {
		out[i] = big.Word(z[i])
	}
	return new(big.Int).SetBits(out)
}

// mul sets z = x*y*R^{-1} mod m (the Montgomery product). Inputs must be
// < m; the output is < m. z may alias x and/or y: the product
// accumulates in locals and z is written only at the end.
func (mod *Modulus) mul(z, x, y *[maxWords]uint64) {
	mod.mul4(z, x, y)
}

// mul4 is the 4-word CIOS kernel. Each outer iteration folds in one word
// of y and immediately Montgomery-reduces one word, keeping the
// accumulator at 4 words + 1 bit (t4); the 128-bit column sums
// x[j]*yi + t[j] + carry and q*m[j] + t[j] + carry cannot overflow, so
// plain hi+carry adds are exact.
func (mod *Modulus) mul4(z, x, y *[maxWords]uint64) {
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
