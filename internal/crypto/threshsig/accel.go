package threshsig

import (
	"math/big"

	"repro/internal/crypto/mont"
)

// accel is the CRT exponentiation accelerator. The dealer knows the
// fixture primes p and q of the modulus n = p*q, so every modular
// exponentiation in the scheme can run as two half-size exponentiations
// (with Fermat-reduced exponents) recombined by Garner's formula. This is
// bit-exact — x^e mod n for every x and e >= 0 — so accept/reject
// decisions, combined signatures, and every byte on the simulated wire
// are identical to the plain big.Int.Exp path; only the simulator's
// wall-clock cost changes (roughly 4x less work per exponentiation: half
// the operand width and, for the scheme's oversized integer exponents,
// half the exponent length).
//
// Where both halves have a 4-word Montgomery kernel (TS-512) the
// accelerator also evaluates fixed-base combs (expCombs) and two-term
// products of powers (multiExp) per half. Those need the Fermat-reduced
// exponent, so they take only bases that are units mod n.
//
// This mirrors what a real signer does with its own key (RSA-CRT), except
// here the simulation plays every party and the dealer, so verification
// gets the same speedup — a simulator-level optimization, not a protocol
// change.
type accel struct {
	half  [2]crtHalf // mod p, mod q
	qInvP *big.Int   // q^{-1} mod p: Garner recombination constant
}

// crtHalf is one prime factor of the modulus with its exponentiation
// context.
type crtHalf struct {
	prime *big.Int
	pm1   *big.Int // prime-1: the Fermat exponent-reduction modulus
	// mm is the prime's fixed-width Montgomery kernel (nil when the prime
	// has none, e.g. on the larger parameter sets; exp then uses
	// big.Int.Exp). Like the CRT split itself this is bit-exact: mont
	// returns the unique reduced residue big.Int.Exp would.
	mm *mont.Modulus
}

func newAccel(p, q *big.Int) *accel {
	inv := new(big.Int).ModInverse(q, p)
	if inv == nil {
		return nil // not distinct primes; fall back to plain Exp
	}
	half := func(prime *big.Int) crtHalf {
		return crtHalf{prime: prime, pm1: new(big.Int).Sub(prime, one), mm: mont.NewModulus(prime)}
	}
	return &accel{half: [2]crtHalf{half(p), half(q)}, qInvP: inv}
}

// exp returns x^e mod p*q for e >= 0.
func (a *accel) exp(x, e *big.Int) *big.Int {
	return a.garner(a.half[0].exp(x, e), a.half[1].exp(x, e))
}

// garner recombines yp = y mod p and yq = y mod q into y in [0, p*q):
// y = yq + q * (qInvP * (yp - yq) mod p). It reuses yp's storage.
func (a *accel) garner(yp, yq *big.Int) *big.Int {
	h := yp.Sub(yp, yq)
	h.Mul(h, a.qInvP)
	h.Mod(h, a.half[0].prime)
	h.Mul(h, a.half[1].prime)
	return h.Add(h, yq)
}

// exp computes x^e mod prime for any x and e >= 0. The exponent is
// reduced mod prime-1 (valid by Fermat's little theorem for units; x ≡ 0
// is handled explicitly, where the reduction would be wrong: 0^e = 0 for
// e > 0 but 0^0 = 1).
func (h *crtHalf) exp(x, e *big.Int) *big.Int {
	x = new(big.Int).Mod(x, h.prime)
	if x.Sign() == 0 {
		if e.Sign() == 0 {
			return big.NewInt(1)
		}
		return new(big.Int)
	}
	e = h.reduce(e)
	if h.mm != nil {
		return h.mm.Exp(x, e)
	}
	return new(big.Int).Exp(x, e, h.prime)
}

// reduce returns e mod prime-1 for e >= 0: the exponent a unit's power
// mod prime depends on. For a 4-word prime it is below 2^256, which the
// comb and Straus walks accept.
func (h *crtHalf) reduce(e *big.Int) *big.Int {
	if e.Cmp(h.pm1) < 0 {
		return e
	}
	return new(big.Int).Mod(e, h.pm1)
}

// fast reports whether both halves have a 4-word kernel, so the comb and
// Straus paths are available.
func (a *accel) fast() bool { return a != nil && a.half[0].mm != nil && a.half[1].mm != nil }

// crtComb holds one base's comb tables, mod p and mod q.
type crtComb [2]*mont.NarrowComb

// newComb returns the comb tables of base b with the given teeth, or nil
// when the halves have no kernel or b is not a unit mod p*q.
func (a *accel) newComb(b *big.Int, teeth int) *crtComb {
	if !a.fast() {
		return nil
	}
	var c crtComb
	for i := range a.half {
		h := &a.half[i]
		bh := new(big.Int).Mod(b, h.prime)
		if bh.Sign() == 0 {
			return nil
		}
		c[i] = h.mm.NewComb(bh, teeth)
	}
	return &c
}

// expCombs returns the product of the combs' bases raised to es (at most
// two terms, every exponent >= 0) mod p*q, through one joint comb walk
// per half. The combs must have the same teeth.
func (a *accel) expCombs(cs []*crtComb, es []*big.Int) *big.Int {
	var y [2]*big.Int
	for i := range a.half {
		h := &a.half[i]
		var combs [2]*mont.NarrowComb
		var hes [2]*big.Int
		for j, c := range cs {
			combs[j], hes[j] = c[i], h.reduce(es[j])
		}
		y[i] = h.mm.ExpCombs(combs[:len(cs)], hes[:len(cs)])
	}
	return a.garner(y[0], y[1])
}

// multiExp returns the product of bases[j]^es[j] (at most two terms,
// every exponent >= 0) mod p*q by one Straus chain per half, or nil when
// a base is not a unit mod p*q. Call it only when fast() holds.
func (a *accel) multiExp(bases, es []*big.Int) *big.Int {
	var y [2]*big.Int
	for i := range a.half {
		h := &a.half[i]
		var hbs, hes [2]*big.Int
		for j, b := range bases {
			hbs[j], hes[j] = new(big.Int).Mod(b, h.prime), h.reduce(es[j])
			if hbs[j].Sign() == 0 {
				return nil
			}
		}
		y[i] = h.mm.MultiExp(hbs[:len(bases)], hes[:len(bases)])
	}
	return a.garner(y[0], y[1])
}
