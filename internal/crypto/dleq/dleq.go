// Package dleq implements non-interactive Chaum–Pedersen proofs of discrete
// logarithm equality over a Schnorr group (Fiat–Shamir transform).
//
// A proof convinces a verifier that log_{g1}(a) == log_{g2}(b) without
// revealing the exponent. The threshold coin and threshold encryption
// schemes attach such proofs to their shares so Byzantine nodes cannot
// inject garbage shares: a bad share fails verification and is discarded,
// which the fault-injection tests exercise.
package dleq

import (
	"errors"
	"io"
	"math/big"

	"repro/internal/crypto/group"
	"repro/internal/crypto/shamir"
)

// Proof is a Fiat–Shamir Chaum–Pedersen proof (challenge, response).
type Proof struct {
	C *big.Int
	Z *big.Int
}

// Size returns the serialized proof size in bytes for the given group.
func Size(g *group.Group) int { return 32 + g.ScalarLen() }

// Prove returns a proof that a = g1^x and b = g2^x share the exponent x.
// g1 is a fixed-base handle: in every use here it is the group generator.
func Prove(g *group.Group, g1 *group.Fixed, g2, a, b, x *big.Int, rand io.Reader) (*Proof, error) {
	w, err := shamir.RandInt(rand, g.Q)
	if err != nil {
		return nil, err
	}
	t1 := g1.Exp(w)
	t2 := g.Exp(g2, w)
	c := challenge(g, g1.Base(), g2, a, b, t1, t2)
	z := new(big.Int).Mul(c, x)
	z.Add(z, w)
	z.Mod(z, g.Q)
	return &Proof{C: c, Z: z}, nil
}

// Verify checks a proof against the claimed pairs (g1, a) and (g2, b).
//
// g1 and a are fixed-base handles: in every use here (coin and decryption
// shares) g1 is the generator and a a party's verification key, bases
// that recur across thousands of checks, so t1 = g1^z * a^-c comes from
// their precomputed tables. a is also membership-checked through the
// group's verdict memo. b is the one-shot share value and is checked
// exactly — callers that verify the same share many times (one per
// simulated party) dedup whole verdicts a layer up. t2 = g2^z * b^-c is
// one simultaneous exponentiation.
func Verify(g *group.Group, g1 *group.Fixed, g2 *big.Int, a *group.Fixed, b *big.Int, p *Proof) error {
	if p == nil || p.C == nil || p.Z == nil {
		return errors.New("dleq: nil proof")
	}
	if !g.IsElementCached(a.Base()) || !g.IsElement(b) {
		return errors.New("dleq: claimed values not in group")
	}
	negC := new(big.Int).Neg(p.C)
	negC.Mod(negC, g.Q)
	es := []*big.Int{p.Z, negC}
	t1 := g.MultiExpFixed([]*group.Fixed{g1, a}, es)
	t2 := g.MultiExp([]*big.Int{g2, b}, es)
	if challenge(g, g1.Base(), g2, a.Base(), b, t1, t2).Cmp(p.C) != 0 {
		return errors.New("dleq: proof rejected")
	}
	return nil
}

// Statement is one (claimed pairs, proof) instance for VerifyBatch.
type Statement struct {
	G1    *group.Fixed // fixed first base
	G2    *big.Int     // second base
	A     *group.Fixed // recurring claimed power A = G1^x
	B     *big.Int     // one-shot claimed power B = G2^x
	Proof *Proof
}

// VerifyBatch checks a batch of proofs and returns one verdict per
// statement, in order. A statement fails exactly when Verify would fail
// it — the batch rejects everything per-statement verification rejects.
//
// The amortization is the shared fixed-point work (memoized membership of
// the recurring A values and the fixed-base tables of G1 and A); each
// proof's commitments are still recomputed individually. A
// randomized-linear-combination shortcut is impossible for Fiat–Shamir
// Chaum–Pedersen proofs: the verifier must reproduce every proof's exact
// commitments (t1, t2) to recheck its challenge hash, and a random
// combination of several statements yields only a blended commitment that
// validates no individual challenge. (Where the per-item check is a bare
// group equation — e.g. subgroup membership v^Q = 1 — an RLC is unsound
// here too: Z_p^* has small-order components outside the subgroup, which
// a combination detects only with constant probability, and this
// simulator requires accept/reject decisions to be exact.)
func VerifyBatch(g *group.Group, stmts []Statement) []error {
	errs := make([]error, len(stmts))
	for i, st := range stmts {
		errs[i] = Verify(g, st.G1, st.G2, st.A, st.B, st.Proof)
	}
	return errs
}

func challenge(g *group.Group, parts ...*big.Int) *big.Int {
	bufs := make([][]byte, len(parts))
	for i, p := range parts {
		bufs[i] = p.Bytes()
	}
	return g.HashToScalar("dleq-v1", bufs...)
}
