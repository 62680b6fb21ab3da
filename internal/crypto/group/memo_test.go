package group_test

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/crypto/dleq"
	"repro/internal/crypto/group"
)

// TestVerifyMemoizesOnlyRecurringKeys pins which DLEQ claim goes through
// the membership memo: the verification key (a), which recurs, and never
// the one-shot share value (b). Verifying many fresh shares under a few
// keys must leave at most one memo entry per key.
func TestVerifyMemoizesOnlyRecurringKeys(t *testing.T) {
	d := group.Default()
	g := &group.Group{Name: d.Name, Bits: d.Bits, P: d.P, Q: d.Q, G: d.G}
	rng := rand.New(rand.NewSource(41))
	const keys, shares = 3, 40
	xs := make([]*big.Int, keys)
	vks := make([]*group.Fixed, keys)
	for i := range xs {
		xs[i] = new(big.Int).Rand(rng, g.Q)
		vks[i] = g.NewFixed(g.ExpG(xs[i]))
	}
	for s := 0; s < shares; s++ {
		i := s % keys
		g2 := g.HashToGroup("memo-test", []byte(fmt.Sprint(s)))
		b := g.Exp(g2, xs[i])
		p, err := dleq.Prove(g, g.FixedG(), g2, vks[i].Base(), b, xs[i], rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := dleq.Verify(g, g.FixedG(), g2, vks[i], b, p); err != nil {
			t.Fatalf("share %d rejected: %v", s, err)
		}
	}
	if n := group.MemoLen(g); n > keys {
		t.Errorf("membership memo holds %d entries after %d fresh shares under %d keys; want <= %d", n, shares, keys, keys)
	}
}
