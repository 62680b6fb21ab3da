package threshenc

import (
	"math/big"
	"math/rand"
	"testing"
)

// TestVerifySharesMatchesPerShare pins the batch contract against an
// adversarial share matrix — including a tampered ciphertext, which must
// fail every share in the batch exactly as it fails each per-share check.
func TestVerifySharesMatchesPerShare(t *testing.T) {
	key := testKey(t, 2, 4)
	rng := rand.New(rand.NewSource(34))
	ct, err := key.Public.Encrypt([]byte("batch payload"), rng)
	if err != nil {
		t.Fatal(err)
	}
	honest := make([]*DecShare, 4)
	for i := range honest {
		sh, err := key.Public.DecryptShare(key.Shares[i], ct, rng)
		if err != nil {
			t.Fatal(err)
		}
		honest[i] = sh
	}
	sh := honest[0]
	matrix := []*DecShare{
		honest[0],
		honest[1],
		{Index: sh.Index, D: new(big.Int).Add(sh.D, big.NewInt(1)), Proof: sh.Proof}, // tampered value
		{Index: 2, D: sh.D, Proof: sh.Proof},                                         // transplanted index
		{Index: sh.Index, D: sh.D, Proof: nil},                                       // missing proof
		{Index: 0, D: sh.D, Proof: sh.Proof},                                         // index underflow
		{Index: 99, D: sh.D, Proof: sh.Proof},                                        // index overflow
		nil,                                                                          // nil share
		honest[2],
	}

	batch := key.Public.VerifyShares(ct, matrix)
	if len(batch) != len(matrix) {
		t.Fatalf("got %d verdicts for %d shares", len(batch), len(matrix))
	}
	ref := key.Public // copy with the memo detached: the uncached reference
	ref.cc = nil
	for i, s := range matrix {
		want := ref.VerifyShare(ct, s)
		if (batch[i] == nil) != (want == nil) {
			t.Errorf("share %d: batch verdict %v, per-share verdict %v", i, batch[i], want)
		}
	}

	// A tampered ciphertext fails the whole batch, same as per-share.
	bad := &Ciphertext{C1: ct.C1, Body: append([]byte(nil), ct.Body...), Tag: ct.Tag}
	bad.Body[0] ^= 0xFF
	for i, err := range key.Public.VerifyShares(bad, honest[:2]) {
		if err == nil {
			t.Errorf("share %d accepted against tampered ciphertext", i)
		}
	}
}
