package threshcoin

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// TestVerifySharesMatchesPerShare pins the batch contract against an
// adversarial share matrix: VerifyShares accepts/rejects exactly as the
// uncached per-share path does. The batch runs first so its verdicts
// cannot be replays of the reference run.
func TestVerifySharesMatchesPerShare(t *testing.T) {
	key := testKey(t, 2, 4)
	name := []byte("batch coin")
	rng := rand.New(rand.NewSource(33))
	honest := make([]*CoinShare, 4)
	for i := range honest {
		sh, err := key.Public.Share(key.Shares[i], name, rng)
		if err != nil {
			t.Fatal(err)
		}
		honest[i] = sh
	}
	other, err := key.Public.Share(key.Shares[0], []byte("other coin"), rng)
	if err != nil {
		t.Fatal(err)
	}
	sh := honest[0]
	matrix := []*CoinShare{
		honest[0],
		honest[1],
		{Index: sh.Index, Sigma: new(big.Int).Add(sh.Sigma, big.NewInt(1)), Proof: sh.Proof}, // tampered sigma
		{Index: 2, Sigma: sh.Sigma, Proof: sh.Proof},                                         // transplanted index
		{Index: sh.Index, Sigma: sh.Sigma, Proof: nil},                                       // missing proof
		{Index: 0, Sigma: sh.Sigma, Proof: sh.Proof},                                         // index underflow
		{Index: 99, Sigma: sh.Sigma, Proof: sh.Proof},                                        // index overflow
		nil,   // nil share
		other, // replayed from another coin name
		honest[2],
	}

	batch := key.Public.VerifyShares(name, matrix)
	if len(batch) != len(matrix) {
		t.Fatalf("got %d verdicts for %d shares", len(batch), len(matrix))
	}
	ref := key.Public // copy with the memo detached: the uncached reference
	ref.cc = nil
	for i, s := range matrix {
		want := ref.VerifyShare(name, s)
		if (batch[i] == nil) != (want == nil) {
			t.Errorf("share %d: batch verdict %v, per-share verdict %v", i, batch[i], want)
		}
	}
}

// BenchmarkVerifyShare measures one coin-share verification on a share
// the verdict memo has not seen (a fresh coin name each time), with the
// key's tables built.
func BenchmarkVerifyShare(b *testing.B) {
	key := testKey(b, 2, 4)
	rng := rand.New(rand.NewSource(43))
	names := make([][]byte, 64)
	shares := make([]*CoinShare, len(names))
	for i := range names {
		names[i] = []byte(fmt.Sprintf("bench coin %d", i))
		sh, err := key.Public.Share(key.Shares[i%len(key.Shares)], names[i], rng)
		if err != nil {
			b.Fatal(err)
		}
		shares[i] = sh
	}
	pk := &key.Public
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(names)
		if j == 0 {
			b.StopTimer()
			pk.cc.mu.Lock()
			clear(pk.cc.verified)
			pk.cc.mu.Unlock()
			b.StartTimer()
		}
		if err := pk.VerifyShare(names[j], shares[j]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifySharesBatch measures verifying all l shares of one coin
// through the batch API with fresh memos per iteration: the amortization
// is the shared base derivation, not cross-iteration verdict replay. The
// key's fixed-base tables stay built, as they do across a run.
func BenchmarkVerifySharesBatch(b *testing.B) {
	key := testKey(b, 2, 4)
	name := []byte("bench coin")
	rng := rand.New(rand.NewSource(44))
	shares := make([]*CoinShare, key.Public.L)
	for i := range shares {
		sh, err := key.Public.Share(key.Shares[i], name, rng)
		if err != nil {
			b.Fatal(err)
		}
		shares[i] = sh
	}
	pk := key.Public
	pk.VerifyShares(name, shares) // build the key's tables outside the timed loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pk.cc.mu.Lock()
		clear(pk.cc.bases)
		clear(pk.cc.verified)
		pk.cc.mu.Unlock()
		for j, err := range pk.VerifyShares(name, shares) {
			if err != nil {
				b.Fatalf("share %d rejected: %v", j, err)
			}
		}
	}
}
