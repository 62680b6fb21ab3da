package threshenc

import (
	"bytes"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/crypto/dleq"
	"repro/internal/crypto/group"
)

// TestByzantineRejectedAtEveryWidth runs the full encrypt → share →
// verify → combine round trip on SG-512, whose exponentiations run on the
// Montgomery kernel, and on SG-768, which falls back to big.Int. At both
// widths honest shares verify and combine, and every Byzantine share —
// including one whose proof response lies outside the kernel's exponent
// range — is rejected.
func TestByzantineRejectedAtEveryWidth(t *testing.T) {
	for _, name := range []string{"SG-512", "SG-768"} {
		t.Run(name, func(t *testing.T) {
			g, err := group.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			key, err := DealCached(g, 2, 4, 23)
			if err != nil {
				t.Fatal(err)
			}
			pk := &key.Public
			rng := rand.New(rand.NewSource(24))
			plain := []byte("round trip at " + name)
			ct, err := pk.Encrypt(plain, rng)
			if err != nil {
				t.Fatal(err)
			}
			honest := make([]*DecShare, 3)
			for i := range honest {
				if honest[i], err = pk.DecryptShare(key.Shares[i], ct, rng); err != nil {
					t.Fatal(err)
				}
				if err := pk.VerifyShare(ct, honest[i]); err != nil {
					t.Fatalf("honest share %d rejected: %v", i, err)
				}
			}
			sh := honest[0]
			shifted := new(big.Int).Add(sh.Proof.Z, new(big.Int).Lsh(big.NewInt(1), 256))
			for desc, bad := range map[string]*DecShare{
				"wrong exponent":      {Index: sh.Index, D: g.Mul(sh.D, g.G), Proof: sh.Proof},
				"outside subgroup":    {Index: sh.Index, D: new(big.Int).Sub(g.P, big.NewInt(1)), Proof: sh.Proof},
				"response >= 2^256":   {Index: sh.Index, D: sh.D, Proof: &dleq.Proof{C: sh.Proof.C, Z: shifted}},
				"another party's key": {Index: 2, D: sh.D, Proof: sh.Proof},
			} {
				if err := pk.VerifyShare(ct, bad); err == nil {
					t.Errorf("%s: Byzantine share accepted", desc)
				}
			}
			got, err := pk.Combine(ct, honest[1:])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, plain) {
				t.Errorf("decrypted %q, want %q", got, plain)
			}
			forged := &DecShare{Index: sh.Index, D: g.Mul(sh.D, g.G), Proof: sh.Proof}
			if got, _ := pk.Combine(ct, []*DecShare{forged, honest[1]}); bytes.Equal(got, plain) {
				t.Error("a forged share still combined to the plaintext")
			}
		})
	}
}

// TestDealBuildsNoTable pins that dealing leaves the key's fixed-base
// handles (and so their tables) to be created on first use.
func TestDealBuildsNoTable(t *testing.T) {
	key, err := Deal(group.Default(), 2, 4, rand.New(rand.NewSource(25)))
	if err != nil {
		t.Fatal(err)
	}
	if key.Public.cc.h != nil || key.Public.cc.vks != nil {
		t.Error("Deal created fixed-base handles")
	}
}

// TestConcurrentSharedKey has many goroutines share one freshly dealt
// DealCached key, so they race to build its lazily created tables (H, G,
// every VK) while encrypting, sharing, verifying and combining.
func TestConcurrentSharedKey(t *testing.T) {
	key, err := DealCached(group.Default(), 2, 4, 97)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := concurrentRoundTrip(key, w); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
}

func concurrentRoundTrip(key *Key, w int) error {
	pk := &key.Public
	rng := rand.New(rand.NewSource(int64(100 + w)))
	plain := []byte(fmt.Sprintf("worker %d", w))
	ct, err := pk.Encrypt(plain, rng)
	if err != nil {
		return err
	}
	var shares []*DecShare
	for i := 0; i < len(key.Shares); i++ {
		party := key.Shares[(i+w)%len(key.Shares)]
		sh, err := pk.DecryptShare(party, ct, rng)
		if err != nil {
			return err
		}
		if err := pk.VerifyShare(ct, sh); err != nil {
			return fmt.Errorf("worker %d: honest share rejected: %w", w, err)
		}
		shares = append(shares, sh)
	}
	got, err := pk.Combine(ct, shares)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, plain) {
		return fmt.Errorf("worker %d: decrypted %q", w, got)
	}
	return nil
}

// freshCiphertexts returns a pool of distinct ciphertexts under key.
func freshCiphertexts(b *testing.B, key *Key, rng *rand.Rand) []*Ciphertext {
	cts := make([]*Ciphertext, 64)
	for i := range cts {
		ct, err := key.Public.Encrypt([]byte(fmt.Sprintf("bench payload %d", i)), rng)
		if err != nil {
			b.Fatal(err)
		}
		cts[i] = ct
	}
	return cts
}

// BenchmarkVerifyShare measures one decryption-share verification on a
// share the verdict memo has not seen, with the key's tables built — the
// cost a party pays for each new share in a run.
func BenchmarkVerifyShare(b *testing.B) {
	key := testKey(b, 2, 4)
	rng := rand.New(rand.NewSource(45))
	cts := freshCiphertexts(b, key, rng)
	shares := make([]*DecShare, len(cts))
	for i, ct := range cts {
		sh, err := key.Public.DecryptShare(key.Shares[i%len(key.Shares)], ct, rng)
		if err != nil {
			b.Fatal(err)
		}
		shares[i] = sh
	}
	pk := &key.Public
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(cts)
		if j == 0 {
			b.StopTimer()
			pk.cc.mu.Lock()
			clear(pk.cc.verified)
			pk.cc.mu.Unlock()
			b.StartTimer()
		}
		if err := pk.VerifyShare(cts[j], shares[j]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecryptShare measures producing one decryption share (with its
// proof) for a fresh ciphertext.
func BenchmarkDecryptShare(b *testing.B) {
	key := testKey(b, 2, 4)
	rng := rand.New(rand.NewSource(46))
	cts := freshCiphertexts(b, key, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := key.Public.DecryptShare(key.Shares[0], cts[i%len(cts)], rng); err != nil {
			b.Fatal(err)
		}
	}
}
