package threshcoin

import (
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/crypto/dleq"
	"repro/internal/crypto/group"
)

// TestByzantineRejectedAtEveryWidth runs share → verify → combine on
// SG-512, whose exponentiations run on the Montgomery kernel, and on
// SG-768, which falls back to big.Int. At both widths honest shares
// verify and any two quorums combine to the same coin, and Byzantine
// shares — including one whose proof response lies outside the kernel's
// exponent range — are rejected.
func TestByzantineRejectedAtEveryWidth(t *testing.T) {
	for _, gname := range []string{"SG-512", "SG-768"} {
		t.Run(gname, func(t *testing.T) {
			g, err := group.ByName(gname)
			if err != nil {
				t.Fatal(err)
			}
			key, err := DealCached(g, 2, 4, 27)
			if err != nil {
				t.Fatal(err)
			}
			pk := &key.Public
			name := []byte("coin at " + gname)
			rng := rand.New(rand.NewSource(28))
			honest := make([]*CoinShare, 3)
			for i := range honest {
				if honest[i], err = pk.Share(key.Shares[i], name, rng); err != nil {
					t.Fatal(err)
				}
				if err := pk.VerifyShare(name, honest[i]); err != nil {
					t.Fatalf("honest share %d rejected: %v", i, err)
				}
			}
			sh := honest[0]
			shifted := new(big.Int).Add(sh.Proof.Z, new(big.Int).Lsh(big.NewInt(1), 256))
			for desc, bad := range map[string]*CoinShare{
				"wrong exponent":    {Index: sh.Index, Sigma: g.Mul(sh.Sigma, g.G), Proof: sh.Proof},
				"response >= 2^256": {Index: sh.Index, Sigma: sh.Sigma, Proof: &dleq.Proof{C: sh.Proof.C, Z: shifted}},
			} {
				if err := pk.VerifyShare(name, bad); err == nil {
					t.Errorf("%s: Byzantine share accepted", desc)
				}
			}
			a, err := pk.Combine(name, honest[:2])
			if err != nil {
				t.Fatal(err)
			}
			b, err := pk.Combine(name, honest[1:])
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Error("two honest quorums combined to different coins")
			}
		})
	}
}

// TestDealBuildsNoTable pins that dealing leaves the VKs' fixed-base
// handles (and so their tables) to be created on first use.
func TestDealBuildsNoTable(t *testing.T) {
	key, err := Deal(group.Default(), 2, 4, rand.New(rand.NewSource(26)))
	if err != nil {
		t.Fatal(err)
	}
	if key.Public.cc.vks != nil {
		t.Error("Deal created fixed-base handles")
	}
}

// TestConcurrentSharedKey has many goroutines share one freshly dealt
// DealCached coin, so they race to build its lazily created VK tables
// while sharing, verifying and combining; every worker must derive the
// same coin value.
func TestConcurrentSharedKey(t *testing.T) {
	key, err := DealCached(group.Default(), 2, 4, 97)
	if err != nil {
		t.Fatal(err)
	}
	name := []byte("concurrent coin")
	var wg sync.WaitGroup
	digests := make([][32]byte, 8)
	errs := make([]error, 8)
	for w := range digests {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			digests[w], errs[w] = concurrentCoin(key, name, w)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
		if digests[w] != digests[0] {
			t.Errorf("worker %d derived a different coin", w)
		}
	}
}

func concurrentCoin(key *Key, name []byte, w int) ([32]byte, error) {
	pk := &key.Public
	rng := rand.New(rand.NewSource(int64(200 + w)))
	var shares []*CoinShare
	for i := 0; i < len(key.Shares); i++ {
		sh, err := pk.Share(key.Shares[(i+w)%len(key.Shares)], name, rng)
		if err != nil {
			return [32]byte{}, err
		}
		if err := pk.VerifyShare(name, sh); err != nil {
			return [32]byte{}, fmt.Errorf("worker %d: honest share rejected: %w", w, err)
		}
		shares = append(shares, sh)
	}
	return pk.Combine(name, shares)
}
