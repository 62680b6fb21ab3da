package threshsig

import (
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"testing"
)

// freshKey deals a TS-512 key outside DealCached, so no other test has
// built its tables yet.
func freshKey(t testing.TB, k, l int, seed int64) *Key {
	t.Helper()
	fix, err := FixtureByName("TS-512")
	if err != nil {
		t.Fatal(err)
	}
	key, err := Deal(fix.Name, fix.P, fix.Q, k, l, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// verdictString renders a verdict for comparison: the reference and fast
// paths must agree on the error text, not only on accept/reject.
func verdictString(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}

// TestFastCommitmentsMatchReference is the property behind the fast
// path: for every share index, the Straus and comb commitments equal the
// reference exponentiations bit for bit, and the verdict equals that of
// the same key with the accelerator and caches stripped. Negative
// responses or challenges must decline the fast path.
func TestFastCommitmentsMatchReference(t *testing.T) {
	key := testKey(t, 2, 4)
	pk := &key.Public
	ref := slowKey(*pk)
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 3; trial++ {
		msg := []byte(fmt.Sprintf("fast-commitments %d", trial))
		ctx := pk.ctxFor(msg)
		for i := range key.Shares {
			honest, err := pk.Sign(key.Shares[i], msg, rng)
			if err != nil {
				t.Fatal(err)
			}
			randC := new(big.Int).Rand(rng, new(big.Int).Lsh(one, 256))
			cases := map[string]*SigShare{
				"honest":     honest,
				"tampered Z": {Index: honest.Index, X: honest.X, C: honest.C, Z: new(big.Int).Add(honest.Z, one)},
				"random C":   {Index: honest.Index, X: honest.X, C: randC, Z: honest.Z},
				"negative Z": {Index: honest.Index, X: honest.X, C: honest.C, Z: new(big.Int).Neg(honest.Z)},
				"negative C": {Index: honest.Index, X: honest.X, C: new(big.Int).Neg(honest.C), Z: honest.Z},
			}
			for name, sh := range cases {
				xi2 := new(big.Int).Mul(sh.X, sh.X)
				xi2Inv := new(big.Int).ModInverse(xi2.Mod(xi2, pk.N), pk.N)
				t1, t2 := pk.fastCommitments(ctx, sh, xi2Inv)
				negative := sh.Z.Sign() < 0 || sh.C.Sign() < 0
				switch {
				case negative && t1 != nil:
					t.Errorf("index %d %s: fast path accepted a negative exponent", sh.Index, name)
				case !negative && t1 == nil:
					t.Errorf("index %d %s: fast path declined", sh.Index, name)
				case !negative:
					r1, r2, err := ref.refCommitments(ref.ctxFor(msg), sh, xi2Inv)
					if err != nil {
						t.Fatal(err)
					}
					if t1.Cmp(r1) != 0 || t2.Cmp(r2) != 0 {
						t.Errorf("index %d %s: fast commitments differ from the reference", sh.Index, name)
					}
				}
				got, want := verdictString(pk.verifyShareFull(ctx, sh)), verdictString(ref.VerifyShare(msg, sh))
				if got != want {
					t.Errorf("index %d %s: verdict %q, reference %q", sh.Index, name, got, want)
				}
				if name == "honest" && got != "ok" {
					t.Errorf("index %d: honest share rejected: %s", sh.Index, got)
				}
			}
		}
	}
}

// TestSignMatchesReference pins Sign's fast path: with the same
// randomness, a dealt key and its stripped reference produce the same
// share, byte for byte, for every party and several messages.
func TestSignMatchesReference(t *testing.T) {
	key := testKey(t, 2, 4)
	ref := slowKey(key.Public)
	for trial := 0; trial < 3; trial++ {
		msg := []byte(fmt.Sprintf("sign-reference %d", trial))
		for i, s := range key.Shares {
			seed := int64(100*trial + i)
			got, err := key.Public.Sign(s, msg, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Sign(s, msg, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			if got.X.Cmp(want.X) != 0 || got.C.Cmp(want.C) != 0 || got.Z.Cmp(want.Z) != 0 {
				t.Errorf("msg %d party %d: fast share differs from the reference", trial, s.Index)
			}
		}
	}
}

// TestNonUnitShareRejectedAsDegenerate is the regression for the
// non-unit check: a share value sharing a factor with N (here the prime
// p itself) has no inverse, and must be rejected as degenerate before
// any exponentiation — not silently verified against xi2^c.
func TestNonUnitShareRejectedAsDegenerate(t *testing.T) {
	key := testKey(t, 2, 4)
	fix, err := FixtureByName("TS-512")
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("non-unit share")
	honest, err := key.Public.Sign(key.Shares[0], msg, rand.New(rand.NewSource(52)))
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []*big.Int{fix.P, new(big.Int).Lsh(fix.Q, 1)} {
		sh := &SigShare{Index: honest.Index, X: x, C: honest.C, Z: honest.Z}
		for name, pk := range map[string]*PublicKey{"dealt": &key.Public, "reference": slowKey(key.Public)} {
			if err := pk.VerifyShare(msg, sh); err == nil || err.Error() != "threshsig: degenerate share" {
				t.Errorf("%s key, X = %v: got %v, want the degenerate share error", name, x, err)
			}
		}
	}
}

// TestVerdictMemoKeepsSigns is the regression for the verdict memo's
// key: big.Int.Bytes drops the sign, so a share with a negated challenge
// or response used to replay the honest share's accepted verdict.
func TestVerdictMemoKeepsSigns(t *testing.T) {
	key := testKey(t, 2, 4)
	msg := []byte("memo signs")
	honest, err := key.Public.Sign(key.Shares[0], msg, rand.New(rand.NewSource(60)))
	if err != nil {
		t.Fatal(err)
	}
	if err := key.Public.VerifyShare(msg, honest); err != nil {
		t.Fatal(err)
	}
	for _, sh := range []*SigShare{
		{Index: honest.Index, X: honest.X, C: new(big.Int).Neg(honest.C), Z: honest.Z},
		{Index: honest.Index, X: honest.X, C: honest.C, Z: new(big.Int).Neg(honest.Z)},
	} {
		if err := key.Public.VerifyShare(msg, sh); err == nil {
			t.Errorf("share with C sign %d, Z sign %d accepted", sh.C.Sign(), sh.Z.Sign())
		}
	}
}

// TestCombineRejectsNonUnitShare covers the inverse checks in Combine: a
// share value that is not a unit cannot be raised to a negative Lagrange
// power, and Combine must say so instead of using a stale value.
func TestCombineRejectsNonUnitShare(t *testing.T) {
	key := testKey(t, 2, 4)
	fix, err := FixtureByName("TS-512")
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("combine non-unit")
	rng := rand.New(rand.NewSource(53))
	sh1, err := key.Public.Sign(key.Shares[0], msg, rng)
	if err != nil {
		t.Fatal(err)
	}
	// With indices {1, 3}, party 3's Lagrange coefficient is negative.
	bad := &SigShare{Index: 3, X: fix.P, C: sh1.C, Z: sh1.Z}
	if _, err := key.Public.Combine(msg, []*SigShare{sh1, bad}); err == nil || err.Error() != "threshsig: non-invertible share" {
		t.Errorf("got %v, want the non-invertible share error", err)
	}
}

// TestDealBuildsNoTable pins that dealing leaves the comb tables for
// first use, so setup cost does not move, and that first use builds them.
func TestDealBuildsNoTable(t *testing.T) {
	key := freshKey(t, 2, 4, 54)
	cc := key.Public.cc
	if cc.v.c != nil || cc.vkInv[0].c != nil {
		t.Fatal("Deal built comb tables")
	}
	msg := []byte("first use")
	sh, err := key.Public.Sign(key.Shares[0], msg, rand.New(rand.NewSource(55)))
	if err != nil {
		t.Fatal(err)
	}
	if err := key.Public.VerifyShare(msg, sh); err != nil {
		t.Fatal(err)
	}
	if cc.v.c == nil || cc.vkInv[0].c == nil || key.Public.ctxFor(msg).comb.c == nil {
		t.Error("first use built no comb table")
	}
	if cc.vkInv[1].c != nil {
		t.Error("an unused verification key's table was built")
	}
}

// TestTablesConcurrentFirstUse races the first uses of one fresh key's
// per-key tables (V, every VK_i^{-1}) and per-message tables (b) across
// goroutines, under the race detector in CI, and checks every result
// against the stripped reference.
func TestTablesConcurrentFirstUse(t *testing.T) {
	key := freshKey(t, 2, 4, 56)
	ref := slowKey(key.Public)
	msgs := [][]byte{[]byte("race a"), []byte("race b")}
	type signed struct {
		msg  []byte
		seed int64
		sh   *SigShare
	}
	out := make(chan signed, 8*len(key.Shares))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, s := range key.Shares {
				msg := msgs[(g+i)%len(msgs)]
				seed := int64(1000*g + i)
				sh, err := key.Public.Sign(s, msg, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Error(err)
					return
				}
				if err := key.Public.Verifier(msg).Verify(sh); err != nil {
					t.Errorf("goroutine %d: honest share %d rejected: %v", g, sh.Index, err)
				}
				out <- signed{msg, seed, sh}
			}
		}(g)
	}
	wg.Wait()
	close(out)
	for s := range out {
		want, err := ref.Sign(key.Shares[s.sh.Index-1], s.msg, rand.New(rand.NewSource(s.seed)))
		if err != nil {
			t.Fatal(err)
		}
		if s.sh.X.Cmp(want.X) != 0 || s.sh.C.Cmp(want.C) != 0 || s.sh.Z.Cmp(want.Z) != 0 {
			t.Errorf("share %d on %q differs from the reference", s.sh.Index, s.msg)
		}
	}
}

// FuzzThreshsigVerifyShare checks, on arbitrary (Index, X, C, Z), that a
// dealt key's verdict — fast path, caches and all — equals the verdict
// of the same key with the accelerator and caches stripped.
func FuzzThreshsigVerifyShare(f *testing.F) {
	key := testKey(f, 2, 4)
	msg := []byte("fuzz verify share")
	honest, err := key.Public.Sign(key.Shares[1], msg, rand.New(rand.NewSource(57)))
	if err != nil {
		f.Fatal(err)
	}
	fix, err := FixtureByName("TS-512")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(honest.Index, honest.X.Bytes(), honest.C.Bytes(), honest.Z.Bytes(), false, false)
	f.Add(honest.Index, honest.X.Bytes(), honest.C.Bytes(), honest.Z.Bytes(), true, false)
	f.Add(honest.Index+1, honest.X.Bytes(), honest.C.Bytes(), honest.Z.Bytes(), false, false)
	f.Add(honest.Index, fix.P.Bytes(), honest.C.Bytes(), honest.Z.Bytes(), false, true)
	f.Add(0, []byte{1}, []byte{}, []byte{7}, false, false)
	ref := slowKey(key.Public)
	f.Fuzz(func(t *testing.T, index int, x, c, z []byte, negC, negZ bool) {
		if len(x) > 80 || len(c) > 80 || len(z) > 200 {
			return // beyond the sizes an honest share has; keeps the reference path fast
		}
		bc, bz := new(big.Int).SetBytes(c), new(big.Int).SetBytes(z)
		if negC {
			bc.Neg(bc)
		}
		if negZ {
			bz.Neg(bz)
		}
		sh := &SigShare{Index: index, X: new(big.Int).SetBytes(x), C: bc, Z: bz}
		got, want := verdictString(key.Public.VerifyShare(msg, sh)), verdictString(ref.VerifyShare(msg, sh))
		if got != want {
			t.Fatalf("index %d: dealt key says %q, reference says %q", index, got, want)
		}
	})
}

// BenchmarkSign measures one share signature on a fresh message per
// iteration, so the per-message comb build is included.
func BenchmarkSign(b *testing.B) {
	key := testKey(b, 2, 4)
	rng := rand.New(rand.NewSource(58))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg := []byte(fmt.Sprintf("bench sign %d", i))
		if _, err := key.Public.Sign(key.Shares[i%len(key.Shares)], msg, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyShareFresh measures one accelerated share verification
// with the key's tables in place but no verdict memo: every iteration
// verifies a share it has not seen, as a node does on the wire.
func BenchmarkVerifyShareFresh(b *testing.B) {
	key := testKey(b, 2, 4)
	rng := rand.New(rand.NewSource(59))
	msg := []byte("bench verify fresh")
	ctx := key.Public.ctxFor(msg)
	shares := make([]*SigShare, 64)
	for i := range shares {
		sh, err := key.Public.Sign(key.Shares[i%len(key.Shares)], msg, rng)
		if err != nil {
			b.Fatal(err)
		}
		shares[i] = sh
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := key.Public.verifyShareFull(ctx, shares[i%len(shares)]); err != nil {
			b.Fatal(err)
		}
	}
}
