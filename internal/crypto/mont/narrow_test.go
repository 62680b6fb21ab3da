package mont

import (
	"math/big"
	"math/rand"
	"testing"
)

// TestNarrowMatchesBigInt cross-checks the 4-word comb and Straus paths
// against big.Int.Exp on edge-case and random bases and exponents, at
// every comb size from one tooth to MaxTeeth (including tooth counts that
// do not divide 256), at the full 4-word width and below it.
func TestNarrowMatchesBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, bitLen := range []int{256, 255, 200} {
		m := randOdd(rng, bitLen)
		mod := NewModulus(m)
		if mod == nil {
			t.Fatalf("NewModulus rejected odd %d-bit modulus", bitLen)
		}
		mm1 := new(big.Int).Sub(m, big.NewInt(1))
		bases := []*big.Int{
			big.NewInt(0), big.NewInt(1), mm1, big.NewInt(2),
			new(big.Int).Set(m),                // == m: reduces to 0
			new(big.Int).Add(m, big.NewInt(5)), // > m: reduced first
			new(big.Int).Neg(big.NewInt(3)),    // < 0: reduced first
			randBelow(rng, m),
		}
		exps := wideEdges(mm1)
		for i := 0; i < 4; i++ {
			exps = append(exps, new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(1+rng.Intn(256)))))
		}
		for teeth := 1; teeth <= MaxTeeth; teeth++ {
			for bi, b := range bases {
				b2 := bases[(bi+3)%len(bases)]
				c, c2 := mod.NewComb(b, teeth), mod.NewComb(b2, teeth)
				for ei, e := range exps {
					want := new(big.Int).Exp(b, e, m)
					if got := mod.ExpCombs([]*NarrowComb{c}, []*big.Int{e}); got.Cmp(want) != 0 {
						t.Fatalf("%d-tooth comb %v^%v = %v, want %v", teeth, b, e, got, want)
					}
					e2 := exps[(ei+2)%len(exps)]
					want2 := new(big.Int).Exp(b2, e2, m)
					want2.Mul(want2, want).Mod(want2, m)
					if got := mod.ExpCombs([]*NarrowComb{c, c2}, []*big.Int{e, e2}); got.Cmp(want2) != 0 {
						t.Fatalf("%d-tooth comb pair %v^%v*%v^%v = %v, want %v", teeth, b, e, b2, e2, got, want2)
					}
					if teeth > 1 {
						continue // the Straus path does not depend on teeth
					}
					if got := mod.MultiExp([]*big.Int{b}, []*big.Int{e}); got.Cmp(want) != 0 {
						t.Fatalf("multiexp %v^%v = %v, want %v", b, e, got, want)
					}
					if got := mod.MultiExp([]*big.Int{b, b2}, []*big.Int{e, e2}); got.Cmp(want2) != 0 {
						t.Fatalf("multiexp pair %v^%v*%v^%v = %v, want %v", b, e, b2, e2, got, want2)
					}
				}
			}
		}
	}
}

// TestNarrowDeclinesOutOfRangeExponents pins the fallback contract at 4
// words: an exponent that is negative or at least 2^256 makes the comb
// and Straus paths return nil, so callers take the big.Int path.
func TestNarrowDeclinesOutOfRangeExponents(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m := randOdd(rng, 256)
	mod := NewModulus(m)
	c := mod.NewComb(big.NewInt(3), 4)
	ok := big.NewInt(5)
	for _, e := range []*big.Int{
		big.NewInt(-1),
		new(big.Int).Lsh(big.NewInt(1), 256),
		new(big.Int).Lsh(big.NewInt(7), 400),
	} {
		if got := mod.ExpCombs([]*NarrowComb{c, c}, []*big.Int{ok, e}); got != nil {
			t.Errorf("ExpCombs accepted exponent %v", e)
		}
		if got := mod.MultiExp([]*big.Int{ok, ok}, []*big.Int{ok, e}); got != nil {
			t.Errorf("MultiExp accepted exponent %v", e)
		}
	}
}

// TestNarrowCombRejectsBadTeeth pins NewComb's tooth range and ExpCombs'
// same-teeth rule.
func TestNarrowCombRejectsBadTeeth(t *testing.T) {
	mod := NewModulus(randOdd(rand.New(rand.NewSource(23)), 256))
	for _, teeth := range []int{0, MaxTeeth + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewComb accepted %d teeth", teeth)
				}
			}()
			mod.NewComb(big.NewInt(3), teeth)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("ExpCombs accepted combs with different teeth")
		}
	}()
	mod.ExpCombs([]*NarrowComb{mod.NewComb(big.NewInt(3), 4), mod.NewComb(big.NewInt(3), 8)},
		[]*big.Int{big.NewInt(1), big.NewInt(1)})
}

// TestNarrowCombSize pins the table sizes the TS-512 memory budget is
// stated in: 8 KiB per half at MaxTeeth, 512 B per half at 4 teeth.
func TestNarrowCombSize(t *testing.T) {
	mod := NewModulus(randOdd(rand.New(rand.NewSource(24)), 256))
	for teeth, want := range map[int]int{MaxTeeth: 8 << 10, 4: 512} {
		if got := len(mod.NewComb(big.NewInt(3), teeth).tbl) * 8 * maxWords; got != want {
			t.Errorf("%d-tooth comb is %d bytes, want %d", teeth, got, want)
		}
	}
}

// TestNarrowSqrMatchesMul checks the 4-word squaring kernel against the
// general Montgomery product on random and extreme residues.
func TestNarrowSqrMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 300; trial++ {
		m := randOdd(rng, 64*maxWords-trial%3)
		mod := NewModulus(m)
		x := randBelow(rng, m)
		switch trial % 5 {
		case 0:
			x.Sub(m, big.NewInt(1))
		case 1:
			x.SetInt64(1)
		case 2:
			x.SetInt64(0)
		}
		var xm, a, b [maxWords]uint64
		mod.toMont(&xm, x)
		mod.mul(&a, &xm, &xm)
		mod.sqr(&b, &xm)
		if a != b {
			t.Fatalf("trial %d: sqr(%v) != mul(x, x)", trial, x)
		}
	}
}

// narrowSink keeps benchmarked results live.
var narrowSink *big.Int

func benchNarrowComb(b *testing.B, teeth int) {
	rng := rand.New(rand.NewSource(26))
	m := randOdd(rng, 256)
	mod := NewModulus(m)
	c := mod.NewComb(randBelow(rng, m), teeth)
	es := make([]*big.Int, 64) // fresh exponents, cycled
	for i := range es {
		es[i] = randOdd(rng, 255)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		narrowSink = mod.ExpCombs([]*NarrowComb{c}, es[i%len(es):i%len(es)+1])
	}
}

func BenchmarkNarrowComb8(b *testing.B) { benchNarrowComb(b, MaxTeeth) }
func BenchmarkNarrowComb4(b *testing.B) { benchNarrowComb(b, 4) }

// BenchmarkNarrowMultiExp2 is b1^e1 * b2^e2 for fresh bases and
// exponents: the shape of one share-verification commitment per CRT half.
func BenchmarkNarrowMultiExp2(b *testing.B) {
	rng := rand.New(rand.NewSource(27))
	m := randOdd(rng, 256)
	mod := NewModulus(m)
	bases, es := make([]*big.Int, 64), make([]*big.Int, 64)
	for i := range bases {
		bases[i], es[i] = randBelow(rng, m), randOdd(rng, 255)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, k := i%64, (i+1)%64
		narrowSink = mod.MultiExp([]*big.Int{bases[j], bases[k]}, []*big.Int{es[k], es[j]})
	}
}
