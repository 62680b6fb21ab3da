package mont

import (
	"math/big"
	"math/rand"
	"testing"
	"unsafe"
)

// wideEdges returns the exponent edge cases the Wide algorithms must get
// exactly right, for a stand-in 256-bit group order q.
func wideEdges(q *big.Int) []*big.Int {
	return []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Sub(q, big.NewInt(1)),
		q,
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1)), // 2^256-1
	}
}

// TestWideMatchesBigInt cross-checks the comb and Straus paths against
// big.Int.Exp on edge-case and random bases and exponents, at the full
// 8-word width and just below it.
func TestWideMatchesBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 3; trial++ {
		m := randOdd(rng, 64*wideWords-trial)
		w := NewWide(m)
		if w == nil {
			t.Fatalf("NewWide rejected odd %d-bit modulus", m.BitLen())
		}
		mm1 := new(big.Int).Sub(m, big.NewInt(1))
		bases := []*big.Int{
			big.NewInt(0), big.NewInt(1), mm1, big.NewInt(2),
			new(big.Int).Set(m),                // == m: reduces to 0
			new(big.Int).Add(m, big.NewInt(5)), // > m: reduced first
			new(big.Int).Neg(big.NewInt(3)),    // < 0: reduced first
			randBelow(rng, m), randBelow(rng, m),
		}
		exps := wideEdges(randOdd(rng, 256))
		for i := 0; i < 8; i++ {
			exps = append(exps, new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(1+rng.Intn(256)))))
		}
		for bi, b := range bases {
			c := w.NewComb(b)
			b2 := bases[(bi+1)%len(bases)]
			c2 := w.NewComb(b2)
			for ei, e := range exps {
				want := new(big.Int).Exp(b, e, m)
				if got := w.ExpCombs([]*Comb{c}, []*big.Int{e}); got.Cmp(want) != 0 {
					t.Fatalf("comb %v^%v = %v, want %v", b, e, got, want)
				}
				if got := w.MultiExp([]*big.Int{b}, []*big.Int{e}); got.Cmp(want) != 0 {
					t.Fatalf("multiexp %v^%v = %v, want %v", b, e, got, want)
				}
				e2 := exps[(ei+3)%len(exps)]
				want2 := new(big.Int).Exp(b2, e2, m)
				want2.Mul(want2, want).Mod(want2, m)
				if got := w.ExpCombs([]*Comb{c, c2}, []*big.Int{e, e2}); got.Cmp(want2) != 0 {
					t.Fatalf("comb pair %v^%v*%v^%v = %v, want %v", b, e, b2, e2, got, want2)
				}
				if got := w.MultiExp([]*big.Int{b, b2}, []*big.Int{e, e2}); got.Cmp(want2) != 0 {
					t.Fatalf("multiexp pair %v^%v*%v^%v = %v, want %v", b, e, b2, e2, got, want2)
				}
			}
		}
	}
}

// TestWideMultiExpMany covers the Straus path past its stack-resident
// table count.
func TestWideMultiExpMany(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := randOdd(rng, 512)
	w := NewWide(m)
	for k := 1; k <= 7; k++ {
		bases := make([]*big.Int, k)
		exps := make([]*big.Int, k)
		want := big.NewInt(1)
		for i := range bases {
			bases[i] = randBelow(rng, m)
			exps[i] = randOdd(rng, 1+rng.Intn(256))
			want.Mul(want, new(big.Int).Exp(bases[i], exps[i], m)).Mod(want, m)
		}
		if got := w.MultiExp(bases, exps); got.Cmp(want) != 0 {
			t.Fatalf("k=%d: got %v, want %v", k, got, want)
		}
	}
}

// TestWideDeclinesOutOfRangeExponents pins the fallback contract: an
// exponent that is negative or at least 2^256 makes both algorithms
// return nil, so callers take the big.Int path.
func TestWideDeclinesOutOfRangeExponents(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := randOdd(rng, 512)
	w := NewWide(m)
	c := w.NewComb(big.NewInt(3))
	ok := big.NewInt(5)
	for _, e := range []*big.Int{
		big.NewInt(-1),
		new(big.Int).Lsh(big.NewInt(1), 256),
		new(big.Int).Lsh(big.NewInt(7), 400),
	} {
		if Fits(e) {
			t.Errorf("Fits(%v) = true", e)
		}
		if got := w.ExpCombs([]*Comb{c, c}, []*big.Int{ok, e}); got != nil {
			t.Errorf("ExpCombs accepted exponent %v", e)
		}
		if got := w.MultiExp([]*big.Int{ok, ok}, []*big.Int{ok, e}); got != nil {
			t.Errorf("MultiExp accepted exponent %v", e)
		}
	}
	for _, e := range wideEdges(randOdd(rng, 256)) {
		if !Fits(e) {
			t.Errorf("Fits(%v) = false", e)
		}
	}
}

// TestSqrMatchesMul checks the squaring kernel against the general
// Montgomery product on random and extreme residues.
func TestSqrMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 300; trial++ {
		m := randOdd(rng, 64*wideWords-trial%3)
		w := NewWide(m)
		x := randBelow(rng, m)
		switch trial % 5 {
		case 0:
			x.Sub(m, big.NewInt(1))
		case 1:
			x.SetInt64(1)
		}
		var xm, a, b [wideWords]uint64
		w.toMont(&xm, x)
		w.mul(&a, &xm, &xm)
		w.sqr(&b, &xm)
		if a != b {
			t.Fatalf("trial %d: sqr(%v) != mul(x, x)", trial, x)
		}
	}
}

// TestCombSize pins a comb table at 16 KiB, which keeps a dealt key's
// tables (H plus one per party) well under 0.5 MiB at the simulated
// committee sizes and a group's G table under 64 KiB.
func TestCombSize(t *testing.T) {
	if got := unsafe.Sizeof(Comb{}); got != 16<<10 {
		t.Errorf("Comb is %d bytes, want %d", got, 16<<10)
	}
}

func TestNewWideRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, m := range []*big.Int{nil, big.NewInt(0), big.NewInt(-7), big.NewInt(1),
		randOdd(rng, 256), randOdd(rng, 448), randOdd(rng, 513)} {
		if NewWide(m) != nil {
			t.Errorf("accepted %v-bit modulus", m.BitLen())
		}
	}
	even := randOdd(rng, 512)
	even.SetBit(even, 0, 0)
	if NewWide(even) != nil {
		t.Error("accepted even modulus")
	}
}

// wideSink keeps benchmarked results live.
var wideSink *big.Int

func BenchmarkWideComb(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	m := randOdd(rng, 512)
	w := NewWide(m)
	c := w.NewComb(randBelow(rng, m))
	es := make([]*big.Int, 64) // fresh exponents, cycled
	for i := range es {
		es[i] = randOdd(rng, 256)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wideSink = w.ExpCombs([]*Comb{c}, es[i%len(es):i%len(es)+1])
	}
}

func BenchmarkWideNewComb(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	m := randOdd(rng, 512)
	w := NewWide(m)
	x := randBelow(rng, m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.NewComb(x)
	}
}
