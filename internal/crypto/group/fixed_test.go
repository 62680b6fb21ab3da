package group

import (
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/crypto/mont"
)

// prodExpRef is the reference every fast path must reproduce: the
// product of separate big.Int exponentiations, reduced mod P.
func prodExpRef(g *Group, bases, es []*big.Int) *big.Int {
	acc := big.NewInt(1)
	for i, b := range bases {
		acc.Mul(acc, new(big.Int).Exp(b, es[i], g.P)).Mod(acc, g.P)
	}
	return acc
}

// edgeExps are the exponents every path must get exactly right; the
// fallback ones lie outside the kernel's range and must take the
// big.Int path.
func edgeExps(g *Group) (inRange, fallback []*big.Int) {
	two256 := new(big.Int).Lsh(big.NewInt(1), 256)
	inRange = []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Sub(g.Q, big.NewInt(1)),
		new(big.Int).Set(g.Q),
		new(big.Int).Sub(two256, big.NewInt(1)),
	}
	fallback = []*big.Int{
		two256,
		new(big.Int).Lsh(g.Q, 300),
		big.NewInt(-1),
		new(big.Int).Neg(g.Q),
	}
	return inRange, fallback
}

// edgeBases are bases every path must get exactly right: the identity,
// P-1 (order 2, outside the subgroup), the generator, a small
// non-subgroup element, and one subgroup element.
func edgeBases(g *Group) []*big.Int {
	return []*big.Int{
		big.NewInt(1),
		new(big.Int).Sub(g.P, big.NewInt(1)),
		g.G,
		big.NewInt(2),
		g.HashToGroup("fixed-test", []byte("base")),
	}
}

// TestFastPathsMatchBigInt checks ExpG, Fixed.Exp, MultiExpFixed and
// MultiExp against big.Int.Exp on every parameter set — SG-512 through
// the kernel, the rest through the fallback — for edge-case bases and
// exponents, in range and out of it.
func TestFastPathsMatchBigInt(t *testing.T) {
	for _, g := range All() {
		t.Run(g.Name, func(t *testing.T) {
			inRange, fallback := edgeExps(g)
			for _, e := range inRange {
				if !mont.Fits(e) {
					t.Fatalf("exponent %v should be in the kernel's range", e)
				}
			}
			for _, e := range fallback {
				if mont.Fits(e) {
					t.Fatalf("exponent %v should take the fallback", e)
				}
			}
			exps := append(inRange, fallback...)
			bases := edgeBases(g)
			if g.IsElement(big.NewInt(2)) {
				t.Fatal("2 unexpectedly in the subgroup; pick another non-member")
			}
			for bi, b := range bases {
				f := g.NewFixed(b)
				b2 := bases[(bi+1)%len(bases)]
				f2 := g.NewFixed(b2)
				for ei, e := range exps {
					e2 := exps[(ei+2)%len(exps)]
					want := prodExpRef(g, []*big.Int{b}, []*big.Int{e})
					if got := f.Exp(e); got.Cmp(want) != 0 {
						t.Fatalf("Fixed(%v).Exp(%v) = %v, want %v", b, e, got, want)
					}
					if got := g.MultiExp([]*big.Int{b}, []*big.Int{e}); got.Cmp(want) != 0 {
						t.Fatalf("MultiExp(%v^%v) = %v, want %v", b, e, got, want)
					}
					want2 := prodExpRef(g, []*big.Int{b, b2}, []*big.Int{e, e2})
					if got := g.MultiExpFixed([]*Fixed{f, f2}, []*big.Int{e, e2}); got.Cmp(want2) != 0 {
						t.Fatalf("MultiExpFixed(%v^%v * %v^%v) = %v, want %v", b, e, b2, e2, got, want2)
					}
					if got := g.MultiExp([]*big.Int{b, b2}, []*big.Int{e, e2}); got.Cmp(want2) != 0 {
						t.Fatalf("MultiExp(%v^%v * %v^%v) = %v, want %v", b, e, b2, e2, got, want2)
					}
				}
			}
			for _, e := range exps {
				if got, want := g.ExpG(e), new(big.Int).Exp(g.G, e, g.P); got.Cmp(want) != 0 {
					t.Fatalf("ExpG(%v) = %v, want %v", e, got, want)
				}
			}
		})
	}
}

// TestFastPathsRandomized is the property form: random bases (members
// and non-members, up to twice P's width) and random in-range exponents.
func TestFastPathsRandomized(t *testing.T) {
	g := Default()
	rng := rand.New(rand.NewSource(21))
	lim := new(big.Int).Lsh(g.P, uint(g.Bits))
	two256 := new(big.Int).Lsh(big.NewInt(1), 256)
	for trial := 0; trial < 100; trial++ {
		k := 1 + rng.Intn(5)
		bases := make([]*big.Int, k)
		fs := make([]*Fixed, k)
		es := make([]*big.Int, k)
		for i := range bases {
			bases[i] = new(big.Int).Rand(rng, lim)
			fs[i] = g.NewFixed(bases[i])
			es[i] = new(big.Int).Rand(rng, two256)
		}
		want := prodExpRef(g, bases, es)
		if got := g.MultiExp(bases, es); got.Cmp(want) != 0 {
			t.Fatalf("trial %d: MultiExp = %v, want %v", trial, got, want)
		}
		if got := g.MultiExpFixed(fs, es); got.Cmp(want) != 0 {
			t.Fatalf("trial %d: MultiExpFixed = %v, want %v", trial, got, want)
		}
	}
}

// TestFixedConcurrentFirstUse races many goroutines onto handles whose
// tables are not built yet — a fresh group's G table and a fresh base.
func TestFixedConcurrentFirstUse(t *testing.T) {
	d := Default()
	g := &Group{Name: d.Name, Bits: d.Bits, P: d.P, Q: d.Q, G: d.G}
	f := g.NewFixed(g.HashToGroup("race", nil))
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			e := new(big.Int).Rand(rand.New(rand.NewSource(seed)), g.Q)
			if g.ExpG(e).Cmp(new(big.Int).Exp(g.G, e, g.P)) != 0 {
				t.Error("ExpG mismatch")
			}
			if f.Exp(e).Cmp(new(big.Int).Exp(f.Base(), e, g.P)) != 0 {
				t.Error("Fixed.Exp mismatch")
			}
		}(int64(w))
	}
	wg.Wait()
}

// FuzzGroupExp: arbitrary base and exponent bytes must give the kernel
// paths the same result as big.Int.Exp. The exponent is read as
// non-negative, so every input below 2^256 exercises the kernel.
func FuzzGroupExp(f *testing.F) {
	g := Default()
	f.Add([]byte{1}, []byte{})
	f.Add(g.G.Bytes(), g.Q.Bytes())
	f.Add(new(big.Int).Sub(g.P, big.NewInt(1)).Bytes(), []byte{0xff, 0xff, 0xff})
	f.Add(g.P.Bytes(), []byte{2})
	f.Add([]byte{2}, make([]byte, 33))
	f.Fuzz(func(t *testing.T, base, exp []byte) {
		b := new(big.Int).SetBytes(base)
		e := new(big.Int).SetBytes(exp)
		want := new(big.Int).Exp(b, e, g.P)
		if got := g.NewFixed(b).Exp(e); got.Cmp(want) != 0 {
			t.Fatalf("Fixed.Exp = %v, want %v", got, want)
		}
		if got := g.MultiExp([]*big.Int{b, g.G}, []*big.Int{e, e}); got.Cmp(prodExpRef(g, []*big.Int{b, g.G}, []*big.Int{e, e})) != 0 {
			t.Fatalf("MultiExp = %v", got)
		}
	})
}

// freshScalars returns a pool of random exponents below Q to cycle
// through, so no benchmark iteration repeats its neighbour's input.
func freshScalars(g *Group) []*big.Int {
	rng := rand.New(rand.NewSource(31))
	out := make([]*big.Int, 64)
	for i := range out {
		out[i] = new(big.Int).Rand(rng, g.Q)
	}
	return out
}

// sink keeps benchmarked results live.
var sink *big.Int

// BenchmarkExpGFixed is G^e through the group's comb table.
func BenchmarkExpGFixed(b *testing.B) {
	g := Default()
	es := freshScalars(g)
	g.ExpG(es[0]) // build the table outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = g.ExpG(es[i%len(es)])
	}
}

// BenchmarkExpGBig is the same exponentiation through big.Int.Exp.
func BenchmarkExpGBig(b *testing.B) {
	g := Default()
	es := freshScalars(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = g.Exp(g.G, es[i%len(es)])
	}
}

// BenchmarkMultiExp2 is b1^e1 * b2^e2 for fresh variable bases and
// exponents — the shape of a DLEQ verifier's second commitment.
func BenchmarkMultiExp2(b *testing.B) {
	g := Default()
	es := freshScalars(g)
	bases := make([]*big.Int, len(es))
	for i := range bases {
		bases[i] = g.Exp(g.G, es[(i+1)%len(es)])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, k := i%len(es), (i+7)%len(es)
		sink = g.MultiExp([]*big.Int{bases[j], bases[k]}, []*big.Int{es[k], es[j]})
	}
}
