package dleq

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/crypto/group"
)

func testGroup() *group.Group { return group.Default() }

func TestProveVerify(t *testing.T) {
	g := testGroup()
	rng := rand.New(rand.NewSource(1))
	x := big.NewInt(987654321)
	g1 := g.FixedG()
	g2 := g.HashToGroup("base2", []byte("msg"))
	a := g1.Exp(x)
	b := g.Exp(g2, x)
	p, err := Prove(g, g1, g2, a, b, x, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, g1, g2, g.NewFixed(a), b, p); err != nil {
		t.Errorf("honest proof rejected: %v", err)
	}
}

func TestVerifyRejectsWrongExponent(t *testing.T) {
	g := testGroup()
	rng := rand.New(rand.NewSource(2))
	x := big.NewInt(111)
	y := big.NewInt(222)
	g1 := g.FixedG()
	g2 := g.HashToGroup("base2", []byte("m"))
	a := g1.Exp(x)
	b := g.Exp(g2, y) // different exponent!
	p, err := Prove(g, g1, g2, a, b, x, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, g1, g2, g.NewFixed(a), b, p); err == nil {
		t.Error("proof over unequal logs accepted")
	}
}

func TestVerifyRejectsTamperedProof(t *testing.T) {
	g := testGroup()
	rng := rand.New(rand.NewSource(3))
	x := big.NewInt(777)
	g2 := g.HashToGroup("b", []byte("m"))
	a, b := g.ExpG(x), g.Exp(g2, x)
	p, err := Prove(g, g.FixedG(), g2, a, b, x, rng)
	if err != nil {
		t.Fatal(err)
	}
	tampered := &Proof{C: new(big.Int).Add(p.C, big.NewInt(1)), Z: p.Z}
	if err := Verify(g, g.FixedG(), g2, g.NewFixed(a), b, tampered); err == nil {
		t.Error("tampered challenge accepted")
	}
	tampered = &Proof{C: p.C, Z: new(big.Int).Add(p.Z, big.NewInt(1))}
	if err := Verify(g, g.FixedG(), g2, g.NewFixed(a), b, tampered); err == nil {
		t.Error("tampered response accepted")
	}
}

func TestVerifyRejectsNonElements(t *testing.T) {
	g := testGroup()
	rng := rand.New(rand.NewSource(4))
	x := big.NewInt(5)
	g2 := g.HashToGroup("b", []byte("m"))
	a, b := g.ExpG(x), g.Exp(g2, x)
	p, err := Prove(g, g.FixedG(), g2, a, b, x, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, g.FixedG(), g2, g.NewFixed(big.NewInt(0)), b, p); err == nil {
		t.Error("zero element accepted")
	}
	if err := Verify(g, g.FixedG(), g2, g.NewFixed(a), b, nil); err == nil {
		t.Error("nil proof accepted")
	}
}

func TestProofBindsToBases(t *testing.T) {
	g := testGroup()
	rng := rand.New(rand.NewSource(5))
	x := big.NewInt(31337)
	g2 := g.HashToGroup("b", []byte("m"))
	g3 := g.HashToGroup("b", []byte("other"))
	a, b := g.ExpG(x), g.Exp(g2, x)
	p, err := Prove(g, g.FixedG(), g2, a, b, x, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Same (a, b) against a different second base must fail.
	if err := Verify(g, g.FixedG(), g3, g.NewFixed(a), b, p); err == nil {
		t.Error("proof transplanted to different base accepted")
	}
}

func TestSizePositive(t *testing.T) {
	for _, g := range group.All() {
		if Size(g) <= 32 {
			t.Errorf("%s: Size = %d", g.Name, Size(g))
		}
	}
}

// BenchmarkVerify measures one proof verification on a fresh statement —
// a new second base and share each time — under one recurring
// verification key, as a party verifying decryption shares sees it.
func BenchmarkVerify(b *testing.B) {
	g := testGroup()
	rng := rand.New(rand.NewSource(6))
	x := new(big.Int).Rand(rng, g.Q)
	vk := g.NewFixed(g.ExpG(x))
	type stmt struct {
		g2, b *big.Int
		p     *Proof
	}
	stmts := make([]stmt, 64)
	for i := range stmts {
		g2 := g.HashToGroup("bench", []byte{byte(i)})
		bv := g.Exp(g2, x)
		p, err := Prove(g, g.FixedG(), g2, vk.Base(), bv, x, rng)
		if err != nil {
			b.Fatal(err)
		}
		stmts[i] = stmt{g2, bv, p}
	}
	if err := Verify(g, g.FixedG(), stmts[0].g2, vk, stmts[0].b, stmts[0].p); err != nil {
		b.Fatal(err) // also builds the key's table outside the timed loop
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := stmts[i%len(stmts)]
		if err := Verify(g, g.FixedG(), st.g2, vk, st.b, st.p); err != nil {
			b.Fatal(err)
		}
	}
}
