package threshsig

import (
	"crypto/sha256"
	"encoding/binary"
	"math/big"
	"sync"

	"repro/internal/crypto/mont"
)

// pkCache memoizes the deterministic intermediate values of a dealt key.
// Keys are shared across concurrently running simulations (crypto.DealCached
// hands the same Suite to every sweep cell), so every map is guarded.
//
// None of this changes observable behaviour: everything cached is a pure
// function of (public key, inputs), so hits return exactly what a fresh
// computation would. Virtual-time charges are made by the callers through
// the cost model and are likewise untouched — the simulated STM32 still
// pays full price per operation; only the host machine skips repeat work.
type pkCache struct {
	mu sync.Mutex
	// delta = L!, gcdA/gcdB = Bezout coefficients of (e, 4*delta^2):
	// fixed per key, computed on first use.
	delta      *big.Int
	gcdA, gcdB *big.Int
	// msgs: per-message context (x = H(msg), x4d = x^{4*delta}) shared by
	// Sign, VerifyShare, Combine, and Verify. One message is touched by
	// every party of the simulation, so the hit rate is ~(parties-1)/parties.
	msgs map[[32]byte]*msgCtx
	// verified: share-verification verdicts keyed by (msg, share). Each
	// share is verified by every other party; the verdict is a pure
	// function of the share bytes, so replaying it is exact.
	verified map[[32]byte]error
	// lag: integer Lagrange coefficients keyed by (subset, index).
	lag map[string]*big.Int

	// v and vkInv[i-1]: comb tables (mod p and mod q, MaxTeeth teeth,
	// 16 KiB each) of the verification base V and of VK_i^{-1}, for the
	// fixed-base exponentiations of Sign and share verification. Each is
	// built on first use, never in Deal, so dealing costs what it did.
	v     lazyComb
	vkInv []lazyComb
}

// newPKCache returns the empty cache of a key with l parties.
func newPKCache(l int) *pkCache {
	return &pkCache{
		msgs:     make(map[[32]byte]*msgCtx),
		verified: make(map[[32]byte]error),
		lag:      make(map[string]*big.Int),
		vkInv:    make([]lazyComb, l),
	}
}

// lazyComb is a comb table built on first use. A nil table after the
// build means the fast path does not apply (no 4-word kernel, or a base
// that is not a unit mod N).
type lazyComb struct {
	once sync.Once
	c    *crtComb
}

func (l *lazyComb) get(build func() *crtComb) *crtComb {
	l.once.Do(func() { l.c = build() })
	return l.c
}

// msgCtx is the per-message exponentiation context.
type msgCtx struct {
	x   *big.Int // H(msg) in Z_N
	b   *big.Int // x^{2*delta}: the base of every signer's share and commitment
	x4d *big.Int // x^{4*delta} = b^2 — the share-proof base
	// comb: b's comb table (msgTeeth teeth, 1 KiB), shared by the signers
	// of the message and built by the first.
	comb lazyComb
}

// msgTeeth is the tooth count of a message's comb: 16 entries per half,
// cheap enough to build for the few exponentiations one message sees.
const msgTeeth = 4

// cacheCap bounds each memo map; on overflow the map is cleared (the
// working set of a sweep cell is tiny compared to this, so eviction is a
// safety valve, not a tuning knob).
const cacheCap = 4096

// exp computes base^e mod N through the CRT accelerator when the key was
// produced by Deal; hand-built keys fall back to plain modexp. Negative
// exponents always take the slow path (none of the hot call sites use
// them).
func (pk *PublicKey) exp(base, e *big.Int) *big.Int {
	if pk.acc != nil && e.Sign() >= 0 {
		return pk.acc.exp(base, e)
	}
	return new(big.Int).Exp(base, e, pk.N)
}

// vComb returns V's comb tables, or nil off the fast path.
func (pk *PublicKey) vComb() *crtComb {
	if pk.cc == nil {
		return nil
	}
	return pk.cc.v.get(func() *crtComb { return pk.acc.newComb(pk.V, mont.MaxTeeth) })
}

// vkInvComb returns the comb tables of VK_i^{-1}, or nil off the fast
// path.
func (pk *PublicKey) vkInvComb(i int) *crtComb {
	if pk.cc == nil {
		return nil
	}
	return pk.cc.vkInv[i-1].get(func() *crtComb {
		inv := new(big.Int).ModInverse(pk.VKs[i-1], pk.N)
		if inv == nil {
			return nil
		}
		return pk.acc.newComb(inv, mont.MaxTeeth)
	})
}

// msgComb returns the comb tables of the message's b = x^{2*delta}, or
// nil off the fast path (including an x that is not a unit). Only cached
// contexts get one: an uncached context serves a single call.
func (pk *PublicKey) msgComb(ctx *msgCtx) *crtComb {
	if pk.cc == nil {
		return nil
	}
	return ctx.comb.get(func() *crtComb { return pk.acc.newComb(ctx.b, msgTeeth) })
}

// deltaL returns L! (cached when the key carries a cache).
func (pk *PublicKey) deltaL() *big.Int {
	if pk.cc == nil {
		return delta(pk.L)
	}
	pk.cc.mu.Lock()
	defer pk.cc.mu.Unlock()
	if pk.cc.delta == nil {
		pk.cc.delta = delta(pk.L)
	}
	return pk.cc.delta
}

// ctxFor returns the per-message context, computing and caching it on
// first use. Safe under concurrent misses: both goroutines compute the
// same pure values and one result wins.
func (pk *PublicKey) ctxFor(msg []byte) *msgCtx {
	if pk.cc == nil {
		return pk.newMsgCtx(msg)
	}
	key := sha256.Sum256(msg)
	pk.cc.mu.Lock()
	ctx := pk.cc.msgs[key]
	pk.cc.mu.Unlock()
	if ctx != nil {
		return ctx
	}
	ctx = pk.newMsgCtx(msg)
	pk.cc.mu.Lock()
	if prior := pk.cc.msgs[key]; prior != nil {
		ctx = prior
	} else {
		if len(pk.cc.msgs) >= cacheCap {
			clear(pk.cc.msgs)
		}
		pk.cc.msgs[key] = ctx
	}
	pk.cc.mu.Unlock()
	return ctx
}

// newMsgCtx computes the context of msg.
func (pk *PublicKey) newMsgCtx(msg []byte) *msgCtx {
	x := hashToModulus(pk.N, pk.Salt, msg)
	b := pk.exp(x, new(big.Int).Lsh(pk.deltaL(), 1))
	return &msgCtx{x: x, b: b, x4d: pk.mulMod(b, b)}
}

// combineExponents returns the cached Bezout pair (a, b) with
// a*e + b*4*delta^2 = 1, or ok=false if e and 4*delta^2 are not coprime.
func (pk *PublicKey) combineExponents() (a, b *big.Int, ok bool) {
	if pk.cc != nil {
		pk.cc.mu.Lock()
		a, b = pk.cc.gcdA, pk.cc.gcdB
		pk.cc.mu.Unlock()
		if a != nil {
			return a, b, true
		}
	}
	d := pk.deltaL()
	fourD2 := new(big.Int).Mul(d, d)
	fourD2.Lsh(fourD2, 2)
	x, y := new(big.Int), new(big.Int)
	if new(big.Int).GCD(x, y, pk.E, fourD2).Cmp(one) != 0 {
		return nil, nil, false
	}
	if pk.cc != nil {
		pk.cc.mu.Lock()
		if pk.cc.gcdA == nil {
			pk.cc.gcdA, pk.cc.gcdB = x, y
		} else {
			x, y = pk.cc.gcdA, pk.cc.gcdB
		}
		pk.cc.mu.Unlock()
	}
	return x, y, true
}

// shareKey digests a (message, share) pair for the verdict memo. The key
// covers every byte the verifier reads — including the signs of C and Z,
// which big.Int.Bytes drops — so two shares collide only if they would
// verify identically anyway.
func shareKey(msgDigest [32]byte, sh *SigShare) [32]byte {
	h := sha256.New()
	h.Write(msgDigest[:])
	var ib [4]byte
	binary.BigEndian.PutUint32(ib[:], uint32(sh.Index))
	h.Write(ib[:])
	h.Write([]byte{byte(sh.C.Sign() + 1), byte(sh.Z.Sign() + 1)})
	writeLenPrefixed(h, sh.X.Bytes())
	writeLenPrefixed(h, sh.C.Bytes())
	writeLenPrefixed(h, sh.Z.Bytes())
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func writeLenPrefixed(h interface{ Write([]byte) (int, error) }, b []byte) {
	var lb [4]byte
	binary.BigEndian.PutUint32(lb[:], uint32(len(b)))
	h.Write(lb[:])
	h.Write(b)
}

// lagrangeFor returns the cached integer Lagrange coefficient for index i
// over the given subset (delta-scaled, per Shoup). The subset is keyed by
// its exact index sequence, so distinct share orderings cache separately
// — correctness never depends on canonicalization.
func (pk *PublicKey) lagrangeFor(subset []*SigShare, i int, d *big.Int) *big.Int {
	if pk.cc == nil {
		return integerLagrange(subset, i, d)
	}
	key := make([]byte, 0, 2*len(subset)+2)
	for _, sh := range subset {
		key = binary.BigEndian.AppendUint16(key, uint16(sh.Index))
	}
	key = binary.BigEndian.AppendUint16(key, uint16(i))
	pk.cc.mu.Lock()
	lam := pk.cc.lag[string(key)]
	pk.cc.mu.Unlock()
	if lam != nil {
		return lam
	}
	lam = integerLagrange(subset, i, d)
	pk.cc.mu.Lock()
	if len(pk.cc.lag) >= cacheCap {
		clear(pk.cc.lag)
	}
	pk.cc.lag[string(key)] = lam
	pk.cc.mu.Unlock()
	return lam
}

// ShareVerifier amortizes share verification for one message: the
// per-message context (H(msg) and the proof base x^{4*delta}) is computed
// once, and verdicts are shared with every other verifier of the same
// shares through the key's dedup memo. Use it when verifying several
// shares of the same message — cut-certificate collection, the DONE and
// FINISH phases, coin assembly.
type ShareVerifier struct {
	pk     *PublicKey
	ctx    *msgCtx
	digest [32]byte
}

// Verifier returns a ShareVerifier for msg.
func (pk *PublicKey) Verifier(msg []byte) *ShareVerifier {
	return &ShareVerifier{pk: pk, ctx: pk.ctxFor(msg), digest: sha256.Sum256(msg)}
}

// Verify checks one share. Equivalent to PublicKey.VerifyShare — same
// verdicts on the same inputs, bit for bit.
func (v *ShareVerifier) Verify(sh *SigShare) error {
	if err := checkShareShape(v.pk, sh); err != nil {
		return err
	}
	return v.pk.verifyShareWith(v.ctx, v.digest, sh)
}

// VerifyShares checks a batch of shares of one message and returns one
// verdict per share, in order. The batch amortizes the message context
// across the shares and replays memoized verdicts; each share's proof is
// still checked individually and exactly, so a batch rejects precisely
// the shares per-share verification rejects.
//
// No randomized-linear-combination shortcut is possible here: the shares
// carry Fiat–Shamir Chaum–Pedersen proofs, whose verification must
// recompute each proof's commitments (t1, t2) exactly to recheck the
// challenge hash — an RLC over several proofs yields only a combined
// commitment, which verifies no individual hash. The honest amortization
// is the shared base work above.
func (pk *PublicKey) VerifyShares(msg []byte, shares []*SigShare) []error {
	v := pk.Verifier(msg)
	errs := make([]error, len(shares))
	for i, sh := range shares {
		errs[i] = v.Verify(sh)
	}
	return errs
}
