package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/crypto"
	"repro/internal/crypto/threshenc"
	"repro/internal/crypto/threshsig"
	"repro/internal/packet"
	"repro/internal/sim"
)

// Host cost per operation of the layers' public functions, timed one
// call at a time and reported as the median over the calls. Every timed
// crypto call gets a message or ciphertext it has never seen, so the
// suites' verdict caches (threshsig's per-share verdicts, threshenc's
// per-(ciphertext, share) verdicts) miss and the number is the
// exponentiation, not a map lookup.

const cryptoOps = 200

// timeOp records the host duration of one call.
func timeOp(samples *[]float64, fn func() error) error {
	start := time.Now()
	err := fn()
	*samples = append(*samples, float64(time.Since(start).Nanoseconds()))
	return err
}

// threshsigTimings times Sign, VerifyShare and Combine on the f+1
// threshold key. Party 2 signs each fresh message first (untimed), which
// warms the per-message context as the simulation's other parties do;
// party 1's Sign is then timed, party 2's never-verified share is
// verified, and the pair is combined.
func threshsigTimings(suites []*crypto.Suite, rng *rand.Rand, m *metrics) error {
	pk := suites[0].TSLow
	var sign, verify, combine []float64
	for i := 0; i < cryptoOps; i++ {
		msg := []byte(fmt.Sprintf("perfbench/threshsig/%d/%d", i, rng.Int63()))
		other, err := pk.Sign(suites[1].TSLowShare, msg, rng)
		if err != nil {
			return err
		}
		var mine *threshsig.SigShare
		if err := timeOp(&sign, func() (err error) {
			mine, err = pk.Sign(suites[0].TSLowShare, msg, rng)
			return err
		}); err != nil {
			return err
		}
		if err := timeOp(&verify, func() error { return pk.VerifyShare(msg, other) }); err != nil {
			return err
		}
		if err := timeOp(&combine, func() error {
			_, err := pk.Combine(msg, []*threshsig.SigShare{mine, other})
			return err
		}); err != nil {
			return err
		}
	}
	m.set("crypto.threshsig.sign_ns", median(sign), "ns")
	m.set("crypto.threshsig.verify_share_ns", median(verify), "ns")
	m.set("crypto.threshsig.combine_ns", median(combine), "ns")
	return nil
}

// threshencTimings times DecryptShare and VerifyShare, each on a fresh
// ciphertext.
func threshencTimings(suites []*crypto.Suite, rng *rand.Rand, m *metrics) error {
	pk := suites[0].TE
	plain := make([]byte, 64)
	var decrypt, verify []float64
	for i := 0; i < cryptoOps; i++ {
		rng.Read(plain)
		ct, err := pk.Encrypt(plain, rng)
		if err != nil {
			return err
		}
		if err := timeOp(&decrypt, func() error {
			_, err := pk.DecryptShare(suites[0].TEShare, ct, rng)
			return err
		}); err != nil {
			return err
		}
		var sh *threshenc.DecShare
		if sh, err = pk.DecryptShare(suites[1].TEShare, ct, rng); err != nil {
			return err
		}
		if err := timeOp(&verify, func() error { return pk.VerifyShare(ct, sh) }); err != nil {
			return err
		}
	}
	m.set("crypto.threshenc.decrypt_share_ns", median(decrypt), "ns")
	m.set("crypto.threshenc.verify_share_ns", median(verify), "ns")
	return nil
}

// batchTiming reports the median per-op cost over batches of ops calls,
// for operations too short to time one at a time.
func batchTiming(batches, ops int, fn func() error) (float64, error) {
	per := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		start := time.Now()
		for i := 0; i < ops; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(ops))
	}
	return median(per), nil
}

// packetTiming encodes and decodes a frame of frameBytes on-air bytes
// (the workload's mean): one section of four equal entries plus a
// signature.
func packetTiming(frameBytes int, m *metrics) error {
	const sigLen = 56
	f := &packet.Frame{Sender: 1, Session: 7, Epoch: 3, Sig: make([]byte, sigLen)}
	sec := packet.Section{Kind: packet.KindRBC, Phase: packet.PhaseEcho}
	for i := 0; i < 4; i++ {
		sec.Entries = append(sec.Entries, packet.Entry{Slot: uint8(i), Data: make([]byte, 1)})
	}
	f.Sections = []packet.Section{sec}
	per := max(1, (frameBytes-f.EncodedSize(sigLen))/4+1)
	for i := range f.Sections[0].Entries {
		f.Sections[0].Entries[i].Data = make([]byte, per)
	}
	ns, err := batchTiming(50, 400, func() error {
		raw, err := f.Encode()
		if err != nil {
			return err
		}
		_, _, err = packet.Decode(raw)
		return err
	})
	if err != nil {
		return err
	}
	m.set("packet.encode_decode_ns", ns, "ns")
	return nil
}

// simTiming times one PostAfter plus the Step that fires it, on a
// scheduler holding a standing backlog of far-future events.
func simTiming(m *metrics) error {
	s := sim.New(1)
	nop := func() {}
	for i := 0; i < 256; i++ {
		s.PostAfter(time.Duration(1000+i)*time.Hour, nop)
	}
	ns, err := batchTiming(50, 4000, func() error {
		s.PostAfter(time.Millisecond, nop)
		if !s.Step() {
			return fmt.Errorf("sim: nothing to step")
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("sim.post_step_ns", ns, "ns")
	return nil
}

// hostTimings runs every per-op timing. suites are the workload's dealt
// keys (LightConfig for every workload here).
func hostTimings(suites []*crypto.Suite, frameBytes int, seed int64, m *metrics) error {
	rng := rand.New(rand.NewSource(seed))
	if err := threshsigTimings(suites, rng, m); err != nil {
		return fmt.Errorf("threshsig timing: %w", err)
	}
	if err := threshencTimings(suites, rng, m); err != nil {
		return fmt.Errorf("threshenc timing: %w", err)
	}
	if err := packetTiming(frameBytes, m); err != nil {
		return fmt.Errorf("packet timing: %w", err)
	}
	return simTiming(m)
}
