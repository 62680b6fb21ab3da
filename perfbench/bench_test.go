package main

import (
	"bytes"
	"compress/gzip"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/run"
	"repro/internal/sim"
)

// smallRun is a short honest chain run for exercising the output check.
func smallRun(t *testing.T) (run.Spec, *run.Report) {
	t.Helper()
	spec := chainSpec(protocol.HoneyBadger, 3, 7)
	spec.Workload.Arrival = poisson(0.05)
	rep, err := run.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := check(spec, rep); err != nil {
		t.Fatalf("honest run fails the output check: %v", err)
	}
	return spec, rep
}

// firstLog returns the index of the first honest log.
func firstLog(t *testing.T, rep *run.Report) int {
	for i, log := range rep.Chain.Logs {
		if log != nil {
			return i
		}
	}
	t.Fatal("no honest log")
	return -1
}

// TestCheckRejectsForgedEntry is the output check's negative control: a
// log entry carrying a transaction no client submitted must fail it.
func TestCheckRejectsForgedEntry(t *testing.T) {
	spec, rep := smallRun(t)
	cr := rep.Chain
	forged := []([]byte){
		protocol.MakeClientTx(cr.SubmittedTxs+3, spec.Workload.TxSize), // never submitted
		bytes.Repeat([]byte{0xAB}, spec.Workload.TxSize),               // not a client payload
	}
	i := firstLog(t, rep)
	honest := cr.Logs[i]
	for _, tx := range forged {
		cr.Logs[i] = append(append([]protocol.LogEntry(nil), honest...),
			protocol.LogEntry{Epoch: len(honest), Txs: [][]byte{tx}})
		err := check(spec, rep)
		if err == nil || !strings.Contains(err.Error(), "forged") {
			t.Errorf("forged entry passed the output check: err = %v", err)
		}
	}
}

func TestCheckRejectsShortLogAndRejections(t *testing.T) {
	spec, rep := smallRun(t)
	i := firstLog(t, rep)
	full := rep.Chain.Logs[i]
	rep.Chain.Logs[i] = full[:spec.Workload.Epochs-1]
	if err := check(spec, rep); err == nil {
		t.Error("a log short of the target passed the output check")
	}
	rep.Chain.Logs[i] = full
	rep.Rejected = 1
	if err := check(spec, rep); err == nil {
		t.Error("a component rejection in a fault-free run passed the output check")
	}
}

func TestFingerprintSeesOneByte(t *testing.T) {
	_, rep := smallRun(t)
	before := fingerprint(rep)
	if fingerprint(rep) != before {
		t.Fatal("fingerprint is not a function of the report")
	}
	log := rep.Chain.Logs[firstLog(t, rep)]
	for _, e := range log {
		if len(e.Txs) > 0 {
			e.Txs[0][len(e.Txs[0])-1] ^= 1
			break
		}
	}
	if fingerprint(rep) == before {
		t.Error("fingerprint missed a changed committed byte")
	}
}

func TestSpecsFollowSeed(t *testing.T) {
	w, err := lookupWorkload("hb-light")
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := w.specs(1, 20), w.specs(1, 20), w.specs(2, 20)
	if len(a) < 3 {
		t.Fatalf("got %d sub-runs, want at least 3", len(a))
	}
	for i := range a {
		if a[i].Seed != b[i].Seed {
			t.Fatal("same --seed gave different sub-run seeds")
		}
	}
	if a[0].Seed == c[0].Seed {
		t.Error("different --seed gave the same sub-run seed")
	}
	if _, err := lookupWorkload("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"repro/internal/sim.(*Scheduler).Step":          "repro/internal/sim",
		"repro/internal/run.runChain.func3":             "repro/internal/run",
		"repro/internal/crypto/mont.(*Modulus).mul4":    "repro/internal/crypto/mont",
		"math/big.nat.montgomery":                       "math/big",
		"runtime.gcBgMarkWorker":                        "runtime",
		"repro/internal/crypto.DealCached.func1":        "repro/internal/crypto",
		"repro/internal/crypto/threshsig.(*accel).exp":  "repro/internal/crypto/threshsig",
		"repro/internal/component.(*CBC).handleShare":   "repro/internal/component",
		"repro/internal/crypto/group.(*Group).Exp":      "repro/internal/crypto/group",
		"repro/internal/crypto/pksig.(*PrivateKey).Sig": "repro/internal/crypto/pksig",
	} {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
	for pkg, want := range map[string]string{
		"sim": "sim", "crypto/mont": "crypto.mont", "crypto/pksig": "crypto.other",
		"crypto": "crypto.other", "traffic": "other",
	} {
		if got := layerOf(pkg); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", pkg, got, want)
		}
	}
}

// TestCPUSharesOfSchedulerChurn profiles a loop that spends its time in
// internal/sim and checks the attribution finds it there.
func TestCPUSharesOfSchedulerChurn(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	nop := func() {}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			s.PostAfter(time.Duration(i%7)*time.Millisecond, nop)
		}
		for s.Step() {
		}
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, v := range shares {
		total += v
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("shares sum to %v, want 1", total)
	}
	// Under the race detector much of the time is in its runtime, which
	// has no repo frame, so only require sim to lead the repo layers.
	for l, v := range shares {
		if l != "sim" && l != "gc" && v >= shares["sim"] {
			t.Errorf("%s share %v >= sim share %v", l, v, shares["sim"])
		}
	}
	if shares["sim"] < 0.2 {
		t.Errorf("sim share = %v, want at least 0.2", shares["sim"])
	}
}

func TestCPUSharesRejectsGarbage(t *testing.T) {
	if _, err := cpuShares([]byte("not a profile")); err == nil {
		t.Error("garbage accepted as a profile")
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte{0x12, 0xff}) // a length-delimited field running past the end
	zw.Close()
	if _, err := cpuShares(buf.Bytes()); err == nil {
		t.Error("truncated protobuf accepted")
	}
}
