package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/crypto"
	"repro/internal/protocol"
	"repro/internal/run"
)

// outcome is one run.Run call: its report, host cost, and verdict.
type outcome struct {
	rep   *run.Report
	wall  time.Duration
	ref   time.Duration // mean host time of the reference kernel around the call
	alloc uint64        // bytes allocated during the call
	fp    [32]byte
	err   error // run error, failed output check, or determinism mismatch
}

// runOnce times one run.Run and checks its outputs.
func runOnce(spec run.Spec) outcome {
	// Start every run from a collected heap, so the previous run's garbage
	// does not decide when this one's collections fall.
	runtime.GC()
	ref := referenceKernel()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	rep, err := run.Run(spec)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	ref = (ref + referenceKernel()) / 2
	o := outcome{rep: rep, wall: wall, ref: ref, alloc: after.TotalAlloc - before.TotalAlloc, err: err}
	if err == nil {
		o.err = check(spec, rep)
	}
	if o.err == nil {
		o.fp = fingerprint(rep)
	}
	return o
}

// referenceSink keeps the reference kernel's results live.
var referenceSink int

// refNominal is the reference kernel's time on the reference host. Host
// timings are reported in seconds of that host: a timing is multiplied
// by refNominal / (the kernel's time measured next to it). On a shared
// machine the host's own speed drifts by tens of percent over minutes;
// the kernel drifts with it, and the scaling divides the drift out.
const refNominal = 10 * time.Millisecond

// referenceKernel times a fixed standard-library workload — map updates,
// a sort, and 512-bit modular exponentiations, about 10 ms — that no
// change to this repository can speed up.
func referenceKernel() time.Duration {
	start := time.Now()
	counts := map[int]int{}
	xs := make([]int, 0, 20000)
	x := 12345
	for i := 0; i < 20000; i++ {
		x = x*1103515245 + 12345
		xs = append(xs, x&0xffffff)
		counts[x&0xffff] += i
	}
	sort.Ints(xs)
	mod := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 511), big.NewInt(187))
	e := new(big.Int).Sub(mod, big.NewInt(3))
	b := big.NewInt(7)
	for i := 0; i < 40; i++ {
		b.Exp(b, e, mod)
	}
	referenceSink += len(counts) + xs[0] + int(b.Bits()[0]&1)
	return time.Since(start)
}

// check is the output check every run must pass: the run finished, every
// committed transaction is a genuine client submission, every honest log
// reached the target, and no component discarded invalid input.
func check(spec run.Spec, rep *run.Report) error {
	cr := rep.Chain
	if cr == nil {
		return errors.New("check: report has no chain section")
	}
	target := spec.Workload.Epochs
	if cr.EpochsCommitted != target {
		return fmt.Errorf("check: committed %d epochs, want %d", cr.EpochsCommitted, target)
	}
	logs := 0
	for i, log := range cr.Logs {
		if log == nil {
			continue
		}
		logs++
		if len(log) < target {
			return fmt.Errorf("check: node %d log has %d entries, want >= %d", i, len(log), target)
		}
	}
	if logs == 0 {
		return errors.New("check: no honest logs")
	}
	if cr.CommittedTxs == 0 {
		return errors.New("check: nothing committed")
	}
	if n := protocol.CountForged(cr.Logs, spec.Workload.TxSize, cr.SubmittedTxs); n != 0 {
		return fmt.Errorf("check: %d forged transactions committed", n)
	}
	if strictRejected(spec) && rep.Rejected != 0 {
		return fmt.Errorf("check: components rejected %d inbound messages in a fault-free run", rep.Rejected)
	}
	return nil
}

// strictRejected reports whether Report.Rejected must be zero for spec.
// Two documented behaviours make it nonzero without any fault in the
// outputs: under an admission cap, every node's admission refusals are
// counted into the same counter (protocol.Chain.Submit); and after a
// scripted crash and recovery, engines running without the proposal WAL
// (all but Alea, see protocol.ChainConfig.ProposalWAL) re-propose a
// fresh batch, so peers' shares on the old value are discarded.
func strictRejected(spec run.Spec) bool {
	return spec.Workload.Mempool.MaxPendingBytes == 0 && len(spec.Scenario.Events) == 0
}

// fingerprint digests everything virtual a report carries — its JSON
// encoding, every honest log, the raw latency sample, and the global
// logs — so repeated runs can be compared bit for bit.
func fingerprint(rep *run.Report) [32]byte {
	h := sha256.New()
	// Report holds only plain data; encoding it cannot fail.
	js, _ := json.Marshal(rep)
	h.Write(js)
	var b [8]byte
	u64 := func(v uint64) {
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	writeLogs := func(logs [][]protocol.LogEntry) {
		for i, log := range logs {
			u64(uint64(i))
			u64(uint64(len(log)))
			for _, e := range log {
				u64(uint64(e.Epoch))
				for _, tx := range e.Txs {
					u64(uint64(len(tx)))
					h.Write(tx)
				}
			}
		}
	}
	writeLogs(rep.Chain.Logs)
	for _, d := range rep.Chain.TxLatencySample {
		u64(uint64(d))
	}
	if rep.Tiers != nil {
		writeLogs(rep.Tiers.GlobalLogs)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// setupReps is how many times dealKeys deals each key set.
const setupReps = 10

// keySet is one dealer invocation a run makes.
type keySet struct {
	n    int
	seed int64
}

// keySets lists the deals run.Run makes for spec, with the seeds the run
// drivers derive: the single group, or each cluster and then the global
// tier. The first set is always a group of spec.N nodes.
func keySets(spec run.Spec) []keySet {
	if spec.Topology.Kind != run.TopoClustered {
		return []keySet{{spec.N, spec.Seed ^ 0x5eed}}
	}
	m, per := spec.Topology.Clusters, spec.Topology.PerCluster
	var sets []keySet
	for c := 0; c < m; c++ {
		sets = append(sets, keySet{per, spec.Seed + int64(c)*101})
	}
	return append(sets, keySet{m, spec.Seed ^ 0x61})
}

// dealKeys deals every key set of spec and returns the host time of each
// round of deals and the reference kernel's time around them. The first
// round goes through crypto.DealCached, which leaves the cache warm so
// timed runs exclude key generation; the rest repeat the same cold deals
// through crypto.Deal, for a steadier median.
func dealKeys(spec run.Spec) (deals []float64, ref time.Duration, err error) {
	sets := keySets(spec)
	ref = referenceKernel()
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		for _, k := range sets {
			if rep == 0 {
				_, err = crypto.DealCached(k.n, (k.n-1)/3, spec.Crypto, k.seed)
			} else {
				_, err = crypto.Deal(k.n, (k.n-1)/3, spec.Crypto, rand.New(rand.NewSource(k.seed)))
			}
			if err != nil {
				return nil, 0, err
			}
		}
		deals = append(deals, time.Since(start).Seconds())
	}
	ref = (ref + referenceKernel()) / 2
	return deals, ref, nil
}

// pool sums the virtual measurements of an invocation's sub-runs.
type pool struct {
	runs                                   int
	virtual                                time.Duration
	epochs, committedTxs                   int
	committedBytes                         uint64
	commitLatency                          time.Duration // sum of per-run means
	accesses, collisions, frames, airBytes uint64
	logical, signOps, verifyOps, rejected  uint64
	offered, refused, dedup                int
	peakPool, maxOpen                      int
	samples                                []time.Duration

	localAcc, globalAcc, globalLogical uint64
	orderedCuts, cutcertOps            int
	cutcertBusy                        time.Duration
}

func (p *pool) add(rep *run.Report) {
	cr := rep.Chain
	p.runs++
	p.virtual += rep.Duration
	p.epochs += cr.EpochsCommitted
	p.committedTxs += cr.CommittedTxs
	p.committedBytes += cr.CommittedBytes
	p.commitLatency += cr.MeanCommitLatency
	p.accesses += rep.Accesses
	p.collisions += rep.Collisions
	p.frames += rep.Frames
	p.airBytes += rep.BytesOnAir
	p.logical += rep.LogicalSent
	p.signOps += rep.SignOps
	p.verifyOps += rep.VerifyOps
	p.rejected += rep.Rejected
	p.offered += cr.SubmittedTxs
	p.refused += cr.AdmissionRejected
	p.dedup += cr.DedupDropped
	p.peakPool = max(p.peakPool, cr.PeakMempoolBytes)
	p.maxOpen = max(p.maxOpen, cr.MaxOpenEpochs)
	p.samples = append(p.samples, cr.TxLatencySample...)
	if t := rep.Tiers; t != nil {
		p.localAcc += t.LocalAccesses
		p.globalAcc += t.GlobalAccesses
		p.globalLogical += t.GlobalLogicalSent
		p.orderedCuts += t.OrderedCuts
		if cc := t.CutCerts; cc != nil {
			p.cutcertOps += cc.Signs + cc.ShareVerifies + cc.Combines + cc.Verifies
			p.cutcertBusy += cc.Busy
		}
	}
}

// metrics is an ordered name -> (value, unit) list.
type metrics struct {
	names []string
	vals  map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m *metrics) set(name string, v float64, unit string) {
	if m.vals == nil {
		m.vals = map[string]metric{}
	}
	if _, ok := m.vals[name]; !ok {
		m.names = append(m.names, name)
	}
	m.vals[name] = metric{Value: v, Unit: unit}
}

// virtualEndToEnd fills the end-to-end metrics that come from run.Report.
func (p *pool) virtualEndToEnd(m *metrics) {
	m.set("commit_Bps", float64(p.committedBytes)/p.virtual.Seconds(), "B/s")
	m.set("epoch_commit_s", (p.commitLatency / time.Duration(p.runs)).Seconds(), "s")
	m.set("accesses_per_tx", ratio(p.accesses, p.committedTxs), "count")
	m.set("tx_admitted_frac", float64(p.offered-p.refused)/float64(p.offered), "frac")
}

// layerCounters fills the per-layer metrics derived from run.Report.
// Whole-run counts are means per sub-run.
func (p *pool) layerCounters(m *metrics) {
	perRun := func(v float64) float64 { return v / float64(p.runs) }
	m.set("wireless.accesses", perRun(float64(p.accesses)), "count")
	m.set("wireless.collisions", perRun(float64(p.collisions)), "count")
	m.set("wireless.collision_frac", ratio(p.collisions, int(p.accesses)), "frac")
	m.set("wireless.frames", perRun(float64(p.frames)), "count")
	m.set("wireless.air_bytes_per_tx", ratio(p.airBytes, p.committedTxs), "B")
	m.set("core.logical_per_tx", ratio(p.logical, p.committedTxs), "count")
	m.set("core.frames_per_logical", ratio(p.frames, int(p.logical)), "count")
	m.set("crypto.sign_ops_per_tx", ratio(p.signOps, p.committedTxs), "count")
	m.set("crypto.verify_ops_per_tx", ratio(p.verifyOps, p.committedTxs), "count")
	m.set("protocol.txs_per_epoch", float64(p.committedTxs)/float64(p.epochs), "count")
	m.set("protocol.peak_pool_bytes", float64(p.peakPool), "B")
	m.set("protocol.max_open_epochs", float64(p.maxOpen), "count")
	m.set("protocol.dedup_dropped", perRun(float64(p.dedup)), "count")
	m.set("component.rejected", perRun(float64(p.rejected)), "count")
	m.set("traffic.offered_txs", perRun(float64(p.offered)), "count")
	p50, p90 := txLatency(p.samples)
	m.set("traffic.tx_samples", float64(len(p.samples)), "count")
	m.set("traffic.tx_p50_s", p50.Seconds(), "s")
	m.set("traffic.tx_p90_s", p90.Seconds(), "s")
	m.set("run.local_accesses", perRun(float64(p.localAcc)), "count")
	m.set("run.global_accesses", perRun(float64(p.globalAcc)), "count")
	m.set("run.global_logical_sent", perRun(float64(p.globalLogical)), "count")
	m.set("run.ordered_cuts", perRun(float64(p.orderedCuts)), "count")
	m.set("run.cutcert_ops", perRun(float64(p.cutcertOps)), "count")
	m.set("run.cutcert_busy_s", perRun(p.cutcertBusy.Seconds()), "s")
}

// txLatency returns the pooled submit->commit p50 and p90. p90 is
// reported only when at least ten samples lie beyond it; otherwise zero.
func txLatency(samples []time.Duration) (p50, p90 time.Duration) {
	if len(samples) == 0 {
		return 0, 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	p50 = run.Percentile(sorted, 0.50)
	if len(sorted) >= 100 {
		p90 = run.Percentile(sorted, 0.90)
	}
	return p50, p90
}

func ratio(num uint64, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
