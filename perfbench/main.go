// Command perfbench is the repository's end-to-end benchmark. It drives
// run.Run on one named workload, checks every run's outputs, and prints
// the metrics as one JSON object on its last line of output.
//
// Usage (from the repository root, see run.sh):
//
//	perfbench --workload hb-light --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics: virtual throughput, epoch
// commit latency, channel accesses and admission from run.Report, and
// host wall-clock, allocation and key set-up time. --trace 1 reports the
// per-layer metrics instead: layer counters from run.Report, host cost
// per operation of the crypto, packet and sim layers, and each layer's
// share of host CPU from a profiled pass over the same runs.
//
// Every timed run is the first run of its seed in its process. The
// threshold suites memoize per-message and per-share results on the
// dealt keys, so a second run of a seed in the same process is faster
// than a first; repeats therefore serve only the determinism check, and
// the profiled pass runs in a child process with keys of its own.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"

	"repro/internal/crypto"
	"repro/internal/run"
)

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// profiled is what the child process of a traced invocation returns.
type profiled struct {
	Walls   []float64  `json:"walls"`
	Refs    []float64  `json:"refs"`
	Prints  [][32]byte `json:"prints"`
	Errors  []string   `json:"errors"`
	Profile []byte     `json:"profile"`
}

func main() {
	// The runs churn short-lived objects over a small live heap; pin the
	// GC target (as wbft-bench does) so an inherited environment cannot
	// move wall_s or alloc_MB. The simulation is single-threaded; one
	// processor also keeps the collector off a second CPU, which on a
	// shared 2-CPU host measured both faster and steadier than two.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}
	runtime.GOMAXPROCS(1)
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed every input of the invocation is derived from")
	seconds := flag.Int("seconds", 20, "host seconds the measured runs should take")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a separate traced pass")
	child := flag.Bool("profile-pass", false, "internal: run the profiled pass and print it as JSON")
	flag.Parse()

	w, err := lookupWorkload(*name)
	if err != nil {
		fail(err)
	}
	specs := w.specs(*seed, *seconds)
	if *child {
		out, err := json.Marshal(profilePass(specs))
		if err != nil {
			fail(err)
		}
		os.Stdout.Write(out)
		return
	}
	var m metrics
	res, err := bench(w.name, specs, *trace == 1, &m)
	if err != nil {
		fail(err)
	}
	res.Correct = res.Failed == 0
	res.Metrics = m.vals
	for _, n := range m.names {
		fmt.Printf("%-36s %16.6g %s\n", n, m.vals[n].Value, m.vals[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// bench runs one invocation. Run failures are counted into the result;
// an error means the benchmark itself could not run.
func bench(name string, specs []run.Spec, trace bool, m *metrics) (*result, error) {
	var setups, setupsRaw []float64
	for _, s := range specs {
		deals, ref, err := dealKeys(s)
		if err != nil {
			return nil, fmt.Errorf("dealing keys: %w", err)
		}
		for _, d := range deals {
			setupsRaw = append(setupsRaw, d)
			setups = append(setups, d*refNominal.Seconds()/ref.Seconds())
		}
	}

	res := &result{}
	failed := func(label string, err error) {
		res.Failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %s: %v\n", name, label, err)
	}
	// Every sub-run once, each the first run of its seed: the timed runs.
	p := &pool{}
	var walls, refs, allocs []float64
	prints := make([][32]byte, len(specs))
	for i, s := range specs {
		o := runOnce(s)
		res.Attempted++
		if o.err != nil {
			failed(strconv.FormatInt(s.Seed, 10), o.err)
			continue
		}
		fmt.Fprintf(os.Stderr, "run seed=%d wall=%.3fs ref=%.2fms alloc=%.1fMB virtual=%.0fs committed=%d\n",
			s.Seed, o.wall.Seconds(), 1e3*o.ref.Seconds(), float64(o.alloc)/1e6, o.rep.Duration.Seconds(), o.rep.Chain.CommittedTxs)
		p.add(o.rep)
		prints[i] = o.fp
		walls = append(walls, o.wall.Seconds())
		refs = append(refs, o.ref.Seconds())
		allocs = append(allocs, float64(o.alloc)/1e6)
	}
	if p.runs == 0 {
		return res, nil
	}

	if !trace {
		// Determinism: a repeat of the first seed must match bit for bit.
		o := runOnce(specs[0])
		res.Attempted++
		if o.err == nil && o.fp != prints[0] {
			o.err = errors.New("repeated run's virtual results differ from the first run")
		}
		if o.err != nil {
			failed(strconv.FormatInt(specs[0].Seed, 10)+" (repeat)", o.err)
		}
		p.virtualEndToEnd(m)
		m.set("wall_s", scaled(walls, refs), "s")
		m.set("setup_s", median(setups), "s")
		m.set("alloc_MB", median(allocs), "MB")
		fmt.Printf("host, unscaled: wall %.4f s, setup %.6f s, reference kernel %.3f ms\n",
			median(walls), median(setupsRaw), 1e3*median(refs))
		if p50, p90 := txLatency(p.samples); len(p.samples) > 0 {
			fmt.Printf("tx latency (per-layer traffic.tx_p50_s/tx_p90_s): p50 %.1f s, p90 %.1f s over %d samples\n",
				p50.Seconds(), p90.Seconds(), len(p.samples))
		}
		return res, nil
	}

	// Traced pass: the same seeds, first runs again, in a child process
	// under the CPU profiler. None of it feeds an end-to-end metric.
	pp, err := runProfilePass(specs)
	if err != nil {
		return nil, err
	}
	var tracedWalls, tracedRefs []float64
	for i := range specs {
		res.Attempted++
		switch {
		case pp.Errors[i] != "":
			failed(strconv.FormatInt(specs[i].Seed, 10)+" (traced)", errors.New(pp.Errors[i]))
		case pp.Prints[i] != prints[i]:
			failed(strconv.FormatInt(specs[i].Seed, 10)+" (traced)",
				errors.New("traced run's virtual results differ from the untraced run"))
		default:
			tracedWalls = append(tracedWalls, pp.Walls[i])
			tracedRefs = append(tracedRefs, pp.Refs[i])
		}
	}
	shares, err := cpuShares(pp.Profile)
	if err != nil {
		return nil, err
	}
	p.layerCounters(m)
	suites, err := suitesFor(specs[0])
	if err != nil {
		return nil, err
	}
	if err := hostTimings(suites, int(ratio(p.airBytes, int(p.frames))), specs[0].Seed, m); err != nil {
		return nil, err
	}
	for _, l := range cpuLayers {
		m.set("cpu."+l, shares[l], "frac")
	}
	m.set("host.wall_unscaled_s", median(walls), "s")
	m.set("host.setup_unscaled_s", median(setupsRaw), "s")
	m.set("host.reference_ms", 1e3*median(refs), "ms")
	// Both passes are scaled by the reference kernel, so host speed drift
	// between them cancels.
	m.set("trace.overhead_frac", scaled(tracedWalls, tracedRefs)/scaled(walls, refs)-1, "frac")
	return res, nil
}

// runProfilePass re-executes this binary with --profile-pass and waits
// for it.
func runProfilePass(specs []run.Spec) (*profiled, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("profiled pass: %w", err)
	}
	cmd := exec.Command(exe, append(os.Args[1:], "--profile-pass")...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("profiled pass: %w", err)
	}
	var pp profiled
	if err := json.Unmarshal(out, &pp); err != nil {
		return nil, fmt.Errorf("profiled pass output: %w", err)
	}
	if len(pp.Walls) != len(specs) || len(pp.Refs) != len(specs) || len(pp.Prints) != len(specs) || len(pp.Errors) != len(specs) {
		return nil, errors.New("profiled pass: wrong number of runs")
	}
	return &pp, nil
}

// profilePass is the child side: deal, then run every spec once under
// the CPU profiler.
func profilePass(specs []run.Spec) *profiled {
	pp := &profiled{
		Walls:  make([]float64, len(specs)),
		Refs:   make([]float64, len(specs)),
		Prints: make([][32]byte, len(specs)),
		Errors: make([]string, len(specs)),
	}
	for _, s := range specs {
		if _, _, err := dealKeys(s); err != nil {
			fail(err)
		}
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		fail(err)
	}
	for i, s := range specs {
		o := runOnce(s)
		pp.Walls[i], pp.Refs[i], pp.Prints[i] = o.wall.Seconds(), o.ref.Seconds(), o.fp
		if o.err != nil {
			pp.Errors[i] = o.err.Error()
		}
	}
	pprof.StopCPUProfile()
	pp.Profile = buf.Bytes()
	return pp
}

// suitesFor returns the (cached) suites of the spec's first consensus
// group: the whole network, or cluster 0.
func suitesFor(spec run.Spec) ([]*crypto.Suite, error) {
	k := keySets(spec)[0]
	return crypto.DealCached(k.n, (k.n-1)/3, spec.Crypto, k.seed)
}

// scaled converts host timings to seconds of the reference host: the
// median timing times refNominal over the median reference kernel time
// measured next to them.
func scaled(times, refs []float64) float64 {
	return median(times) * refNominal.Seconds() / median(refs)
}
