package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/protocol"
	"repro/internal/run"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// workload is one named benchmark input: a run.Spec template and the
// nominal host cost of one run of it. One invocation runs the template
// at several seeds derived from --seed and pools the results, which
// narrows the seed-to-seed spread of the virtual metrics (a light-load
// workload's throughput is its Poisson arrival count).
type workload struct {
	name string
	// runSeconds is the nominal host time of one run. It is a constant,
	// not a measurement, so the number of sub-runs — and with it every
	// virtual metric — depends only on --seed and --seconds.
	runSeconds float64
	spec       func(seed int64) run.Spec
}

// deadline bounds every chain run in virtual time. The chain default
// (8 h) is shorter than these runs; a wedged run still fails, just later.
const deadline = 1000 * time.Hour

func chainSpec(p protocol.Kind, epochs int, seed int64) run.Spec {
	s := run.Defaults(p, protocol.CoinSig)
	s.Workload = run.Chain(epochs)
	s.Seed = seed
	s.Deadline = deadline
	return s
}

func poisson(rate float64) traffic.Pattern {
	return traffic.Pattern{Kind: traffic.Poisson, Rate: rate}
}

// workloads lists the benchmark's inputs. Every one keeps the engine's
// default GCLag: the BENCH sweeps' GCLag = epochs keeps decided epochs
// rebroadcasting, so per-epoch cost would grow with run length.
var workloads = []workload{
	{
		// HoneyBadger at about half its ~0.026 tx/s capacity: no backlog
		// grows, so latency is that of a system that keeps up.
		name: "hb-light", runSeconds: 1.6,
		spec: func(seed int64) run.Spec {
			s := chainSpec(protocol.HoneyBadger, 100, seed)
			s.Workload.Arrival = poisson(0.013)
			return s
		},
	},
	{
		// Alea at about 4x capacity with a 2 KiB admission cap: full
		// cuts, refusals at admission, the throughput ceiling.
		name: "alea-overload", runSeconds: 1.4,
		spec: func(seed int64) run.Spec {
			s := chainSpec(protocol.AleaKind, 50, seed)
			s.Workload.Arrival = poisson(0.08)
			s.Workload.Mempool.MaxPendingBytes = 2048
			return s
		},
	},
	{
		// Dumbo on the per-instance baseline transport at about a third
		// of its ~0.009 tx/s capacity; node 2 is down from 30 to 60 min
		// while transactions keep arriving, so NACK repair and catch-up run.
		name: "dumbo-unbatched-crash", runSeconds: 1.7,
		spec: func(seed int64) run.Spec {
			s := chainSpec(protocol.DumboKind, 35, seed)
			s.Batched = false
			s.Workload.Arrival = poisson(0.003)
			s.Scenario = scenario.MustParse("crash@30m:2;recover@60m:2")
			return s
		},
	},
	{
		// HoneyBadger on four clusters of four with fixed-interval
		// submissions below capacity: the clustered driver, its cut
		// certificates and the global tier.
		name: "hb-clustered", runSeconds: 1.6,
		spec: func(seed int64) run.Spec {
			s := chainSpec(protocol.HoneyBadger, 13, seed)
			s.Topology = run.Clustered(4, 4)
			s.Workload.TxInterval = 60 * time.Second
			return s
		},
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// specs returns the invocation's sub-runs: enough to fill about
// seconds of host time, at least three, each at a seed derived from seed.
func (w workload) specs(seed int64, seconds int) []run.Spec {
	n := max(3, int(math.Round(float64(seconds)/w.runSeconds)))
	rng := rand.New(rand.NewSource(seed))
	out := make([]run.Spec, n)
	for i := range out {
		out[i] = w.spec(1 + rng.Int63n(1<<40))
	}
	return out
}
