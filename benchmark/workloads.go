package main

import (
	"fmt"

	"repro"
	"repro/internal/moe"
	"repro/internal/rng"
)

// fixture is the system every workload serves: GPT-M with 32 experts cut to
// Layers layers, on GPUs GPUs (4-GPU nodes) with two replicas, a
// domain-specialized checkpoint (tilt 8, affinity 0.85) and system seed 7 —
// the exflow-serve defaults. The system seed is fixed, so capacity and the
// calibrated cost model are the same for every workload seed and the
// absolute rates below stay valid.
type fixture struct {
	Layers, GPUs int
	// Rate and MemRate are the nominal arrival rates in req/s of the
	// memory-off workloads and of the 1.5x-oversubscribed ones, each below
	// its own capacity knee (about 81% and 74% at bench scale).
	Rate, MemRate float64
}

// benchFixture is the fixture BENCHMARK.json's numbers are measured on.
var benchFixture = fixture{Layers: 16, GPUs: 16, Rate: 3200, MemRate: 190}

const (
	replicas         = 2
	decodeTokens     = 32
	systemSeed       = 7
	domainTilt       = 8
	affinityStrength = 0.85
	// subRuns is how many independently seeded copies of its traffic program
	// a workload's main run serves. Pooling their requests steadies the tail
	// percentiles across workload seeds far more than one program twice as
	// long: a drift run's P99 sits inside the band of requests its migration
	// pause delayed, and two pauses place it more reliably than one.
	subRuns = 2
	// memRatio and memPolicy configure the memory workloads: HBM holds 2/3
	// of each GPU's experts, managed by the affinity policy.
	memRatio  = 1.5
	memPolicy = "affinity"
	// sloLow and sloHigh bound the max_rps_at_slo search as fractions of the
	// nominal rate; sloHalvings sets its resolution to 1/32 of the nominal
	// rate.
	sloLow, sloHigh = 0.5, 1.5
	sloHalvings     = 5
)

func newSystem(fx fixture) *exflow.System {
	cfg := moe.GPTM(32)
	cfg.Layers = fx.Layers
	return exflow.NewSystem(exflow.SystemOptions{
		Model: cfg, GPUs: fx.GPUs, AffinityStrength: affinityStrength, DomainTilt: domainTilt,
		SolveWorkers: 1, Seed: systemSeed,
	})
}

// phase is one era of a workload's traffic program.
type phase struct {
	name string
	// dur is the length in simulated seconds.
	dur float64
	// viral switches the era's token mix to exflow.ViralDataset.
	viral bool
}

// workload is one traffic mix. Arrivals are open-loop Poisson at an
// absolute rate, generated by the simulator from the workload seed, so a
// request's latency runs from its scheduled arrival and generator lag is
// zero by construction.
type workload struct {
	name   string
	phases []phase
	// memory serves under 1.5x-oversubscribed expert memory; adaptive turns
	// on live re-placement; memoryAware prices expert stall into re-solves.
	memory, adaptive, memoryAware bool
	// limit is the P99 latency limit in simulated seconds.
	limit float64
	// trial is the length of one max_rps_at_slo trial as a fraction of the
	// traffic program; a trial keeps the program's phase structure.
	trial float64
}

// workloads is the benchmark's traffic catalog. No workload covers the
// fleet tier, chaos, replica sets or Che residency.
var workloads = []workload{
	{
		// The paper's deployment: in-distribution traffic, static placement,
		// memory off. Routing dominates host time.
		name:   "steady",
		phases: []phase{{name: "steady", dur: 2.5}},
		limit:  0.05, trial: 0.8,
	},
	{
		// Traffic drifts to a viral mix; the controller re-solves and
		// migrates, and the migration pause sets P99. The limit leaves room
		// for one pause, so max_rps_at_slo finds where the fleet stops
		// absorbing it.
		name:     "drift",
		phases:   []phase{{name: "warm", dur: 2}, {name: "drift", dur: 4, viral: true}},
		adaptive: true,
		limit:    0.25, trial: 0.5,
	},
	{
		// 1.5x-oversubscribed expert memory on a static placement: expert
		// fetch, prefetch and eviction set every stall.
		name:   "oversub",
		phases: []phase{{name: "steady", dur: 30}},
		memory: true,
		limit:  0.6, trial: 0.5,
	},
	{
		// Drift under the same memory with memory-aware re-placement:
		// migrations relocate and invalidate resident experts, and the stall
		// predictor prices each move.
		name:     "oversub-drift",
		phases:   []phase{{name: "warm", dur: 10}, {name: "drift", dur: 20, viral: true}},
		memory:   true,
		adaptive: true, memoryAware: true,
		limit: 1.2, trial: 0.5,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// nominal is the workload's arrival rate in req/s on the fixture.
func (w workload) nominal(fx fixture) float64 {
	if w.memory {
		return fx.MemRate
	}
	return fx.Rate
}

// calibrationOptions are the options CalibrateServe sees: the same for
// every workload, so set-up does identical work everywhere.
func calibrationOptions() exflow.ServeOptions {
	// SolveSeconds 0, SolveWorkers 1 and AutoSolveSeconds off keep every
	// simulated number a pure function of the seed: an auto-timed solve would
	// tie simulated latency to host speed.
	return exflow.ServeOptions{Replicas: replicas, DecodeTokens: decodeTokens, SolveWorkers: 1}
}

// subSeed is sub-run k's serving seed. The workload seed reaches the system
// only through ServeOptions.Seed, which draws arrival times and token
// streams; hashing keeps it clear of 0, which would mean the system seed.
// The workload seed is hashed on its own before k joins it: rng.Mix64 folds
// its arguments in by xor and addition alone, so Mix64(s, c, k) maps seeds
// 2 and 3 to the same two sub-run seeds, swapped.
func subSeed(seed uint64, k int) uint64 { return rng.Mix64(rng.Mix64(seed, 0xBE7C), uint64(k)) }

// serveOptions builds the Serve options for the workload's traffic program
// at the given rate and serving seed, every phase scaled by scale.
func (w workload) serveOptions(cal *exflow.ServeCalibration, seed uint64, rate, scale float64) exflow.ServeOptions {
	o := calibrationOptions()
	o.Calibration = cal
	o.Adaptive = w.adaptive
	o.Seed = seed
	if w.memory {
		o.Oversubscription = memRatio
		o.CachePolicy = memPolicy
		o.MemoryAware = w.memoryAware
	}
	for _, p := range w.phases {
		sp := exflow.ServePhase{Name: p.name, Duration: p.dur * scale, Rate: rate}
		if p.viral {
			sp.Dataset = exflow.ViralDataset()
		}
		o.Phases = append(o.Phases, sp)
	}
	return o
}
