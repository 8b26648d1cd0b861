// Package exflow is the public API of this repository: a from-scratch Go
// implementation of ExFlow ("Exploiting Inter-Layer Expert Affinity for
// Accelerating Mixture-of-Experts Model Inference", IPDPS 2024) together
// with every substrate it needs — a simulated multi-GPU cluster with
// hierarchical topology, MPI-style collectives, a GPT MoE model with real
// forward math, routing-trace capture, affinity estimation, exact and
// heuristic placement solvers, and a distributed inference engine.
//
// The typical pipeline mirrors the paper:
//
//	sys := exflow.NewSystem(exflow.SystemOptions{
//		Model: moe.GPTM(32), GPUs: 16, AffinityStrength: 0.85, Seed: 1,
//	})
//	tr := sys.Profile(3000)                  // trace routing on sample tokens
//	pl := sys.SolvePlacement(tr)             // staged affinity placement
//	rep := sys.Run(engine.ExFlow, pl, exflow.Workload{})
//	fmt.Println(rep)
//
// See DESIGN.md for the system inventory, and its "Experiments" section for
// the experiment registry that reproduces every table and figure, each
// regenerable via `go test -bench <Figure>` or `cmd/exflow-bench`.
package exflow

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/expertmem"
	"repro/internal/moe"
	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/topo"
	"repro/internal/trace"
)

// SystemOptions configures NewSystem.
type SystemOptions struct {
	// Model is the GPT MoE variant (see moe.GPTM, moe.GPTXL, ...).
	Model moe.Config
	// GPUs is the expert-parallel group size; the topology is derived via
	// topo.ForGPUs (4-GPU NVLink nodes, IB between nodes).
	GPUs int
	// AffinityStrength in [0,1] sets how concentrated the synthetic routing
	// kernel's inter-layer transitions are; pre-trained GPT MoE models
	// measured in the paper correspond to roughly 0.75-0.9. Zero selects
	// the default 0.85.
	AffinityStrength float64
	// DomainTilt scales how domain-specialized the routing kernel is (see
	// synth.KernelParams.DomainTilt). Zero selects the paper-faithful mild
	// default of 1; the online-serving drift experiments use larger values
	// to model checkpoints whose routing is sensitive to the traffic mix.
	DomainTilt float64
	// Dataset is the token-domain profile used for profiling and workload
	// generation; nil means synth.Pile().
	Dataset *synth.DatasetProfile
	// TopK is the gating fan-out (0 means the model config's value).
	TopK int
	// SolveWorkers is the placement solver's parallel portfolio width: the
	// staged pipeline's annealing runs that many independently seeded
	// replicas per stage (and solves stage-2 node subproblems concurrently)
	// and keeps the best result by objective, ties broken in seed order.
	// Any fixed value is deterministic; 0 or 1 is the serial solve,
	// bit-identical to previous releases.
	SolveWorkers int
	// Seed makes the whole system deterministic.
	Seed uint64
}

// System bundles a model, its routing behaviour, and a topology — everything
// needed to profile, place and run.
type System struct {
	Model   *moe.Model
	Router  moe.Router
	Kernel  *synth.Kernel
	Topo    *topo.Topology
	Dataset *synth.DatasetProfile
	// SolveWorkers is the placement-solver portfolio width (see
	// SystemOptions.SolveWorkers); 0 or 1 solves serially.
	SolveWorkers int
	Seed         uint64
}

// NewSystem materializes a deterministic system.
func NewSystem(opts SystemOptions) *System {
	cfg := opts.Model
	if opts.TopK > 0 {
		cfg.TopK = opts.TopK
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	strength := opts.AffinityStrength
	if strength == 0 {
		strength = 0.85
	}
	ds := opts.Dataset
	if ds == nil {
		ds = synth.Pile()
	}
	kernel := synth.NewKernel(synth.KernelParams{
		Seed:       rng.Mix64(opts.Seed, 0x5F5),
		Layers:     cfg.Layers,
		Experts:    cfg.Experts,
		Strength:   strength,
		DomainTilt: opts.DomainTilt,
	})
	return &System{
		Model:        moe.NewModel(cfg, rng.Mix64(opts.Seed, 0x30D)),
		Router:       synth.NewKernelRouter(kernel, ds, cfg.TopK),
		Kernel:       kernel,
		Topo:         topo.ForGPUs(opts.GPUs),
		Dataset:      ds,
		SolveWorkers: opts.SolveWorkers,
		Seed:         opts.Seed,
	}
}

// Profile traces `tokens` sample tokens from the system's dataset through
// the router, recording the expert chosen at every layer — the offline
// profiling step of Section V-A. A kernel router walks each token's path in
// one call (trace.PathWalker): one domain draw per token and no
// allocation per layer.
func (s *System) Profile(tokens int) *trace.Trace {
	ids := trace.SequentialIDs(tokens, s.Dataset.TokenID)
	return trace.Collect(s.Router, s.Model.Cfg.Layers, ids)
}

// ProfileOn traces tokens drawn from an arbitrary dataset profile (used by
// the out-of-distribution consistency experiments).
func (s *System) ProfileOn(ds *synth.DatasetProfile, tokens, offset int) *trace.Trace {
	router := synth.NewKernelRouter(s.Kernel, ds, s.Model.Cfg.TopK)
	ids := make([]uint64, tokens)
	for i := range ids {
		ids[i] = ds.TokenID(uint64(offset + i))
	}
	return trace.Collect(router, s.Model.Cfg.Layers, ids)
}

// SolvePlacement runs the production two-stage (node, then GPU) affinity
// placement pipeline on a profiling trace.
func (s *System) SolvePlacement(tr *trace.Trace) *placement.Placement {
	return placement.StagedOpt(tr.AllTransitionCounts(), s.Model.Cfg.Layers, s.Model.Cfg.Experts, s.Topo, s.Seed,
		placement.StagedOptions{Workers: s.SolveWorkers})
}

// SolvePlacementMemoryAware runs the staged pipeline with the expected
// expert-stall cost folded into the solver objective for a tiered-memory
// deployment (placement.MemoryObjective): the profiling trace supplies both
// the crossing structure and the demand-mass oracle, so the solver stops
// concentrating the hot set past what each GPU's HBM slot budget can hold.
// The arguments mirror Workload/ServeOptions: oversub >= 1 (values below 1
// panic; exactly 1, or 0, leaves the term inactive and the result
// bit-identical to SolvePlacement), policy names an expertmem cache policy
// ("" = affinity), prefetchK 0 means the default 4, and hostSlots bounds
// the DRAM master-copy set (NVMe-resident experts cost more to miss, which
// the objective prices).
func (s *System) SolvePlacementMemoryAware(tr *trace.Trace, oversub float64, policy string, prefetchK, hostSlots int) *placement.Placement {
	cfg := s.Model.Cfg
	counts := tr.AllTransitionCounts()
	var mo *placement.MemoryObjective
	if oversub != 0 {
		if oversub < 1 {
			panic(fmt.Sprintf("exflow: oversubscription must be 0 (off) or >= 1, got %v", oversub))
		}
		pol, err := expertmem.ParsePolicy(policy)
		if err != nil {
			panic(err)
		}
		if prefetchK == 0 {
			prefetchK = expertmem.DefaultPrefetchK
		}
		mcfg := expertmem.ConfigFor(s.Topo, cfg.Layers, cfg.Experts, int(cfg.ExpertParams())*2, // fp16
			oversub, pol, prefetchK, hostSlots, counts)
		mo = placement.NewMemoryObjective(mcfg, 0)
	}
	return placement.StagedOpt(counts, cfg.Layers, cfg.Experts, s.Topo, s.Seed,
		placement.StagedOptions{Memory: mo, Workers: s.SolveWorkers})
}

// Baseline returns the Deepspeed-MoE contiguous placement.
func (s *System) Baseline() *placement.Placement {
	return placement.Contiguous(s.Model.Cfg.Layers, s.Model.Cfg.Experts, s.Topo.TotalGPUs())
}

// Workload describes an inference workload for Run.
type Workload struct {
	// RequestsPerGPU is the per-GPU batch (0 means 8).
	RequestsPerGPU int
	// PromptLen is the prefilled context length (0 means 16).
	PromptLen int
	// GenerateTokens is the decode iteration count (0 means 4).
	GenerateTokens int
	// EvalOffset shifts the token-id stream so evaluation tokens are
	// disjoint from the profiling tokens (0 means 1<<20).
	EvalOffset int
	// CapacityFactor, when positive, enables GShard-style expert capacity
	// with token dropping (see engine.Config.CapacityFactor).
	CapacityFactor float64
	// Hierarchical routes dispatch Alltoalls through node leaders.
	Hierarchical bool
	// Oversubscription, when >= 1, runs the engine under tiered
	// expert-weight memory (internal/expertmem): each GPU's HBM holds
	// assigned-experts/ratio weight slots and misses stall the rank for the
	// host-link fetch. The routing kernel's ground-truth transition rows
	// serve as the affinity oracle. Zero disables the memory layer.
	Oversubscription float64
	// CachePolicy is the residency policy under oversubscription: "lru",
	// "lfu", "pin", or "affinity" (default). Invalid names panic.
	CachePolicy string
	// PrefetchK is the prefetch fan-out (0 means expertmem.DefaultPrefetchK;
	// affinity policy only).
	PrefetchK int
}

func (w Workload) withDefaults() Workload {
	if w.RequestsPerGPU == 0 {
		w.RequestsPerGPU = 8
	}
	if w.PromptLen == 0 {
		w.PromptLen = 16
	}
	if w.GenerateTokens == 0 {
		w.GenerateTokens = 4
	}
	if w.EvalOffset == 0 {
		w.EvalOffset = 1 << 20
	}
	return w
}

// memoryConfigFor derives the engine path's tiered expert-memory config
// from a workload, or nil when the memory layer is off. The kernel's
// ground-truth transition rows stand in for a profiled affinity estimate —
// the engine path has no trace in hand. The stall-model conformance suite
// reuses it so its serve-layer replay sees the identical oracle.
func (s *System) memoryConfigFor(w Workload) *expertmem.Config {
	if w.Oversubscription == 0 {
		return nil
	}
	if w.Oversubscription < 1 {
		panic(fmt.Sprintf("exflow: Workload.Oversubscription must be 0 (off) or >= 1, got %v", w.Oversubscription))
	}
	pol, err := expertmem.ParsePolicy(w.CachePolicy)
	if err != nil {
		panic(err)
	}
	k := w.PrefetchK
	if k == 0 {
		k = expertmem.DefaultPrefetchK
	}
	cfg := s.Model.Cfg
	aff := make([][][]float64, cfg.Layers-1)
	for l := range aff {
		aff[l] = make([][]float64, cfg.Experts)
		for from := range aff[l] {
			aff[l][from] = s.Kernel.Transition(l, from)
		}
	}
	mc := expertmem.ConfigFor(s.Topo, cfg.Layers, cfg.Experts, int(cfg.ExpertParams())*2, // fp16
		w.Oversubscription, pol, k, 0, aff)
	return &mc
}

// Run executes distributed inference in the given mode under the given
// placement and returns the measurement report, generated tokens included.
func (s *System) Run(mode engine.Mode, pl *placement.Placement, w Workload) *engine.Report {
	return s.run(mode, pl, w, false)
}

// run is Run, optionally timing-only (engine.Config.TimingOnly): the same
// report without the forward math, and without outputs.
func (s *System) run(mode engine.Mode, pl *placement.Placement, w Workload, timingOnly bool) *engine.Report {
	w = w.withDefaults()
	ds := s.Dataset
	memCfg := s.memoryConfigFor(w)
	return engine.Run(engine.Config{
		Model:           s.Model,
		Router:          s.Router,
		Topo:            s.Topo,
		Placement:       pl,
		Mode:            mode,
		Cost:            moe.DefaultCostModel(),
		RequestsPerGPU:  w.RequestsPerGPU,
		PromptLen:       w.PromptLen,
		GenerateTokens:  w.GenerateTokens,
		CapacityFactor:  w.CapacityFactor,
		HierarchicalA2A: w.Hierarchical,
		TokenID: func(req, iter int) uint64 {
			return ds.TokenID(uint64(w.EvalOffset + req*4096 + iter))
		},
		Seed:       s.Seed,
		Memory:     memCfg,
		TimingOnly: timingOnly,
	})
}

// Speedup is a convenience running baseline and ExFlow back to back and
// returning (baseline report, exflow report, throughput ratio).
func (s *System) Speedup(profileTokens int, w Workload) (*engine.Report, *engine.Report, float64) {
	base := s.Run(engine.Vanilla, s.Baseline(), w)
	pl := s.SolvePlacement(s.Profile(profileTokens))
	exf := s.Run(engine.ExFlow, pl, w)
	if base.Throughput == 0 {
		return base, exf, 0
	}
	return base, exf, exf.Throughput / base.Throughput
}
