package exflow

import (
	"fmt"
	"math"

	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/expertmem"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ServePhase describes one era of offered traffic for Serve.
type ServePhase struct {
	// Name labels the phase in the report (default "phaseN").
	Name string
	// Duration is the phase length in simulated seconds.
	Duration float64
	// Rate is the mean request arrival rate in requests/second; zero means
	// ServeOptions.LoadFrac times the calibrated fleet capacity.
	Rate float64
	// Arrival selects the process: "poisson" (default), "bursty", "diurnal".
	Arrival string
	// Dataset is the token domain profile requests draw from; nil means the
	// system's profiling dataset (no drift).
	Dataset *synth.DatasetProfile
}

// ServeOptions configures Serve.
type ServeOptions struct {
	// Replicas is the number of expert-parallel replicas (default 2).
	Replicas int
	// MaxBatch is each replica's continuous-batching slot limit (default
	// 4 * GPUs).
	MaxBatch int
	// DecodeTokens is the per-request decode length (default 32).
	DecodeTokens int
	// ProfileTokens sizes the offline profiling trace that seeds both the
	// initial placement and the drift baseline (default 3000).
	ProfileTokens int
	// LoadFrac sets phase rates left at zero, as a fraction of the fleet's
	// calibrated token capacity (default 0.9 — near the knee, where placement
	// quality matters most).
	LoadFrac float64
	// CalibIters is the decode-iteration count of each calibration engine
	// run (default 3).
	CalibIters int
	// Phases is the traffic program; empty means one 30-second in-distribution
	// Poisson phase.
	Phases []ServePhase

	// Adaptive enables online re-placement; false serves the static
	// offline placement forever (the paper's deployment model).
	Adaptive bool
	// Window, CheckInterval, Patience, Cooldown, MinGain tune the drift
	// detector and controller; zero values take the serve package defaults.
	// DriftThreshold zero is auto-calibrated to 3x the in-distribution
	// sampling-noise floor measured on a held-out profiling slice.
	Window         int
	CheckInterval  float64
	DriftThreshold float64
	Patience       int
	Cooldown       float64
	MinGain        float64
	// SolveSeconds is the simulated latency of one background re-solve: the
	// controller solves on a snapshot of the live window while the fleet
	// keeps serving, charging the time to the simulated clock as overlap
	// rather than pause. A solve that lands after routing has drifted past
	// the detector threshold again is discarded (staleness guard; see
	// ServeReport.DiscardedSolves). Zero models an instantaneous solve.
	SolveSeconds float64
	// SolveWorkers is the annealing portfolio width of background re-solves
	// (and of the initial placement when set on the System): that many
	// independently seeded replicas solve concurrently and the best
	// objective wins, deterministically. 0 or 1 solves serially.
	SolveWorkers int
	// Oversubscription enables tiered expert-weight memory: each replica
	// GPU's HBM holds assigned-expert-weights/ratio expert slots and the
	// rest page from host DRAM over the topology's host link
	// (internal/expertmem). 0 disables the memory layer; 1 builds it with
	// everything resident (no stalls, by construction); 2 means half the
	// expert weights fit; values in (0, 1) are rejected.
	Oversubscription float64
	// CachePolicy selects the residency policy under oversubscription:
	// "lru", "lfu", "pin" (static pin-by-popularity), or "affinity" (the
	// default: affinity-mass eviction plus affinity-guided prefetching).
	CachePolicy string
	// PrefetchK is how many affinity successors the prefetcher chases per
	// routed expert (default 4; affinity policy only).
	PrefetchK int
	// HostSlots bounds how many expert master copies fit in host DRAM per
	// replica; the coldest experts by affinity popularity fall through to
	// NVMe and pay both hops on a fetch. 0 means everything fits in DRAM.
	HostSlots int
	// MemoryAware folds the expected expert-stall cost into the adaptive
	// controller's re-placement objective (see
	// System.SolvePlacementMemoryAware for the initial-placement
	// counterpart): live re-solves then price hot-set concentration
	// alongside crossings, and each MigrationEvent reports its predicted vs
	// realized stall-per-token delta. Requires Oversubscription >= 1; at
	// exactly 1 the term is inactive and re-solves stay bit-identical to
	// the crossing-only path.
	MemoryAware bool
	// StallTrigger arms the stall-rate migration trigger: the controller
	// also fires a re-solve when the charged expert-stall seconds per token
	// trend up at a stable routing mix — residency decay the drift detector
	// cannot see. Requires Adaptive and Oversubscription >= 1.
	StallTrigger bool
	// StallTriggerFactor is how far above its observed minimum the stall
	// rate must rise before the trigger fires (default 1.5).
	StallTriggerFactor float64
	// Fleet enables the node-level fleet tier (internal/fleet): a shared
	// host-DRAM master-copy cache across co-located replicas, a declarative
	// reconciliation-loop autoscaler on the simulated clock, and
	// admission control priced on predicted paging cost. Nil disables the
	// tier; the serve path is then bit-identical to previous releases.
	Fleet *FleetSpec
	// Chaos declares a fault-injection schedule for the run (see
	// internal/chaos): replica crashes with timed recoveries, degraded-link
	// windows, fetch stall-timeout retry with exponential backoff, and
	// preemptible speculative DMA. Nil (or an empty schedule) disables the
	// layer with zero overhead — the run is bit-identical to one without it.
	// Fault outcomes are ledgered in ServeReport.Faults. The memory-path
	// faults (FetchTimeout, PreemptibleDMA, link degradation) act on the
	// tiered memory layer and require Oversubscription >= 1; crashes only
	// require Replicas >= 2 (replica 0 anchors the fleet and cannot crash).
	Chaos *ChaosSchedule
	// Trace, when non-nil, records typed simulator events (admissions,
	// iteration spans, per-layer expert stalls, prefetch traffic, solver
	// lifecycle, migration pauses) into a bounded ring; export it with
	// obs.WritePerfetto for a Chrome/Perfetto-loadable timeline. Nil
	// disables tracing with zero overhead.
	Trace *obs.Tracer
	// Metrics, when non-nil, collects counters, gauges, and histograms from
	// every layer of the run (serve_*, controller_*, expertmem_*, solver_*);
	// the end-of-run snapshot is returned in ServeReport.Metrics. Nil
	// disables collection with zero overhead.
	Metrics *obs.Registry
	// Decisions, when non-nil, records a human-readable log line for every
	// controller decision (observe, skip, solve launch, discard, reject,
	// accept, migration completion) with the inputs that drove it.
	Decisions *obs.DecisionLog
	// AutoSolveSeconds derives the simulated background-solve latency from
	// the solver's measured host wall clock (running mean of completed
	// solves) instead of the fixed SolveSeconds. An explicit SolveSeconds > 0
	// always wins. The first solve uses SolveSecondsPrior; when that is zero
	// too, Serve seeds it with the calibration's measured initial-placement
	// solve wall (ServeCalibration.SolveWallSeconds).
	AutoSolveSeconds bool
	// SolveSecondsPrior seeds the AutoSolveSeconds estimate before any
	// background solve has completed. Requires AutoSolveSeconds.
	SolveSecondsPrior float64
	// LatencyBucket is the report time-bucket width in seconds (0 = auto).
	LatencyBucket float64
	// Calibration, when set, reuses offline artifacts from a previous
	// CalibrateServe call instead of re-profiling and re-running the engine —
	// the static-vs-adaptive comparisons share one calibration this way.
	Calibration *ServeCalibration
	// Seed overrides the system seed for the serving run (0 = system seed).
	Seed uint64
}

// Validate rejects malformed serving options up front — before the
// expensive engine calibration runs, and with a field-naming error instead
// of a deep panic (negative TraceWindow capacity) or a silent degeneration
// (a negative arrival rate would spin the arrival generator forever). Zero
// values are legal everywhere they mean "use the default".
func (o ServeOptions) Validate() error {
	switch {
	case o.Replicas < 0:
		return fmt.Errorf("exflow: Replicas must be positive (zero for the default %d), got %d", serve.DefaultReplicas, o.Replicas)
	case o.Window < 0:
		return fmt.Errorf("exflow: TraceWindow capacity must be positive (zero for the default %d), got %d", serve.DefaultWindow, o.Window)
	case o.MaxBatch < 0:
		return fmt.Errorf("exflow: MaxBatch must be positive (zero for the default), got %d", o.MaxBatch)
	case o.DecodeTokens < 0:
		return fmt.Errorf("exflow: DecodeTokens must be positive (zero for the default), got %d", o.DecodeTokens)
	case o.ProfileTokens < 0:
		return fmt.Errorf("exflow: ProfileTokens must be positive (zero for the default), got %d", o.ProfileTokens)
	case !(o.LoadFrac >= 0) || math.IsInf(o.LoadFrac, 1):
		return fmt.Errorf("exflow: LoadFrac must be positive and finite (zero for the default), got %v", o.LoadFrac)
	case o.CalibIters < 0:
		return fmt.Errorf("exflow: CalibIters must be positive (zero for the default), got %d", o.CalibIters)
	case o.CheckInterval < 0 || o.DriftThreshold < 0 || o.Patience < 0 || o.Cooldown < 0 ||
		o.MinGain < 0 || o.LatencyBucket < 0 || o.PrefetchK < 0 ||
		o.SolveSeconds < 0 || o.SolveWorkers < 0 || o.SolveSecondsPrior < 0:
		return fmt.Errorf("exflow: detector/controller tunables must be non-negative")
	case o.SolveSecondsPrior > 0 && !o.AutoSolveSeconds:
		// A prior without the estimator does nothing; rejected so the caller
		// notices the missing flag.
		return fmt.Errorf("exflow: SolveSecondsPrior set but AutoSolveSeconds is off; enable AutoSolveSeconds or drop the prior")
	case o.Oversubscription < 0 || (o.Oversubscription > 0 && o.Oversubscription < 1):
		return fmt.Errorf("exflow: Oversubscription must be 0 (off) or >= 1, got %v", o.Oversubscription)
	case o.HostSlots < 0:
		return fmt.Errorf("exflow: HostSlots must be non-negative, got %d", o.HostSlots)
	case o.Oversubscription == 0 && o.HostSlots > 0:
		// Without the memory layer there is no host tier to bound; the option
		// would silently do nothing, which almost always means the caller
		// forgot Oversubscription.
		return fmt.Errorf("exflow: HostSlots %d set but Oversubscription is 0 (memory layer disabled); set Oversubscription >= 1 or drop HostSlots", o.HostSlots)
	case o.Oversubscription == 0 && o.CachePolicy != "":
		// Rejected rather than silently ignored: a policy without the memory
		// layer does nothing, which almost always means the caller meant to
		// set Oversubscription too.
		return fmt.Errorf("exflow: CachePolicy %q set but Oversubscription is 0 (memory layer disabled); set Oversubscription >= 1 or drop the policy", o.CachePolicy)
	case o.Oversubscription == 0 && o.MemoryAware:
		return fmt.Errorf("exflow: MemoryAware requires the tiered memory layer; set Oversubscription >= 1")
	case o.StallTriggerFactor < 0:
		return fmt.Errorf("exflow: StallTriggerFactor must be non-negative, got %v", o.StallTriggerFactor)
	case o.StallTriggerFactor > 0 && !o.StallTrigger:
		return fmt.Errorf("exflow: StallTriggerFactor set but StallTrigger is off; enable it or drop the factor")
	case o.StallTrigger && o.Oversubscription == 0:
		return fmt.Errorf("exflow: StallTrigger watches tiered-memory stalls; set Oversubscription >= 1")
	case o.StallTrigger && !o.Adaptive:
		return fmt.Errorf("exflow: StallTrigger requires the adaptive controller; enable Adaptive")
	}
	if o.Fleet != nil {
		reps := o.Replicas
		if reps == 0 {
			reps = serve.DefaultReplicas
		}
		if err := o.Fleet.Validate(reps); err != nil {
			return err
		}
		if o.Fleet.SharedHostCache && o.Oversubscription == 0 {
			return fmt.Errorf("exflow: Fleet.SharedHostCache requires the tiered memory layer; set Oversubscription >= 1")
		}
		if o.Fleet.SharedHostCache && o.HostSlots == 0 {
			return fmt.Errorf("exflow: Fleet.SharedHostCache without HostSlots is inert (every master fits in DRAM); set HostSlots or drop the shared cache")
		}
		if o.Fleet.Admission == FleetAdmissionPaging && o.Oversubscription == 0 {
			return fmt.Errorf("exflow: Fleet paging admission prices tiered-memory stalls; set Oversubscription >= 1")
		}
	}
	if o.Oversubscription > 0 {
		if _, err := expertmem.ParsePolicy(o.CachePolicy); err != nil {
			return err
		}
	}
	if err := o.Chaos.Validate(); err != nil {
		return err
	}
	if o.Oversubscription == 0 && o.Chaos != nil &&
		(o.Chaos.FetchTimeout > 0 || o.Chaos.PreemptibleDMA || o.Chaos.Degraded()) {
		// Mirrors the serve layer's check (both-layer validation convention).
		return fmt.Errorf("exflow: Chaos memory-path faults (fetch timeout, preemptible DMA, link degrade) touch the tiered memory layer; set Oversubscription >= 1")
	}
	for i, p := range o.Phases {
		name := p.Name
		if name == "" {
			name = fmt.Sprintf("phase%d", i)
		}
		// NaN passes every ordered comparison and +Inf never ends the
		// arrival loop, so both are rejected explicitly.
		if !(p.Duration > 0) || math.IsInf(p.Duration, 1) {
			return fmt.Errorf("exflow: phase %q needs a positive finite Duration, got %v", name, p.Duration)
		}
		if !(p.Rate >= 0) || math.IsInf(p.Rate, 1) {
			return fmt.Errorf("exflow: phase %q arrival rate must be positive and finite (zero to derive it from LoadFrac), got %v", name, p.Rate)
		}
		if _, err := serve.ParseArrivalKind(p.Arrival); err != nil {
			return fmt.Errorf("exflow: phase %q: %w", name, err)
		}
	}
	return nil
}

// ServeReport is the outcome of a serving run (see internal/serve.Report).
type ServeReport = serve.Report

// FleetSpec declares the fleet tier's desired state (see internal/fleet):
// shared host-DRAM master cache, autoscaler bounds and cadences, and the
// admission policy. FleetReport is its run summary (ServeReport.Fleet).
type (
	FleetSpec   = fleet.Spec
	FleetReport = fleet.Report
)

// FleetAdmissionQueue and FleetAdmissionPaging name the fleet tier's
// admission policies: the queue-depth baseline and the paging-cost pricer.
const (
	FleetAdmissionQueue  = fleet.AdmissionQueue
	FleetAdmissionPaging = fleet.AdmissionPaging
)

// ChaosSchedule declares a fault-injection program for Serve (see
// internal/chaos): build one from ChaosCrash / ChaosCrashForever /
// ChaosDegradeLink faults plus the fetch-timeout and preemptible-DMA knobs.
// ChaosReport is the per-run fault ledger (ServeReport.Faults).
type (
	ChaosSchedule = chaos.Schedule
	ChaosFault    = chaos.Fault
	ChaosReport   = chaos.Report
)

// ChaosCrash, ChaosCrashForever, and ChaosDegradeLink construct the typed
// faults a ChaosSchedule is built from.
var (
	ChaosCrash        = chaos.Crash
	ChaosCrashForever = chaos.CrashForever
	ChaosDegradeLink  = chaos.DegradeLink
)

// ServeMetrics bundles what Serve derived before simulating: the fitted
// iteration-cost model and the capacity planning numbers.
type ServeMetrics struct {
	Cost workload.LocalityModel
	// TokenCapacity is one replica's asymptotic decode tokens/second at full
	// batch under the initial placement's locality.
	TokenCapacity float64
	// RequestCapacity is the fleet-wide request/second capacity at
	// DecodeTokens per request.
	RequestCapacity float64
	// FracNode / FracCross are the initial placement's dispatch fractions
	// measured during calibration.
	FracNode, FracCross float64
}

// Serve runs the online serving subsystem on top of a System: it profiles
// the model, solves the initial ExFlow placement, fits the locality-aware
// iteration-cost model from real engine runs, and then drives the
// multi-replica continuous-batching simulation — with live routing-drift
// detection and (when opts.Adaptive) background expert re-placement.
func Serve(sys *System, opts ServeOptions) (*ServeReport, *ServeMetrics, error) {
	if err := opts.Validate(); err != nil {
		return nil, nil, err
	}
	opts = opts.withDefaults(sys)
	seed := opts.Seed
	if seed == 0 {
		seed = sys.Seed
	}

	// Resolve the traffic program first: a malformed phase should fail fast,
	// before the expensive engine calibration runs. Zero rates are filled in
	// after calibration, once the capacity knee is known.
	phases := opts.Phases
	if len(phases) == 0 {
		phases = []ServePhase{{Name: "steady", Duration: 30}}
	}
	var sphases []serve.Phase
	for i, p := range phases {
		kind, err := serve.ParseArrivalKind(p.Arrival)
		if err != nil {
			return nil, nil, err
		}
		ds := p.Dataset
		if ds == nil {
			ds = sys.Dataset
		}
		name := p.Name
		if name == "" {
			name = fmt.Sprintf("phase%d", i)
		}
		sphases = append(sphases, serve.Phase{
			Name: name, Duration: p.Duration, Rate: p.Rate, Kind: kind, Dataset: ds,
		})
	}

	cal := opts.Calibration
	if cal == nil {
		var err error
		if cal, err = CalibrateServe(sys, opts); err != nil {
			return nil, nil, err
		}
	}
	met := cal.Metrics

	for i := range sphases {
		if sphases[i].Rate == 0 {
			sphases[i].Rate = opts.LoadFrac * met.RequestCapacity
		}
	}

	prior := opts.SolveSecondsPrior
	if opts.AutoSolveSeconds && prior == 0 {
		// Seed the estimator with the measured initial-placement solve wall:
		// the closest available analogue of a background re-solve.
		prior = cal.SolveWallSeconds
	}

	rep, err := serve.Run(serve.Options{
		Topo:               sys.Topo,
		Kernel:             sys.Kernel,
		Placement:          cal.Placement,
		BaselineCounts:     cal.Trace.AllTransitionCounts(),
		Cost:               met.Cost,
		ExpertBytes:        int(sys.Model.Cfg.ExpertParams()) * 2, // fp16
		Replicas:           opts.Replicas,
		MaxBatch:           opts.MaxBatch,
		DecodeTokens:       opts.DecodeTokens,
		Phases:             sphases,
		Adaptive:           opts.Adaptive,
		Window:             opts.Window,
		CheckInterval:      opts.CheckInterval,
		DriftThreshold:     cal.DriftThreshold,
		Patience:           opts.Patience,
		Cooldown:           opts.Cooldown,
		MinGain:            opts.MinGain,
		SolveSeconds:       opts.SolveSeconds,
		SolveWorkers:       opts.SolveWorkers,
		Oversubscription:   opts.Oversubscription,
		CachePolicy:        opts.CachePolicy,
		PrefetchK:          opts.PrefetchK,
		HostSlots:          opts.HostSlots,
		MemoryAware:        opts.MemoryAware,
		StallTrigger:       opts.StallTrigger,
		StallTriggerFactor: opts.StallTriggerFactor,
		Fleet:              opts.Fleet,
		Chaos:              opts.Chaos,
		LatencyBucket:      opts.LatencyBucket,
		Seed:               seed,
		Trace:              opts.Trace,
		Metrics:            opts.Metrics,
		Decisions:          opts.Decisions,
		AutoSolveSeconds:   opts.AutoSolveSeconds,
		SolveSecondsPrior:  prior,
	})
	if err != nil {
		return nil, nil, err
	}
	m := met
	return rep, &m, nil
}

// ServeCalibration bundles the offline artifacts Serve needs before it can
// simulate: the profiling trace, the initial placement solved from it, the
// engine-fit cost model, and the resolved drift threshold. Compute it once
// with CalibrateServe and pass it via ServeOptions.Calibration to share
// across runs (e.g. a static-vs-adaptive comparison), halving the dominant
// engine-calibration cost.
type ServeCalibration struct {
	Trace          *trace.Trace
	Placement      *placement.Placement
	Metrics        ServeMetrics
	DriftThreshold float64
	// SolveWallSeconds is the measured host wall clock of the initial
	// placement solve — the prior ServeOptions.AutoSolveSeconds seeds its
	// latency estimate with before any background re-solve has completed.
	SolveWallSeconds float64
}

// CalibrateServe profiles the system, solves the initial placement, fits
// the locality-aware iteration-cost model from real engine runs, and
// resolves the drift threshold.
func CalibrateServe(sys *System, opts ServeOptions) (*ServeCalibration, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults(sys)
	tr := sys.Profile(opts.ProfileTokens)
	// Time the initial solve on whichever clock the caller's registry uses
	// (tests pin it via SetNow; no registry reads the real wall clock).
	clock := opts.Metrics
	if clock == nil {
		clock = obs.NewRegistry()
	}
	t0 := clock.Now()
	pl := sys.SolvePlacement(tr)
	solveWall := clock.Now() - t0

	threshold := opts.DriftThreshold
	if threshold == 0 {
		threshold = calibrateDriftThreshold(sys, tr, opts.Window)
	}

	cost, fracNode, fracCross, err := fitLocalityModel(sys, pl, opts.CalibIters)
	if err != nil {
		return nil, fmt.Errorf("exflow: serve calibration failed: %w", err)
	}
	met := ServeMetrics{Cost: cost, FracNode: fracNode, FracCross: fracCross}
	met.TokenCapacity = float64(opts.MaxBatch) / cost.Time(opts.MaxBatch, fracNode, fracCross)
	met.RequestCapacity = met.TokenCapacity * float64(opts.Replicas) / float64(opts.DecodeTokens)
	return &ServeCalibration{Trace: tr, Placement: pl, Metrics: met, DriftThreshold: threshold, SolveWallSeconds: solveWall}, nil
}

// withDefaults resolves the option defaults Serve and CalibrateServe share.
func (o ServeOptions) withDefaults(sys *System) ServeOptions {
	if o.ProfileTokens == 0 {
		o.ProfileTokens = 3000
	}
	if o.LoadFrac == 0 {
		o.LoadFrac = 0.9
	}
	if o.DecodeTokens == 0 {
		o.DecodeTokens = 32
	}
	if o.MaxBatch == 0 {
		o.MaxBatch = 4 * sys.Topo.TotalGPUs()
	}
	if o.CalibIters == 0 {
		o.CalibIters = 3
	}
	if o.Replicas == 0 {
		o.Replicas = serve.DefaultReplicas
	}
	if o.Window == 0 {
		o.Window = serve.DefaultWindow
	}
	return o
}

// calibrateDriftThreshold bootstraps the detector threshold from the model
// itself: it scores a held-out, window-sized slice of in-distribution
// traffic against the profiling baseline — pure sampling noise — and sets
// the threshold at three times that floor. This keeps the detector quiet on
// the profiled distribution while firing on genuine mixture shift, whatever
// the window size, layer count, and expert count imply for the noise scale.
func calibrateDriftThreshold(sys *System, tr *trace.Trace, window int) float64 {
	held := sys.ProfileOn(sys.Dataset, window, 1<<21)
	experts := sys.Model.Cfg.Experts
	noise := serve.Divergence(serve.JS,
		serve.Pool(tr.AllTransitionCounts(), experts),
		serve.Pool(held.AllTransitionCounts(), experts))
	return 3 * noise
}

// fitLocalityModel measures the engine at three placements of different
// dispatch locality (contiguous, random, affinity-staged), two batch sizes
// each, and least-squares fits the locality-aware iteration-cost model. It
// returns the model plus the staged placement's measured dispatch fractions.
func fitLocalityModel(sys *System, staged *placement.Placement, iters int) (workload.LocalityModel, float64, float64, error) {
	cfg := sys.Model.Cfg
	gpus := sys.Topo.TotalGPUs()
	placements := []struct {
		pl   *placement.Placement
		mode engine.Mode
	}{
		{sys.Baseline(), engine.ContextCoherent},
		{placement.Random(cfg.Layers, cfg.Experts, gpus, sys.Seed+0xBAD), engine.ContextCoherent},
		{staged, engine.ExFlow},
	}
	var points []workload.LocalityPoint
	var fracNode, fracCross float64
	for pi, p := range placements {
		for _, perGPU := range []int{2, 8} {
			rep := sys.Run(p.mode, p.pl, Workload{RequestsPerGPU: perGPU, PromptLen: 8, GenerateTokens: iters})
			total := rep.DispatchSameGPU + rep.DispatchSameNode + rep.DispatchCrossNode
			if total == 0 {
				return workload.LocalityModel{}, 0, 0, fmt.Errorf("calibration run produced no dispatches")
			}
			fn := float64(rep.DispatchSameNode) / float64(total)
			fc := float64(rep.DispatchCrossNode) / float64(total)
			points = append(points, workload.LocalityPoint{
				Batch:     perGPU * gpus,
				FracNode:  fn,
				FracCross: fc,
				Seconds:   (rep.SimSeconds - rep.Breakdown["prefill"]) / float64(iters),
			})
			if pi == len(placements)-1 {
				fracNode, fracCross = fn, fc
			}
		}
	}
	m, err := workload.FitLocalityModel(points)
	return m, fracNode, fracCross, err
}
