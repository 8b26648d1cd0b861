package serve

import (
	"fmt"
	"math"

	"repro/internal/chaos"
	"repro/internal/expertmem"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/synth"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Deployment is the system under test: the per-replica hardware, the
// model's routing and parameter size, and the system-level fallbacks for a
// phase's dataset and the run seed.
type Deployment struct {
	// Topo is the per-replica hardware topology.
	Topo *topo.Topology
	// Kernel is the model's routing behaviour. Serving reads each token's
	// primary expert only, so the gating fan-out does not enter the model.
	Kernel *synth.Kernel
	// ExpertBytes is the parameter size of one expert (prices migrations and
	// expert-weight fetches).
	ExpertBytes int
	// Dataset is the profiling dataset; a phase with a nil Dataset draws
	// its tokens from it (no drift).
	Dataset *synth.DatasetProfile
	// Seed is the system seed; a zero Options.Seed falls back to it.
	Seed uint64
}

// Metrics bundles what calibration derived before simulating: the fitted
// iteration-cost model and the capacity planning numbers.
type Metrics struct {
	// Cost converts (batch, dispatch locality) into iteration seconds.
	Cost workload.LocalityModel
	// TokenCapacity is one replica's asymptotic decode tokens/second at full
	// batch under the initial placement's locality.
	TokenCapacity float64
	// RequestCapacity is the fleet-wide request/second capacity at
	// DecodeTokens per request; a phase with a zero Rate offers LoadFrac of
	// it.
	RequestCapacity float64
	// FracNode / FracCross are the initial placement's dispatch fractions
	// measured during calibration.
	FracNode, FracCross float64
}

// Calibration bundles the offline artifacts a run starts from: the
// profiling trace (the drift detector's baseline), the initial placement
// solved from it, the engine-fit cost model, and the resolved drift
// threshold. Compute it once and share it across runs through
// Options.Calibration (e.g. a static-vs-adaptive comparison).
type Calibration struct {
	Trace     *trace.Trace
	Placement *placement.Placement
	Metrics   Metrics
	// DriftThreshold is the resolved detector threshold a run uses (zero
	// takes the default 0.008).
	DriftThreshold float64
}

// Phase is one era of offered traffic: requests arrive for Duration seconds
// at mean Rate requests/second under the Arrival process, drawing their
// token content from Dataset.
type Phase struct {
	// Name labels the phase in the report (default "phaseN").
	Name string
	// Duration is the phase length in simulated seconds.
	Duration float64
	// Rate is the mean request arrival rate in requests/second; zero means
	// Options.LoadFrac times the calibration's request capacity.
	Rate float64
	// Arrival selects the process: Poisson (the default), Bursty or Diurnal.
	Arrival string
	// Dataset is the token domain profile requests draw from; nil means the
	// deployment's dataset (no drift).
	Dataset *synth.DatasetProfile
}

// Options configures a serving run. Zero means "use the default" for every
// knob that has one, and every float must be finite.
type Options struct {
	// Replicas is the number of expert-parallel replicas behind the
	// front-end (default 2).
	Replicas int
	// MaxBatch is each replica's continuous-batching slot limit (default
	// 4 * GPUs).
	MaxBatch int
	// DecodeTokens is the per-request decode length (default 32).
	DecodeTokens int
	// ProfileTokens sizes the offline profiling trace that seeds both the
	// initial placement and the drift baseline (default 3000, at most 1<<20
	// so the profile's token ordinals stay clear of the later streams'; a
	// calibration input).
	ProfileTokens int
	// LoadFrac sets phase rates left at zero, as a fraction of the
	// calibrated fleet request capacity (default 0.9 — near the knee, where
	// placement quality matters most).
	LoadFrac float64
	// Phases is the traffic program; empty means one 30-second
	// in-distribution Poisson phase.
	Phases []Phase

	// Adaptive enables online re-placement; false serves the initial
	// placement forever (the paper's deployment model) while still tracking
	// drift in the report.
	Adaptive bool
	// Window is the TraceWindow capacity in token paths (default 4096).
	Window int
	// SolveSeconds is the simulated latency of one background re-solve: the
	// controller solves on a snapshot of the live window while the fleet
	// keeps serving, and the result lands SolveSeconds later on the
	// simulated clock — overlap, not pause. A solve that lands after routing
	// has drifted past the detector threshold again is discarded (the
	// staleness guard; see Report.DiscardedSolves). Zero models an
	// instantaneous solve.
	SolveSeconds float64
	// SolveWorkers is the annealing portfolio width of background re-solves:
	// that many independently seeded replicas solve concurrently and the
	// best objective wins, deterministically. 0 or 1 solves serially.
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
	// HostSlots bounds how many expert master copies fit in host DRAM per
	// replica; the coldest experts by affinity popularity fall through to
	// NVMe and pay both hops on a fetch. 0 means everything fits in DRAM.
	HostSlots int
	// MemoryAware folds the expected expert-stall cost into the adaptive
	// controller's re-placement objective: live re-solves then price hot-set
	// concentration alongside crossings, and each MigrationEvent reports its
	// predicted vs realized stall-per-token delta. Requires Oversubscription
	// >= 1; at exactly 1 the term is inactive and re-solves stay
	// bit-identical to the crossing-only path.
	MemoryAware bool
	// Fleet enables the node-level fleet tier (internal/fleet): a shared
	// host-DRAM master-copy cache across co-located replicas, a declarative
	// reconciliation-loop autoscaler on the simulated clock. Nil disables the
	// tier; the serve path is then bit-identical to a build without it.
	Fleet *fleet.Spec
	// Chaos declares a fault-injection schedule for the run
	// (internal/chaos): replica crashes with timed recoveries, degraded-link
	// windows, fetch stall-timeout retry with exponential backoff, and
	// preemptible speculative DMA. Nil (or an empty schedule) disables the
	// layer with zero overhead. Fault outcomes are ledgered in
	// Report.Faults. The memory-path faults (FetchTimeout, PreemptibleDMA,
	// link degradation) require Oversubscription >= 1; crashes only require
	// Replicas >= 2 (replica 0 anchors the fleet and cannot crash).
	Chaos *chaos.Schedule
	// Trace, when non-nil, records typed simulator events (admissions,
	// iteration spans, per-layer expert stalls, prefetch traffic, solver
	// lifecycle, migration pauses) into a bounded ring; export it with
	// obs.WritePerfetto. Nil disables tracing with zero overhead.
	Trace *obs.Tracer
	// Metrics, when non-nil, collects counters, gauges, and histograms from
	// every layer of the run (serve_*, controller_*, expertmem_*, solver_*);
	// the end-of-run snapshot is returned in Report.Metrics. Nil disables
	// collection with zero overhead.
	Metrics *obs.Registry
	// Decisions, when non-nil, records a human-readable log line for every
	// controller decision (observe, skip, solve launch, discard, reject,
	// accept, migration completion) with the inputs that drove it.
	Decisions *obs.DecisionLog
	// LatencyBucket is the report's time-bucket width in seconds for the
	// P95/throughput series (0 = makespan/80). A width that would split the
	// run into more than 65,536 buckets is widened to that count.
	LatencyBucket float64
	// Calibration is the offline artifacts the run starts from: the initial
	// placement, the drift baseline, the cost model and the drift
	// threshold. Required by Run; exflow.Serve calibrates when it is nil.
	Calibration *Calibration
	// Seed makes the whole run deterministic (0 = the deployment's seed).
	Seed uint64
}

// DefaultReplicas and DefaultWindow are the fleet-size and trace-window
// defaults.
const (
	DefaultReplicas = 2
	DefaultWindow   = 4096
)

// Arrival processes a Phase can select.
const (
	// Poisson arrivals: exponential inter-arrival gaps at the phase rate.
	Poisson = "poisson"
	// Bursty arrivals: a Markov-modulated on/off process. The long-run rate
	// equals the phase rate, but arrivals cluster in bursts at burstFactor
	// times that rate, stressing the queue's tail.
	Bursty = "bursty"
	// Diurnal arrivals: a sinusoidally modulated Poisson process (one full
	// cycle per phase), modeling daily traffic swing.
	Diurnal = "diurnal"
)

// Validate rejects malformed options up front — before any expensive
// calibration runs — with an error naming the field, instead of a deep panic
// or a run that silently misconfigures itself or never ends. Zero values
// are legal everywhere they mean "use the default". It checks the options,
// including the phase rates an attached calibration resolves; Run checks
// the deployment and the calibration's own artifacts.
func (o Options) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Replicas", o.Replicas}, {"MaxBatch", o.MaxBatch}, {"DecodeTokens", o.DecodeTokens},
		{"ProfileTokens", o.ProfileTokens}, {"Window (the TraceWindow capacity)", o.Window},
		{"SolveWorkers", o.SolveWorkers}, {"HostSlots", o.HostSlots},
	} {
		if f.v < 0 {
			return fmt.Errorf("serve: %s must be non-negative (zero for the default), got %d", f.name, f.v)
		}
	}
	if o.ProfileTokens > maxProfileTokens {
		return fmt.Errorf("serve: ProfileTokens must be at most %d (later token streams start there), got %d", maxProfileTokens, o.ProfileTokens)
	}
	// NaN passes every ordered comparison and +Inf every lower bound, so
	// each float is checked for finiteness explicitly.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"LoadFrac", o.LoadFrac}, {"SolveSeconds", o.SolveSeconds},
		{"Oversubscription", o.Oversubscription}, {"LatencyBucket", o.LatencyBucket},
	} {
		if !nonNegative(f.v) {
			return fmt.Errorf("serve: %s must be non-negative and finite (zero for the default), got %v", f.name, f.v)
		}
	}
	switch {
	case o.Oversubscription > 0 && o.Oversubscription < 1:
		return fmt.Errorf("serve: Oversubscription must be 0 (off) or >= 1, got %v", o.Oversubscription)
	case o.Oversubscription == 0 && o.HostSlots > 0:
		// Without the memory layer there is no host tier to bound; the option
		// would silently do nothing, which almost always means the caller
		// forgot Oversubscription.
		return fmt.Errorf("serve: HostSlots %d set but Oversubscription is 0 (memory layer disabled); set Oversubscription >= 1 or drop HostSlots", o.HostSlots)
	case o.Oversubscription == 0 && o.CachePolicy != "":
		return fmt.Errorf("serve: CachePolicy %q set but Oversubscription is 0 (memory layer disabled); set Oversubscription >= 1 or drop the policy", o.CachePolicy)
	case o.Oversubscription == 0 && o.MemoryAware:
		return fmt.Errorf("serve: MemoryAware requires the tiered memory layer; set Oversubscription >= 1")
	}
	if o.Oversubscription > 0 {
		if _, err := expertmem.ParsePolicy(o.CachePolicy); err != nil {
			return err
		}
	}
	replicas := o.Replicas
	if replicas == 0 {
		replicas = DefaultReplicas
	}
	slots := replicas
	if o.Fleet != nil {
		if err := o.Fleet.Validate(replicas); err != nil {
			return err
		}
		switch {
		case o.Fleet.SharedHostCache && o.Oversubscription == 0:
			return fmt.Errorf("serve: Fleet.SharedHostCache requires the tiered memory layer; set Oversubscription >= 1")
		case o.Fleet.SharedHostCache && o.HostSlots == 0:
			return fmt.Errorf("serve: Fleet.SharedHostCache without HostSlots is inert (every master fits in DRAM); set HostSlots or drop the shared cache")
		}
		// An autoscaling fleet owns every slot its spec could ever commit.
		if o.Fleet.Autoscaling() && o.Fleet.MaxReplicas > slots {
			slots = o.Fleet.MaxReplicas
		}
	}
	if err := o.Chaos.Validate(); err != nil {
		return err
	}
	if err := o.Chaos.ValidateReplicas(slots); err != nil {
		return err
	}
	if o.Oversubscription == 0 && o.Chaos != nil &&
		(o.Chaos.FetchTimeout > 0 || o.Chaos.PreemptibleDMA || o.Chaos.Degraded()) {
		return fmt.Errorf("serve: Chaos memory-path faults (fetch timeout, preemptible DMA, link degrade) touch the tiered memory layer; set Oversubscription >= 1")
	}
	for i, p := range o.Phases {
		name := phaseName(p, i)
		// +Inf never ends the arrival loop.
		if !(p.Duration > 0) || math.IsInf(p.Duration, 1) {
			return fmt.Errorf("serve: phase %q needs a positive finite Duration, got %v", name, p.Duration)
		}
		if !nonNegative(p.Rate) {
			return fmt.Errorf("serve: phase %q arrival rate must be non-negative and finite (zero to derive it from LoadFrac), got %v", name, p.Rate)
		}
		switch p.Arrival {
		case "", Poisson, Bursty, Diurnal:
		default:
			return fmt.Errorf("serve: phase %q: unknown arrival process %q (want %q, %q or %q)", name, p.Arrival, Poisson, Bursty, Diurnal)
		}
	}
	// The program as a run resolves it: a zero rate takes LoadFrac of the
	// calibration's request capacity (checked once a calibration is
	// attached), and a run pre-draws every arrival, so a phase's expected
	// request count is bounded.
	for _, p := range o.WithDefaults(Deployment{}).Phases {
		if o.Calibration != nil && (!(p.Rate > 0) || math.IsInf(p.Rate, 1)) {
			return fmt.Errorf("serve: phase %q arrival rate resolves to %v; set Rate or calibrate a request capacity", p.Name, p.Rate)
		}
		if n := p.Rate * p.Duration; n > maxPhaseArrivals {
			return fmt.Errorf("serve: phase %q would offer %.3g requests (rate x duration), more than the %d a phase may", p.Name, n, maxPhaseArrivals)
		}
	}
	return nil
}

// maxPhaseArrivals bounds one phase's expected request count: a run
// pre-draws every arrival into memory before simulating.
const maxPhaseArrivals = 1 << 24

// nonNegative reports whether v is a non-negative finite number.
func nonNegative(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// phaseName is the phase's report label: its Name, or "phaseN".
func phaseName(p Phase, i int) string {
	if p.Name == "" {
		return fmt.Sprintf("phase%d", i)
	}
	return p.Name
}

// WithDefaults returns the options with every zero knob resolved against
// the deployment. The traffic program is resolved too: an empty program
// becomes one 30-second in-distribution phase, and each phase gets its
// name, the deployment's dataset when it has none, and — once a
// calibration is attached — LoadFrac of its request capacity when its
// rate is zero. The caller's phase slice is never modified.
func (o Options) WithDefaults(d Deployment) Options {
	if o.Replicas == 0 {
		o.Replicas = DefaultReplicas
	}
	if o.MaxBatch == 0 && d.Topo != nil {
		o.MaxBatch = 4 * d.Topo.TotalGPUs()
	}
	if o.DecodeTokens == 0 {
		o.DecodeTokens = 32
	}
	if o.ProfileTokens == 0 {
		o.ProfileTokens = 3000
	}
	if o.LoadFrac == 0 {
		o.LoadFrac = 0.9
	}
	if o.Window == 0 {
		o.Window = DefaultWindow
	}
	if o.SolveWorkers == 0 {
		o.SolveWorkers = 1
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	phases := o.Phases
	if len(phases) == 0 {
		phases = []Phase{{Name: "steady", Duration: 30}}
	}
	o.Phases = make([]Phase, len(phases))
	for i, p := range phases {
		p.Name = phaseName(p, i)
		if p.Dataset == nil {
			p.Dataset = d.Dataset
		}
		if p.Rate == 0 && o.Calibration != nil {
			p.Rate = o.LoadFrac * o.Calibration.Metrics.RequestCapacity
		}
		o.Phases[i] = p
	}
	return o
}

// The controller's fixed tunables: no experiment, scenario or benchmark
// workload needs another value.
const (
	// checkInterval is the drift-check cadence in simulated seconds.
	checkInterval = 0.5
	// patience is how many consecutive hot drift checks fire the detector.
	patience = 2
	// cooldown is the minimum simulated seconds between re-solves, counted
	// from a rejected solve or a completed migration.
	cooldown = 5
	// defaultMinGain is the minimum fractional per-token cost reduction
	// worth migrating for (controller.minGain; tests raise it).
	defaultMinGain = 0.01
	// defaultDriftThreshold applies when Calibration.DriftThreshold is zero.
	// JS sampling noise on a full default window sits near 0.005 and a
	// clear mixture shift near 0.02 or more (see the drift detector tests),
	// so 0.008 separates them with margin on both sides.
	defaultDriftThreshold = 0.008
	// minFill is the window fill fraction required before a re-solve.
	minFill = 0.5
)

// runConfig is one run's resolved inputs: the options with every default
// filled in, the deployment, and the calibration artifacts the simulation
// reads.
type runConfig struct {
	Options
	topo        *topo.Topology
	kernel      *synth.Kernel
	expertBytes int
	// placement is the initial placement every replica starts from;
	// baseline its profiling-trace transition counts (the drift detector's
	// reference distribution).
	placement *placement.Placement
	baseline  [][][]float64
	cost      workload.LocalityModel
	threshold float64
}

// resolve validates the options, fills their defaults, and checks the
// deployment and calibration they run on.
func resolve(d Deployment, o Options) (runConfig, error) {
	if err := o.Validate(); err != nil {
		return runConfig{}, err
	}
	o = o.WithDefaults(d)
	cal := o.Calibration
	switch {
	case d.Topo == nil || d.Kernel == nil:
		return runConfig{}, fmt.Errorf("serve: Deployment.Topo and Deployment.Kernel are required")
	case d.ExpertBytes <= 0:
		return runConfig{}, fmt.Errorf("serve: Deployment.ExpertBytes must be positive, got %d", d.ExpertBytes)
	case cal == nil || cal.Placement == nil || cal.Trace == nil:
		return runConfig{}, fmt.Errorf("serve: a Calibration with a Placement and a profiling Trace is required (calibrate the system first)")
	case !validCost(cal.Metrics.Cost):
		return runConfig{}, fmt.Errorf("serve: Calibration cost model must be finite and not empty (fit it from engine runs), got %+v", cal.Metrics.Cost)
	case !nonNegative(cal.DriftThreshold):
		return runConfig{}, fmt.Errorf("serve: Calibration.DriftThreshold must be non-negative and finite, got %v", cal.DriftThreshold)
	}
	pl := cal.Placement
	if d.Kernel.Layers != pl.Layers || d.Kernel.Experts != pl.Experts {
		return runConfig{}, fmt.Errorf("serve: kernel %dx%d does not match placement %dx%d",
			d.Kernel.Layers, d.Kernel.Experts, pl.Layers, pl.Experts)
	}
	if d.Topo.TotalGPUs() != pl.GPUs {
		return runConfig{}, fmt.Errorf("serve: topology %d gpus, placement %d", d.Topo.TotalGPUs(), pl.GPUs)
	}
	for _, p := range o.Phases {
		if p.Dataset == nil {
			return runConfig{}, fmt.Errorf("serve: phase %q has no dataset and the deployment names none", p.Name)
		}
		if err := p.Dataset.Validate(); err != nil {
			return runConfig{}, err
		}
		if len(p.Dataset.Mix) != d.Kernel.Domains {
			// The kernel would alias the extra domains onto its own tilts
			// (or never route the missing ones) without complaint.
			return runConfig{}, fmt.Errorf("serve: phase %q dataset %q mixes %d domains, kernel routes %d",
				p.Name, p.Dataset.Name, len(p.Dataset.Mix), d.Kernel.Domains)
		}
	}
	threshold := cal.DriftThreshold
	if threshold == 0 {
		threshold = defaultDriftThreshold
	}
	return runConfig{
		Options:     o,
		topo:        d.Topo,
		kernel:      d.Kernel,
		expertBytes: d.ExpertBytes,
		placement:   pl,
		baseline:    cal.Trace.AllTransitionCounts(),
		cost:        cal.Metrics.Cost,
		threshold:   threshold,
	}, nil
}

// validCost reports whether a cost model's coefficients are finite and
// not all degenerate — FitLocalityModel's criterion: any single positive
// coefficient is a usable (if lopsided) cost model.
func validCost(c workload.LocalityModel) bool {
	positive := false
	for _, v := range []float64{c.Fixed, c.PerToken, c.PerNodeHop, c.PerCrossHop} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
		positive = positive || v > 0
	}
	return positive
}
