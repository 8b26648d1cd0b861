package exflow

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/expertmem"
	"repro/internal/rng"
)

// ServeAll serves every options set on sys at once, one goroutine per run
// (callers pass a handful of arms), and returns each report in its input's
// slot. The runs share only read-only state, the system and any
// calibration, so each report is the one a lone Serve of its options
// returns. Errors come back joined in input order.
func ServeAll(sys *System, opts []ServeOptions) ([]*ServeReport, error) {
	reps := make([]*ServeReport, len(opts))
	errs := make([]error, len(opts))
	var wg sync.WaitGroup
	for i := range opts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[i], _, errs[i] = Serve(sys, opts[i])
		}()
	}
	wg.Wait()
	return reps, errors.Join(errs...)
}

// ServeSummary is the BENCH_serve.json shape (schema/serve.schema.json):
// one serving run in Adaptive, or with Drift both arms of CompareDrift.
type ServeSummary struct {
	Model            string           `json:"model"`
	Layers           int              `json:"layers"`
	GPUs             int              `json:"gpus"`
	Replicas         int              `json:"replicas"`
	LoadFrac         float64          `json:"load_frac"`
	Seed             uint64           `json:"seed"`
	TokenCapacity    float64          `json:"token_capacity_per_replica"`
	CostFixedUS      float64          `json:"cost_fixed_us"`
	CostPerTokenUS   float64          `json:"cost_per_token_us"`
	CostCrossHopUS   float64          `json:"cost_cross_hop_us"`
	Drift            bool             `json:"drift"`
	Static           *ServeRunSummary `json:"static,omitempty"`
	Adaptive         *ServeRunSummary `json:"adaptive"`
	WarmP95          float64          `json:"warm_p95_s"`
	RecoveryFraction float64          `json:"recovery_fraction"`
}

// ServeRunSummary is one run of a ServeSummary.
type ServeRunSummary struct {
	Phases     []ServePhaseSummary `json:"phases"`
	TailP95    float64             `json:"tail_p95_s"`
	Migrations []MigrationSummary  `json:"migrations,omitempty"`
}

// ServePhaseSummary is one phase of a ServeRunSummary.
type ServePhaseSummary struct {
	Name       string  `json:"name"`
	Requests   int     `json:"requests"`
	P50        float64 `json:"p50_s"`
	P95        float64 `json:"p95_s"`
	P99        float64 `json:"p99_s"`
	Throughput float64 `json:"tokens_per_sec"`
}

// MigrationSummary is one applied re-placement of a ServeRunSummary.
type MigrationSummary struct {
	Time          float64 `json:"time_s"`
	Score         float64 `json:"drift_score"`
	Moves         int     `json:"moves"`
	CrossNode     int     `json:"cross_node_moves"`
	PauseSeconds  float64 `json:"pause_s_per_replica"`
	PredictedGain float64 `json:"predicted_per_token_gain"`
}

// SummarizeServe is the summary of rep, one run served on sys with opts
// (opts.Calibration set), as its Adaptive entry: rep's P95 over the window
// [t0, t1) is the tail P95 and its first phase's P95 the warm P95.
func SummarizeServe(sys *System, opts ServeOptions, rep *ServeReport, t0, t1 float64) ServeSummary {
	cfg, met := sys.Model.Cfg, opts.Calibration.Metrics
	return ServeSummary{
		Model: cfg.Name, Layers: cfg.Layers, GPUs: sys.Topo.TotalGPUs(), Replicas: opts.Replicas,
		LoadFrac: opts.LoadFrac, Seed: sys.Seed,
		TokenCapacity:  met.TokenCapacity,
		CostFixedUS:    met.Cost.Fixed * 1e6,
		CostPerTokenUS: met.Cost.PerToken * 1e6,
		CostCrossHopUS: met.Cost.PerCrossHop * 1e6,
		Adaptive:       summarizeRun(rep, t0, t1),
		WarmP95:        rep.Phases[0].P95,
	}
}

// summarizeRun is rep's entry in a ServeSummary.
func summarizeRun(rep *ServeReport, t0, t1 float64) *ServeRunSummary {
	out := &ServeRunSummary{TailP95: rep.WindowStats(t0, t1).P95}
	for _, p := range rep.Phases {
		out.Phases = append(out.Phases, ServePhaseSummary{
			Name: p.Name, Requests: p.Requests, P50: p.P50, P95: p.P95, P99: p.P99, Throughput: p.Throughput,
		})
	}
	for _, m := range rep.Migrations {
		out.Migrations = append(out.Migrations, MigrationSummary{
			Time: m.Time, Score: m.Score, Moves: m.Moves, CrossNode: m.CrossNodeMoves,
			PauseSeconds: m.Seconds, PredictedGain: m.PredictedGain,
		})
	}
	return out
}

// DriftComparison is CompareDrift's outcome: both arms' reports and the
// BENCH_serve.json summary built from them.
type DriftComparison struct {
	Static, Adaptive *ServeReport
	// Regressed reports whether the static arm's tail P95 rose above its
	// warm P95 by more than 5% of it; Summary.RecoveryFraction is 0 if not.
	Regressed bool
	Summary   ServeSummary
}

// CompareDrift serves base's traffic program twice, side by side on one
// calibration: once on the static offline ExFlow placement and once with
// the adaptive controller. The first phase is the warm baseline and the
// second half of the last phase is the tail, where the comparison measures
// how much of the static arm's P95 regression the adaptive arm recovers.
// base's observability sinks (Trace, Metrics, Decisions) record the
// adaptive run only: the static arm is the baseline, and the adaptive run
// is where migrations, solve overlap and stalls happen.
func CompareDrift(sys *System, base ServeOptions) (*DriftComparison, error) {
	if len(base.Phases) < 2 {
		return nil, fmt.Errorf("exflow: a drift comparison needs a warm phase and a drift phase, got %d phases", len(base.Phases))
	}
	if base.Calibration == nil {
		cal, err := CalibrateServe(sys, base)
		if err != nil {
			return nil, err
		}
		base.Calibration = cal
	}
	static, adaptive := base, base
	static.Trace, static.Metrics, static.Decisions = nil, nil, nil
	static.Adaptive, adaptive.Adaptive = false, true
	reps, err := ServeAll(sys, []ServeOptions{static, adaptive})
	if err != nil {
		return nil, err
	}
	last := len(base.Phases) - 1
	tail0, tail1 := reps[0].Phases[last].Start+base.Phases[last].Duration/2, reps[0].Phases[last].End

	c := &DriftComparison{Static: reps[0], Adaptive: reps[1], Summary: SummarizeServe(sys, base, reps[1], tail0, tail1)}
	s := &c.Summary
	s.Drift = true
	s.Static = summarizeRun(c.Static, tail0, tail1)
	s.WarmP95 = c.Static.Phases[0].P95
	// A regression below 5% of the warm P95 is measurement noise; leave the
	// recovery fraction at 0 rather than dividing by it.
	reg := s.Static.TailP95 - s.WarmP95
	if c.Regressed = reg > 0.05*s.WarmP95; c.Regressed {
		s.RecoveryFraction = (s.Static.TailP95 - s.Adaptive.TailP95) / reg
	}
	return c, nil
}

// MemorySweepRatios is the oversubscription sweep of SweepMemory: 1x
// (everything resident, offered a share of the calibrated capacity) through
// 4x (a quarter fits).
var MemorySweepRatios = []float64{1, 1.5, 2, 4}

// ProbeMemoryCapacity estimates a configuration's sustainable token
// throughput by saturating it briefly: at several times the 1x capacity the
// queue never drains, so served tokens per second approximate the service
// capacity under that oversubscription ratio and policy.
func ProbeMemoryCapacity(sys *System, base ServeOptions, ratio float64, dur float64) (float64, error) {
	caps, err := probeMemoryCapacities(sys, base, []float64{ratio}, dur)
	if err != nil {
		return 0, err
	}
	return caps[0], nil
}

// probeMemoryCapacities runs ProbeMemoryCapacity's probe at every ratio,
// side by side: base served static under the affinity policy, offered three
// times the calibrated capacity for dur seconds.
func probeMemoryCapacities(sys *System, base ServeOptions, ratios []float64, dur float64) ([]float64, error) {
	if base.Calibration == nil {
		cal, err := CalibrateServe(sys, base)
		if err != nil {
			return nil, err
		}
		base.Calibration = cal
	}
	probes := make([]ServeOptions, len(ratios))
	for i, ratio := range ratios {
		o := base
		o.Adaptive, o.Oversubscription, o.CachePolicy = false, ratio, "affinity"
		o.Phases = []ServePhase{{Name: "probe", Duration: dur, Rate: 3 * base.Calibration.Metrics.RequestCapacity}}
		probes[i] = o
	}
	reps, err := ServeAll(sys, probes)
	if err != nil {
		return nil, err
	}
	caps := make([]float64, len(reps))
	for i, rep := range reps {
		if rep.Makespan <= 0 {
			return nil, fmt.Errorf("exflow: capacity probe served nothing")
		}
		caps[i] = float64(rep.Tokens) / rep.Makespan
	}
	return caps, nil
}

// MemorySweepSummary is the BENCH_expertmem.json shape
// (schema/expertmem.schema.json).
type MemorySweepSummary struct {
	Model           string  `json:"model"`
	Layers          int     `json:"layers"`
	GPUs            int     `json:"gpus"`
	Replicas        int     `json:"replicas"`
	Seed            uint64  `json:"seed"`
	Arrival         string  `json:"arrival"`
	Provision       float64 `json:"provision_frac"`
	ExpertMB        float64 `json:"expert_mb"`
	WeightsPerGPUGB float64 `json:"expert_weights_per_gpu_gb"`
	HBMPerGPUGB     float64 `json:"hbm_per_gpu_gb"`
	DisabledP95     float64 `json:"memory_disabled_p95_s"`

	Runs []MemoryArmSummary `json:"runs"`

	Acceptance struct {
		OneXMatchesDisabled  bool    `json:"one_x_matches_disabled_exactly"`
		OneXP95DeltaSeconds  float64 `json:"one_x_p95_delta_s"`
		Affinity2xHitRate    float64 `json:"affinity_2x_hit_rate"`
		LRU2xHitRate         float64 `json:"lru_2x_hit_rate"`
		Affinity2xP95        float64 `json:"affinity_2x_p95_s"`
		LRU2xP95             float64 `json:"lru_2x_p95_s"`
		AffinityBeatsLRUAt2x bool    `json:"affinity_beats_lru_at_2x"`
	} `json:"acceptance"`

	// MemAware compares crossing-only vs memory-aware placement per ratio
	// (affinity policy, identical offered rate); present when the sweep
	// runs the memory-aware arms.
	MemAware *MemoryAwareSummary `json:"memaware,omitempty"`
}

// MemoryArmSummary is one cell of the oversubscription sweep. Placement is
// empty for the crossing-only solver and "memory-aware" for the
// memory-aware arm.
type MemoryArmSummary struct {
	Ratio            float64 `json:"oversubscription"`
	Policy           string  `json:"policy"`
	Placement        string  `json:"placement,omitempty"`
	OfferedRPS       float64 `json:"offered_req_per_sec"`
	HitRate          float64 `json:"hit_rate"`
	LateHits         int     `json:"late_hits"`
	Misses           int     `json:"misses"`
	Prefetches       int     `json:"prefetches"`
	PrefetchHits     int     `json:"prefetch_hits"`
	WastedPrefetches int     `json:"wasted_prefetches"`
	StallPerToken    float64 `json:"clock_stall_s_per_token"`
	AccessStallTotal float64 `json:"access_stall_s_total"`
	P50              float64 `json:"p50_s"`
	P95              float64 `json:"p95_s"`
	P99              float64 `json:"p99_s"`
	Throughput       float64 `json:"tokens_per_sec"`
}

// MemoryAwareSummary summarizes the memory-aware arms.
type MemoryAwareSummary struct {
	// OneXBitIdentical: at 1x the memory term is inactive, so the
	// memory-aware solve must reproduce the crossing-only placement (and
	// hence the whole run) exactly.
	OneXBitIdentical bool `json:"one_x_bit_identical"`
	// Per-ratio deltas (memory-aware minus crossing-only).
	HitRateDelta2x        float64 `json:"hit_rate_delta_2x"`
	P95Delta2xSeconds     float64 `json:"p95_delta_2x_s"`
	HitRateDelta4x        float64 `json:"hit_rate_delta_4x"`
	P95Delta4xSeconds     float64 `json:"p95_delta_4x_s"`
	BeatsCrossingOnlyAt2x bool    `json:"beats_crossing_only_at_2x"`
}

// MemorySweep is SweepMemory's outcome: the memory-disabled baseline's
// offered rate, each arm's report in the slot of its Summary.Runs row, and
// the BENCH_expertmem.json summary.
type MemorySweep struct {
	DisabledRPS float64
	Reports     []*ServeReport
	Summary     MemorySweepSummary
}

// memoryArm names one cell of the sweep.
type memoryArm struct {
	ratio             float64
	policy, placement string
}

// SweepMemory serves base's traffic program under tiered expert-weight
// memory at every ratio of MemorySweepRatios for every cache policy (1x
// runs once, under affinity: every expert is resident, so no policy can
// act), plus a memory-disabled baseline. Each ratio is offered provision
// times its own capacity as ProbeMemoryCapacity measures it over half the
// program (the baseline and 1x: provision times the calibrated capacity).
// Every arm at a ratio sees the same arrivals, seeded
// rng.Mix64(seed, 0x0A53, ratio index); the baseline shares the 1x arm's
// seed, so the 1x-matches-disabled acceptance compares identical streams.
// base.HostSlots bounds the oversubscribed arms only. With memoryAware,
// each ratio gains an affinity arm whose placement was solved with the
// expert-stall term in the objective. This is `exflow-serve -oversub` and
// the expert_memory experiment.
func SweepMemory(sys *System, base ServeOptions, provision float64, memoryAware bool) (*MemorySweep, error) {
	// Calibration and the memory-disabled baseline reject a host-DRAM bound
	// without the memory layer; arm applies it to the oversubscribed arms.
	hostSlots := base.HostSlots
	base.HostSlots = 0
	if base.Calibration == nil {
		cal, err := CalibrateServe(sys, base)
		if err != nil {
			return nil, err
		}
		base.Calibration = cal
	}
	cal := base.Calibration
	resolved := base.WithDefaults(sys.serveDeployment())
	dur := 0.0
	for _, p := range resolved.Phases {
		dur += p.Duration
	}
	// arm serves the program at rate with ratio index i's seed.
	arm := func(i int, ratio float64, policy string, rate float64) ServeOptions {
		o := base
		o.Oversubscription, o.CachePolicy = ratio, policy
		o.Seed = rng.Mix64(resolved.Seed, 0x0A53, uint64(i))
		if ratio > 0 {
			o.HostSlots = hostSlots
		}
		o.Phases = slices.Clone(resolved.Phases)
		for i := range o.Phases {
			o.Phases[i].Rate = rate
		}
		return o
	}

	// Every ratio above 1x is offered provision times its own capacity,
	// probed over half the program.
	probe := base
	probe.HostSlots = hostSlots
	caps, err := probeMemoryCapacities(sys, probe, MemorySweepRatios[1:], dur/2)
	if err != nil {
		return nil, err
	}
	rates := []float64{provision * cal.Metrics.RequestCapacity}
	for _, c := range caps {
		rates = append(rates, provision*c/float64(resolved.DecodeTokens))
	}

	// The arms, in output order: the baseline, then (ratio, policy,
	// placement) ascending.
	policies := slices.Sorted(slices.Values(expertmem.PolicyNames()))
	opts := []ServeOptions{arm(0, 0, "", rates[0])}
	var arms []memoryArm
	slot := map[memoryArm]int{}
	add := func(a memoryArm, o ServeOptions) {
		slot[a] = len(arms)
		arms = append(arms, a)
		opts = append(opts, o)
	}
	for i, ratio := range MemorySweepRatios {
		pols := policies
		if ratio == 1 {
			pols = []string{"affinity"}
		}
		for _, pol := range pols {
			add(memoryArm{ratio, pol, ""}, arm(i, ratio, pol, rates[i]))
			if pol != "affinity" || !memoryAware {
				continue
			}
			// Same policy, same offered rate, but the placement was solved
			// with the expert-stall term in the objective. At 1x the term is
			// inactive and the solve must equal the crossing-only one.
			calMem := *cal
			calMem.Placement = sys.SolvePlacementMemoryAware(cal.Trace, ratio, "affinity", 0, hostSlots)
			o := arm(i, ratio, pol, rates[i])
			o.Calibration, o.MemoryAware = &calMem, true
			add(memoryArm{ratio, pol, "memory-aware"}, o)
		}
	}
	reps, err := ServeAll(sys, opts)
	if err != nil {
		return nil, err
	}

	cfg := sys.Model.Cfg
	gpus := sys.Topo.TotalGPUs()
	expertBytes := float64(cfg.ExpertParams()) * 2
	sw := &MemorySweep{DisabledRPS: rates[0], Reports: reps[1:], Summary: MemorySweepSummary{
		Model: cfg.Name, Layers: cfg.Layers, GPUs: gpus, Replicas: base.Replicas, Seed: resolved.Seed,
		Arrival: resolved.Phases[0].Arrival, Provision: provision,
		ExpertMB:        expertBytes / (1 << 20),
		WeightsPerGPUGB: expertBytes * float64(cfg.Layers*cfg.Experts/gpus) / 1e9,
		HBMPerGPUGB:     float64(sys.Topo.HBMCapacity()) / 1e9,
		DisabledP95:     reps[0].Overall.P95,
	}}
	sum := &sw.Summary
	for i, a := range arms {
		rep, em := sw.Reports[i], sw.Reports[i].ExpertMem
		sum.Runs = append(sum.Runs, MemoryArmSummary{
			Ratio: a.ratio, Policy: a.policy, Placement: a.placement, OfferedRPS: opts[i+1].Phases[0].Rate,
			HitRate: em.EffectiveHitRate(), LateHits: em.LateHits, Misses: em.Misses,
			Prefetches: em.Prefetches, PrefetchHits: em.PrefetchHits, WastedPrefetches: em.WastedPrefetches,
			StallPerToken: rep.MemStallSeconds / float64(rep.Tokens), AccessStallTotal: em.StallSeconds,
			P50: rep.Overall.P50, P95: rep.Overall.P95, P99: rep.Overall.P99,
			Throughput: rep.Overall.Throughput,
		})
	}
	report := func(ratio float64, policy, placement string) (*ServeReport, MemoryArmSummary) {
		i := slot[memoryArm{ratio, policy, placement}]
		return sw.Reports[i], sum.Runs[i]
	}

	acc := &sum.Acceptance
	oneX, _ := report(1, "affinity", "")
	acc.OneXP95DeltaSeconds = oneX.Overall.P95 - reps[0].Overall.P95
	acc.OneXMatchesDisabled = oneX.Overall.P95 == reps[0].Overall.P95 && oneX.Makespan == reps[0].Makespan
	aff2x, _ := report(2, "affinity", "")
	lru2x, _ := report(2, "lru", "")
	acc.Affinity2xHitRate = aff2x.ExpertMem.HitRate()
	acc.LRU2xHitRate = lru2x.ExpertMem.HitRate()
	acc.Affinity2xP95 = aff2x.Overall.P95
	acc.LRU2xP95 = lru2x.Overall.P95
	acc.AffinityBeatsLRUAt2x = acc.Affinity2xHitRate > acc.LRU2xHitRate && acc.Affinity2xP95 < acc.LRU2xP95

	if memoryAware {
		delta := func(ratio float64) (hit, p95 float64) {
			_, m := report(ratio, "affinity", "memory-aware")
			_, c := report(ratio, "affinity", "")
			return m.HitRate - c.HitRate, m.P95 - c.P95
		}
		i := slot[memoryArm{1, "affinity", "memory-aware"}]
		mem1x, memPl1x := sw.Reports[i], opts[1+i].Calibration.Placement
		ma := &MemoryAwareSummary{
			OneXBitIdentical: memPl1x.Equal(cal.Placement) &&
				mem1x.Overall.P95 == oneX.Overall.P95 && mem1x.Makespan == oneX.Makespan,
		}
		ma.HitRateDelta2x, ma.P95Delta2xSeconds = delta(2)
		ma.BeatsCrossingOnlyAt2x = ma.HitRateDelta2x > 0 && ma.P95Delta2xSeconds < 0
		ma.HitRateDelta4x, ma.P95Delta4xSeconds = delta(4)
		sum.MemAware = ma
	}
	return sw, nil
}
