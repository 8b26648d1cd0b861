// Command exflow-serve runs the online serving subsystem: a multi-replica
// continuous-batching fleet over the simulated cluster, with live
// routing-drift detection and (adaptive mode) background expert
// re-placement.
//
//	exflow-serve                    # steady in-distribution serving
//	exflow-serve -drift             # mid-run dataset drift: static vs adaptive
//	exflow-serve -drift -arrival bursty -load 0.95 -gpus 32
//	exflow-serve -oversub           # tiered expert memory: policy x ratio sweep
//	exflow-serve -fleet             # fleet tier under a flash crowd
//	exflow-serve -scenarios         # chaos scenario matrix with pass/fail gates
//
// With -drift the command serves the same two-phase traffic program twice —
// once with the static offline ExFlow placement and once with the adaptive
// controller — and reports how much of the static fleet's P95 regression the
// adaptive fleet recovers. A machine-readable summary is written to the
// -json path (default BENCH_serve.json, "-" for stdout only); the command
// then exits 1 if the adaptive fleet completed no migration, since a drift
// run without one exercises no migration pause.
//
// With -oversub the command instead serves the same steady traffic under
// tiered expert-weight memory (internal/expertmem) at oversubscription
// ratios 1x/1.5x/2x/4x for every cache policy (lru, lfu, pin, affinity;
// 1x runs once since every expert is resident and the policy cannot act),
// each ratio provisioned at 70% of its own probed capacity, plus a
// memory-disabled baseline. The sweep arms run concurrently (one goroutine
// per arm, each with a deterministic per-ratio seed) and the results are
// sorted before writing, so the JSON is byte-identical regardless of which
// arm finishes first. The summary lands in BENCH_expertmem.json.
//
// With -fleet the command serves a warm / flash-crowd / recovery program
// under 2x oversubscription four times — no fleet tier, an inert fleet
// spec, a shared host-DRAM cache, and the autoscaler — and writes
// BENCH_fleet.json (schema/fleet.schema.json).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"

	"repro"
	"repro/internal/expertmem"
	"repro/internal/moe"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/stats"
)

var models = map[string]func() moe.Config{
	"gptm-8":   func() moe.Config { return moe.GPTM(8) },
	"gptm-16":  func() moe.Config { return moe.GPTM(16) },
	"gptm-32":  func() moe.Config { return moe.GPTM(32) },
	"gptm-64":  func() moe.Config { return moe.GPTM(64) },
	"gptm-32l": moe.GPTM32L,
	"gptm-40l": moe.GPTM40L,
	"gptxl":    moe.GPTXL,
}

// phaseJSON / migrationJSON / summaryJSON shape the machine-readable output.
type phaseJSON struct {
	Name       string  `json:"name"`
	Requests   int     `json:"requests"`
	P50        float64 `json:"p50_s"`
	P95        float64 `json:"p95_s"`
	P99        float64 `json:"p99_s"`
	Throughput float64 `json:"tokens_per_sec"`
}

type migrationJSON struct {
	Time          float64 `json:"time_s"`
	Score         float64 `json:"drift_score"`
	Moves         int     `json:"moves"`
	CrossNode     int     `json:"cross_node_moves"`
	PauseSeconds  float64 `json:"pause_s_per_replica"`
	PredictedGain float64 `json:"predicted_per_token_gain"`
}

type runJSON struct {
	Phases     []phaseJSON     `json:"phases"`
	TailP95    float64         `json:"tail_p95_s"`
	Migrations []migrationJSON `json:"migrations,omitempty"`
}

type summaryJSON struct {
	Model            string   `json:"model"`
	Layers           int      `json:"layers"`
	GPUs             int      `json:"gpus"`
	Replicas         int      `json:"replicas"`
	LoadFrac         float64  `json:"load_frac"`
	Seed             uint64   `json:"seed"`
	TokenCapacity    float64  `json:"token_capacity_per_replica"`
	CostFixedUS      float64  `json:"cost_fixed_us"`
	CostPerTokenUS   float64  `json:"cost_per_token_us"`
	CostCrossHopUS   float64  `json:"cost_cross_hop_us"`
	Drift            bool     `json:"drift"`
	Static           *runJSON `json:"static,omitempty"`
	Adaptive         *runJSON `json:"adaptive"`
	WarmP95          float64  `json:"warm_p95_s"`
	RecoveryFraction float64  `json:"recovery_fraction"`
}

func toRunJSON(rep *exflow.ServeReport, t0, t1 float64) *runJSON {
	out := &runJSON{TailP95: rep.WindowStats(t0, t1).P95}
	for _, p := range rep.Phases {
		out.Phases = append(out.Phases, phaseJSON{
			Name: p.Name, Requests: p.Requests, P50: p.P50, P95: p.P95, P99: p.P99, Throughput: p.Throughput,
		})
	}
	for _, m := range rep.Migrations {
		out.Migrations = append(out.Migrations, migrationJSON{
			Time: m.Time, Score: m.Score, Moves: m.Moves, CrossNode: m.CrossNodeMoves,
			PauseSeconds: m.Seconds, PredictedGain: m.PredictedGain,
		})
	}
	return out
}

func main() {
	var (
		model       = flag.String("model", "gptm-32", "model preset: gptm-8/16/32/64, gptm-32l, gptm-40l, gptxl")
		layers      = flag.Int("layers", 16, "MoE layer count override; the 16-layer default keeps the demo fast — pass 0 to use the model preset's full depth")
		gpus        = flag.Int("gpus", 16, "expert-parallel group size per replica")
		replicas    = flag.Int("replicas", 2, "replica count behind the front-end")
		drift       = flag.Bool("drift", false, "inject a mid-run dataset drift and compare static vs adaptive")
		oversub     = flag.Bool("oversub", false, "sweep tiered expert-weight memory: cache policies x oversubscription ratios, write BENCH_expertmem.json")
		fleetBench  = flag.Bool("fleet", false, "drive the fleet tier through a flash crowd: shared host cache vs independent, autoscaler on/off; write BENCH_fleet.json")
		scenarios   = flag.Bool("scenarios", false, "run the declarative chaos scenario matrix (crash/recovery, degraded links, retry exhaustion, autoscaler faults) with per-row pass/fail gates; write BENCH_scenarios.json and exit nonzero on any failing row")
		scale       = flag.String("scale", "bench", "with -scenarios: matrix scale, smoke (short eras, loose recovery gates — the CI quick pass) | bench (the checked-in matrix, tight gates)")
		memaware    = flag.Bool("memaware", false, "with -oversub: add a memory-aware-placement arm per ratio (expert-stall cost folded into the solver objective) and compare against crossing-only")
		hostSlots   = flag.Int("hostslots", 0, "with -oversub: bound host-DRAM expert master copies per replica; coldest experts fall to NVMe (0 = all fit in DRAM)")
		memRatio    = flag.Float64("memratio", 0, "serve the steady/-drift program under tiered expert memory at this oversubscription ratio (0 = memory layer off; ignored by -oversub, which sweeps its own ratios) — expert-stall and fetch spans then appear in -traceout")
		arrival     = flag.String("arrival", "poisson", "arrival process: poisson | bursty | diurnal")
		load        = flag.Float64("load", 0.97, "offered load as a fraction of the calibrated capacity knee")
		warm        = flag.Float64("warm", 20, "seconds of in-distribution traffic")
		duration    = flag.Float64("duration", 40, "seconds of the main (drifted, with -drift) traffic era")
		decode      = flag.Int("decode", 32, "decode tokens per request")
		tilt        = flag.Float64("tilt", 8, "domain specialization of the checkpoint (1 = paper-faithful mild tilt)")
		strength    = flag.Float64("strength", 0.85, "synthetic affinity strength")
		seed        = flag.Uint64("seed", 7, "deterministic seed")
		workers     = flag.Int("solveworkers", 1, "placement-solver portfolio width (initial solve and live re-solves); deterministic for any fixed value, 1 = serial")
		solveLat    = flag.Float64("solvelat", 0, "simulated latency of a background re-solve in seconds; the fleet keeps serving while it runs (overlap, not pause)")
		jsonPath    = flag.String("json", "BENCH_serve.json", "machine-readable summary path ('-' to skip the file)")
		traceOut    = flag.String("traceout", "", "write a Chrome/Perfetto trace of the adaptive serving run to this path (chrome://tracing or ui.perfetto.dev)")
		traceSample = flag.Int("tracesample", 128, "keep 1-in-N of the high-volume trace events (fetch/evict/prefetch/admit); control-plane events are always kept. 0 records everything — under -memratio the ring then wraps and overwrites the oldest events, migrations included")
		metricsOut  = flag.String("metricsout", "", "write the adaptive run's metrics snapshot (counters/gauges/histograms JSON) to this path")
		decisionOut = flag.String("decisionlog", "", "write the adaptive run's controller decision log (human-readable) to this path")
	)
	flag.Parse()

	if *scenarios {
		// The matrix runs over its own fixed synthetic fixture (no engine,
		// no model preset): the rows exist to gate fault-handling invariants,
		// not to benchmark a particular checkpoint. -json defaults to
		// BENCH_scenarios.json here, honoring an explicit value.
		path := "BENCH_scenarios.json"
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "json" {
				path = *jsonPath
			}
		})
		runScenarioMatrix(*scale, *seed, path)
		return
	}

	mk, ok := models[*model]
	if !ok {
		fmt.Fprintf(os.Stderr, "exflow-serve: unknown model %q\n", *model)
		os.Exit(1)
	}
	cfg := mk()
	if *layers > 0 {
		cfg.Layers = *layers
	}
	sys := exflow.NewSystem(exflow.SystemOptions{
		Model: cfg, GPUs: *gpus, AffinityStrength: *strength, DomainTilt: *tilt,
		SolveWorkers: *workers, Seed: *seed,
	})
	if *oversub {
		// Two flags have oversub-specific defaults but honor explicit
		// values: -json defaults to BENCH_expertmem.json (not the drift
		// demo's file), and -load defaults to 0.7 because its 0.97 default
		// targets the 1x knee and would pin every oversubscribed run
		// against its capacity estimate's noise.
		path := "BENCH_expertmem.json"
		provision := 0.7
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "json":
				path = *jsonPath
			case "load":
				provision = *load
			}
		})
		runOversubSweep(sys, cfg, oversubConfig{
			gpus: *gpus, replicas: *replicas, decode: *decode, hostSlots: *hostSlots,
			seed: *seed, dur: *warm + *duration, arrival: *arrival, provision: provision,
			jsonPath: path, memaware: *memaware,
			solveWorkers: *workers, solveLat: *solveLat,
		})
		return
	}
	if *fleetBench {
		// -json defaults to BENCH_fleet.json here, honoring an explicit value.
		path := "BENCH_fleet.json"
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "json" {
				path = *jsonPath
			}
		})
		runFleetBench(sys, cfg, fleetConfig{
			gpus: *gpus, replicas: *replicas, decode: *decode, seed: *seed,
			warm: *warm, duration: *duration, arrival: *arrival,
			solveWorkers: *workers, jsonPath: path,
		})
		return
	}
	fmt.Printf("serving %s x%d replicas, %s arrivals at %.0f%% of capacity\n",
		cfg.String(), *replicas, *arrival, *load*100)

	phases := []exflow.ServePhase{{Name: "warm", Duration: *warm, Arrival: *arrival}}
	if *drift {
		phases = append(phases, exflow.ServePhase{
			Name: "drift", Duration: *duration, Arrival: *arrival, Dataset: exflow.ViralDataset(),
		})
	} else {
		phases[0].Duration = *warm + *duration
		phases[0].Name = "steady"
	}
	base := exflow.ServeOptions{
		Replicas:         *replicas,
		DecodeTokens:     *decode,
		LoadFrac:         *load,
		Phases:           phases,
		SolveSeconds:     *solveLat,
		SolveWorkers:     *workers,
		Oversubscription: *memRatio,
		HostSlots:        *hostSlots,
		LatencyBucket:    (*warm + *duration) / 80,
	}

	// Observability sinks, attached to the adaptive run only: the static arm
	// of a -drift comparison exists as a baseline, and the adaptive run is
	// where migrations, solve overlap, and stalls actually happen.
	var (
		tracer    *obs.Tracer
		registry  *obs.Registry
		decisions *obs.DecisionLog
	)
	if *traceOut != "" {
		// 4x the library's default ring: a -memratio run emits memory traffic
		// from every GPU and the whole point of the export is seeing the rare
		// control-plane spans next to it.
		tracer = obs.NewTracer(obs.TracerOptions{Cap: 1 << 20, Sample: *traceSample})
	}
	if *metricsOut != "" {
		registry = obs.NewRegistry()
	}
	if *decisionOut != "" {
		decisions = obs.NewDecisionLog(0)
	}
	// Calibrate once (profiling + ~6 real engine runs) and share it across
	// the static and adaptive fleets.
	cal, err := exflow.CalibrateServe(sys, base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "exflow-serve:", err)
		os.Exit(1)
	}
	base.Calibration = cal

	run := func(adaptive bool) (*exflow.ServeReport, *exflow.ServeMetrics) {
		o := base
		o.Adaptive = adaptive
		if adaptive {
			o.Trace, o.Metrics, o.Decisions = tracer, registry, decisions
		}
		rep, met, err := exflow.Serve(sys, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "exflow-serve:", err)
			os.Exit(1)
		}
		return rep, met
	}

	tail0, tail1 := *warm+*duration/2, *warm+*duration
	sum := summaryJSON{
		Model: cfg.Name, Layers: cfg.Layers, GPUs: *gpus, Replicas: *replicas,
		LoadFrac: *load, Seed: *seed, Drift: *drift,
	}

	if !*drift {
		rep, met := run(true)
		fillMetrics(&sum, met)
		sum.Adaptive = toRunJSON(rep, tail0, tail1)
		sum.WarmP95 = rep.Phases[0].P95
		fmt.Print(rep.String())
	} else {
		fmt.Println("\n--- static placement (offline ExFlow, never re-placed) ---")
		st, met := run(false)
		fillMetrics(&sum, met)
		fmt.Print(st.String())
		fmt.Println("\n--- adaptive placement (drift detection + live re-placement) ---")
		ad, _ := run(true)
		fmt.Print(ad.String())

		tb := stats.NewTable("P95 request latency (s) over time — the adaptive fleet migrates shortly after drift hits", "sim-seconds")
		addSeries(tb, st.LatencyP95, "static")
		addSeries(tb, ad.LatencyP95, "adaptive")
		fmt.Println()
		fmt.Print(tb.Render())

		sum.Static = toRunJSON(st, tail0, tail1)
		sum.Adaptive = toRunJSON(ad, tail0, tail1)
		sum.WarmP95 = st.Phases[0].P95
		// A regression below 5% of the warm P95 is measurement noise; leave
		// the recovery fraction at 0 rather than dividing by it.
		reg := sum.Static.TailP95 - sum.WarmP95
		measurable := reg > 0.05*sum.WarmP95
		if measurable {
			sum.RecoveryFraction = (sum.Static.TailP95 - sum.Adaptive.TailP95) / reg
		}
		fmt.Printf("\nwarm P95 %.3fs | static tail P95 %.3fs | adaptive tail P95 %.3fs\n",
			sum.WarmP95, sum.Static.TailP95, sum.Adaptive.TailP95)
		if measurable {
			fmt.Printf("adaptive re-placement recovered %.0f%% of the P95 regression static ExFlow suffered under drift\n",
				sum.RecoveryFraction*100)
		} else {
			fmt.Println("static placement did not measurably regress under this drift; nothing to recover")
		}
	}

	if tracer != nil {
		if err := obs.WritePerfetto(tracer, *traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "exflow-serve:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d events recorded, %d emitted)\n", *traceOut, tracer.Len(), tracer.Emitted())
	}
	if registry != nil {
		blob, err := registry.Snapshot().MarshalIndentJSON()
		if err == nil {
			err = obs.WriteFileAtomic(*metricsOut, blob)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "exflow-serve:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *metricsOut)
	}
	if decisions != nil {
		if err := decisions.WriteFile(*decisionOut); err != nil {
			fmt.Fprintln(os.Stderr, "exflow-serve:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d decisions)\n", *decisionOut, decisions.Len())
	}

	if *jsonPath != "-" {
		blob, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "exflow-serve:", err)
			os.Exit(1)
		}
		if err := obs.WriteFileAtomic(*jsonPath, append(blob, '\n')); err != nil {
			fmt.Fprintln(os.Stderr, "exflow-serve:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	if *drift && len(sum.Adaptive.Migrations) == 0 {
		fmt.Fprintln(os.Stderr, "exflow-serve: the adaptive fleet completed no migration under drift")
		os.Exit(1)
	}
}

// fillMetrics copies calibration numbers into the summary.
func fillMetrics(sum *summaryJSON, met *exflow.ServeMetrics) {
	sum.TokenCapacity = met.TokenCapacity
	sum.CostFixedUS = met.Cost.Fixed * 1e6
	sum.CostPerTokenUS = met.Cost.PerToken * 1e6
	sum.CostCrossHopUS = met.Cost.PerCrossHop * 1e6
}

// addSeries registers a report series on a table under a new name.
func addSeries(tb *stats.Table, s *stats.Series, name string) {
	c := tb.NewSeries(name)
	c.X = append(c.X, s.X...)
	c.Y = append(c.Y, s.Y...)
}

// memRunJSON is one cell of the oversubscription sweep. Placement is empty
// for the crossing-only solver and "memory-aware" for the -memaware arm.
type memRunJSON struct {
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

// memSummaryJSON is the BENCH_expertmem.json shape.
type memSummaryJSON struct {
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

	Runs []memRunJSON `json:"runs"`

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
	// (affinity policy, identical offered rate); present with -memaware.
	MemAware *memAwareJSON `json:"memaware,omitempty"`
}

// memAwareJSON summarizes the -memaware arm.
type memAwareJSON struct {
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

// oversubConfig carries the sweep's knobs from the flag set.
type oversubConfig struct {
	gpus, replicas, decode, hostSlots int
	seed                              uint64
	dur, provision                    float64
	arrival, jsonPath                 string
	memaware                          bool
	solveWorkers                      int
	solveLat                          float64
}

// sweepArm is one finished cell of the oversubscription sweep.
type sweepArm struct {
	ratioIdx  int // -1 for the memory-disabled baseline
	ratio     float64
	policy    string
	placement string // "" or "memory-aware"
	rate      float64
	rep       *exflow.ServeReport
	memPl     *placement.Placement // the memory-aware solve's placement (memaware arms)
}

// runOversubSweep serves steady traffic under tiered expert-weight memory
// for every (cache policy, oversubscription ratio) cell plus a
// memory-disabled baseline, and writes the machine-readable summary. The
// arms are independent simulations sharing only read-only state (system,
// calibration), so they fan out across goroutines — one per ratio for the
// capacity probe, then one per (policy, placement) cell — with a
// deterministic per-ratio seed (the memory-disabled baseline shares the 1x
// arm's seed so the bit-identity acceptance compares identical arrival
// streams). Results are collected and sorted by (ratio, policy, placement)
// before printing and writing, so the output is byte-identical no matter
// which arm finishes first.
func runOversubSweep(sys *exflow.System, cfg moe.Config, oc oversubConfig) {
	gpus, replicas, decode, hostSlots := oc.gpus, oc.replicas, oc.decode, oc.hostSlots
	seed, dur, jsonPath := oc.seed, oc.dur, oc.jsonPath
	fmt.Printf("oversubscription sweep: %s on %d GPUs x%d replicas, %.0fs of %s traffic per run at %.0f%% of each ratio's capacity\n",
		cfg.String(), gpus, replicas, dur, oc.arrival, oc.provision*100)
	// HostSlots stays out of base: base also drives calibration and the
	// memory-disabled baseline, where a host-DRAM bound without the memory
	// layer is rejected. runWith applies it to every oversubscribed arm.
	base := exflow.ServeOptions{
		Replicas:      replicas,
		DecodeTokens:  decode,
		SolveSeconds:  oc.solveLat,
		SolveWorkers:  oc.solveWorkers,
		LatencyBucket: dur / 80,
		Seed:          seed,
	}
	cal, err := exflow.CalibrateServe(sys, base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "exflow-serve:", err)
		os.Exit(1)
	}
	base.Calibration = cal

	expertBytes := float64(cfg.ExpertParams()) * 2
	sum := memSummaryJSON{
		Model: cfg.Name, Layers: cfg.Layers, GPUs: gpus, Replicas: replicas, Seed: seed,
		Arrival: oc.arrival, Provision: oc.provision,
		ExpertMB:        expertBytes / (1 << 20),
		WeightsPerGPUGB: expertBytes * float64(cfg.Layers*cfg.Experts/gpus) / 1e9,
		HBMPerGPUGB:     float64(sys.Topo.HBMCapacity()) / 1e9,
	}

	// armSeed derives the per-ratio arm seed. Every policy at a ratio (and
	// the memaware arm) shares it, so cross-policy and placement
	// comparisons at that ratio see the identical arrival stream.
	armSeed := func(ratioIdx int) uint64 { return rng.Mix64(seed, 0x0A53, uint64(ratioIdx)) }

	runWith := func(ratio float64, policy string, rate float64, c *exflow.ServeCalibration, aware bool, armSeed uint64) (*exflow.ServeReport, error) {
		o := base
		o.Calibration = c
		o.Oversubscription = ratio
		o.CachePolicy = policy
		o.MemoryAware = aware
		if ratio > 0 {
			o.HostSlots = hostSlots
		}
		o.Seed = armSeed
		o.Phases = []exflow.ServePhase{{Name: "steady", Duration: dur, Rate: rate, Arrival: oc.arrival}}
		rep, _, err := exflow.Serve(sys, o)
		return rep, err
	}

	baseRate := oc.provision * cal.Metrics.RequestCapacity

	var (
		mu   sync.Mutex
		arms []sweepArm
		errs []error
	)
	collect := func(a sweepArm, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			errs = append(errs, err)
			return
		}
		arms = append(arms, a)
	}

	var wg sync.WaitGroup
	// The memory-disabled baseline rides the 1x arm's seed: the 1x
	// acceptance check asserts bitwise-equal outcomes, which only means
	// something when both runs saw the same arrivals.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rep, err := runWith(0, "", baseRate, cal, false, armSeed(0))
		collect(sweepArm{ratioIdx: -1, rate: baseRate, rep: rep}, err)
	}()
	for i, ratio := range exflow.MemorySweepRatios {
		wg.Add(1)
		go func(i int, ratio float64) {
			defer wg.Done()
			rate := baseRate
			policies := expertmem.PolicyNames()
			if ratio == 1 {
				// At 1x every expert is resident, so the policy can never
				// act: one run stands for all of them.
				policies = []string{"affinity"}
			} else {
				probeBase := base
				probeBase.HostSlots = hostSlots
				capTok, err := exflow.ProbeMemoryCapacity(sys, probeBase, ratio, dur/2)
				if err != nil {
					collect(sweepArm{}, err)
					return
				}
				rate = oc.provision * capTok / float64(decode)
			}
			var pwg sync.WaitGroup
			for _, policy := range policies {
				pwg.Add(1)
				go func(policy string) {
					defer pwg.Done()
					rep, err := runWith(ratio, policy, rate, cal, false, armSeed(i))
					collect(sweepArm{ratioIdx: i, ratio: ratio, policy: policy, rate: rate, rep: rep}, err)
				}(policy)
			}
			if oc.memaware {
				// The memory-aware arm: same policy, same offered rate, but
				// the placement was solved with the expert-stall term in
				// the objective. At 1x the term is inactive and the solve
				// must be bit-identical to the crossing-only one.
				pwg.Add(1)
				go func() {
					defer pwg.Done()
					memPl := sys.SolvePlacementMemoryAware(cal.Trace, ratio, "affinity", 0, oc.hostSlots)
					calMem := *cal
					calMem.Placement = memPl
					rep, err := runWith(ratio, "affinity", rate, &calMem, true, armSeed(i))
					collect(sweepArm{ratioIdx: i, ratio: ratio, policy: "affinity", placement: "memory-aware",
						rate: rate, rep: rep, memPl: memPl}, err)
				}()
			}
			pwg.Wait()
		}(i, ratio)
	}
	wg.Wait()
	if len(errs) > 0 {
		// Arms fail independently; report every error, not just the first
		// collected (whose identity depends on goroutine scheduling).
		for _, err := range errs {
			fmt.Fprintln(os.Stderr, "exflow-serve:", err)
		}
		os.Exit(1)
	}

	// Deterministic order regardless of completion order: baseline first,
	// then (ratio, policy, placement) ascending.
	sort.Slice(arms, func(a, b int) bool {
		x, y := arms[a], arms[b]
		if x.ratio != y.ratio {
			return x.ratio < y.ratio
		}
		if x.policy != y.policy {
			return x.policy < y.policy
		}
		return x.placement < y.placement
	})

	record := func(a sweepArm) float64 {
		rep := a.rep
		em := rep.ExpertMem
		hit := em.EffectiveHitRate()
		sum.Runs = append(sum.Runs, memRunJSON{
			Ratio: a.ratio, Policy: a.policy, Placement: a.placement, OfferedRPS: a.rate,
			HitRate: hit, LateHits: em.LateHits, Misses: em.Misses,
			Prefetches: em.Prefetches, PrefetchHits: em.PrefetchHits, WastedPrefetches: em.WastedPrefetches,
			StallPerToken: rep.MemStallSeconds / float64(rep.Tokens), AccessStallTotal: em.StallSeconds,
			P50: rep.Overall.P50, P95: rep.Overall.P95, P99: rep.Overall.P99,
			Throughput: rep.Overall.Throughput,
		})
		label := a.policy
		if a.placement != "" {
			label += "+" + a.placement
		}
		fmt.Printf("  %.1fx %-17s hit %5.1f%%  P95 %8.4fs  stall/token %.3fms  (%.1f req/s offered)\n",
			a.ratio, label, hit*100, rep.Overall.P95, rep.MemStallSeconds/float64(rep.Tokens)*1e3, a.rate)
		return hit
	}

	var disabled, oneX, lru2x, aff2x *exflow.ServeReport
	affHit := map[float64]float64{}
	affRep := map[float64]*exflow.ServeReport{}
	memHit := map[float64]float64{}
	memRep := map[float64]*exflow.ServeReport{}
	memOneXIdentical := false
	var memPl1x *placement.Placement
	for _, a := range arms {
		if a.ratioIdx == -1 {
			disabled = a.rep
			sum.DisabledP95 = a.rep.Overall.P95
			fmt.Printf("memory disabled: P95 %.4fs at %.1f req/s\n", a.rep.Overall.P95, a.rate)
		}
	}
	for _, a := range arms {
		if a.ratioIdx == -1 {
			continue
		}
		hit := record(a)
		if a.placement == "memory-aware" {
			memHit[a.ratio], memRep[a.ratio] = hit, a.rep
			if a.ratio == 1 {
				memPl1x = a.memPl
			}
			continue
		}
		if a.policy == "affinity" {
			affHit[a.ratio], affRep[a.ratio] = hit, a.rep
		}
		switch {
		case a.ratio == 1 && a.policy == "affinity":
			oneX = a.rep
		case a.ratio == 2 && a.policy == "lru":
			lru2x = a.rep
		case a.ratio == 2 && a.policy == "affinity":
			aff2x = a.rep
		}
	}
	if oc.memaware && memPl1x != nil && memRep[1] != nil && affRep[1] != nil {
		memOneXIdentical = memPl1x.Equal(cal.Placement) &&
			memRep[1].Overall.P95 == affRep[1].Overall.P95 && memRep[1].Makespan == affRep[1].Makespan
	}

	a := &sum.Acceptance
	if oneX != nil {
		a.OneXP95DeltaSeconds = oneX.Overall.P95 - disabled.Overall.P95
		a.OneXMatchesDisabled = oneX.Overall.P95 == disabled.Overall.P95 && oneX.Makespan == disabled.Makespan
	}
	if lru2x != nil && aff2x != nil {
		a.Affinity2xHitRate = aff2x.ExpertMem.HitRate()
		a.LRU2xHitRate = lru2x.ExpertMem.HitRate()
		a.Affinity2xP95 = aff2x.Overall.P95
		a.LRU2xP95 = lru2x.Overall.P95
		a.AffinityBeatsLRUAt2x = a.Affinity2xHitRate > a.LRU2xHitRate && a.Affinity2xP95 < a.LRU2xP95
	}
	fmt.Printf("\n1x vs disabled: P95 delta %+.6fs (exact match: %v)\n", a.OneXP95DeltaSeconds, a.OneXMatchesDisabled)
	fmt.Printf("2x acceptance: affinity hit %.1f%% vs lru %.1f%%, P95 %.4fs vs %.4fs -> beats lru: %v\n",
		a.Affinity2xHitRate*100, a.LRU2xHitRate*100, a.Affinity2xP95, a.LRU2xP95, a.AffinityBeatsLRUAt2x)

	if oc.memaware {
		ma := &memAwareJSON{OneXBitIdentical: memOneXIdentical}
		if m, c := memRep[2], affRep[2]; m != nil && c != nil {
			ma.HitRateDelta2x = memHit[2] - affHit[2]
			ma.P95Delta2xSeconds = m.Overall.P95 - c.Overall.P95
			ma.BeatsCrossingOnlyAt2x = ma.HitRateDelta2x > 0 && ma.P95Delta2xSeconds < 0
		}
		if m, c := memRep[4], affRep[4]; m != nil && c != nil {
			ma.HitRateDelta4x = memHit[4] - affHit[4]
			ma.P95Delta4xSeconds = m.Overall.P95 - c.Overall.P95
		}
		sum.MemAware = ma
		fmt.Printf("memory-aware placement: 1x bit-identical to crossing-only: %v\n", ma.OneXBitIdentical)
		fmt.Printf("memory-aware vs crossing-only at 2x: hit %+.1fpp, P95 %+.4fs -> beats crossing-only: %v\n",
			ma.HitRateDelta2x*100, ma.P95Delta2xSeconds, ma.BeatsCrossingOnlyAt2x)
		fmt.Printf("memory-aware vs crossing-only at 4x: hit %+.1fpp, P95 %+.4fs\n",
			ma.HitRateDelta4x*100, ma.P95Delta4xSeconds)
	}

	if jsonPath != "-" {
		blob, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "exflow-serve:", err)
			os.Exit(1)
		}
		if err := obs.WriteFileAtomic(jsonPath, append(blob, '\n')); err != nil {
			fmt.Fprintln(os.Stderr, "exflow-serve:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
}
