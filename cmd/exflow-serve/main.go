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
// With -drift the command serves the same two-phase traffic program twice,
// side by side (exflow.CompareDrift) — once with the static offline ExFlow
// placement and once with the adaptive controller — and reports how much of
// the static fleet's P95 regression the adaptive fleet recovers. It exits 1
// if the adaptive fleet completed no migration, since a drift run without
// one exercises no migration pause.
//
// With -oversub the command instead serves the same steady traffic under
// tiered expert-weight memory (exflow.SweepMemory) at oversubscription
// ratios 1x/1.5x/2x/4x for every cache policy, each ratio provisioned at 70%
// of its own probed capacity, plus a memory-disabled baseline. With -fleet
// it serves a warm / flash-crowd / recovery program under 2x
// oversubscription four times — no fleet tier, an inert fleet spec, a shared
// host-DRAM cache, and the autoscaler.
//
// Each mode writes a machine-readable summary to -json, whose default
// depends on the mode (see -help); the plain run writes none by default.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/moe"
	"repro/internal/obs"
	"repro/internal/scenario"
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
	load        = flag.Float64("load", 0.97, "offered load as a fraction of capacity: the calibrated memory-off knee, or under -memratio the memory tier's capacity probed over the warm era; -oversub defaults it to 0.7 of each ratio's probed capacity")
	warm        = flag.Float64("warm", 20, "seconds of in-distribution traffic")
	duration    = flag.Float64("duration", 40, "seconds of the main (drifted, with -drift) traffic era")
	decode      = flag.Int("decode", 32, "decode tokens per request")
	tilt        = flag.Float64("tilt", 8, "domain specialization of the checkpoint (1 = paper-faithful mild tilt)")
	strength    = flag.Float64("strength", 0.85, "synthetic affinity strength")
	seed        = flag.Uint64("seed", 7, "deterministic seed")
	workers     = flag.Int("solveworkers", 1, "placement-solver portfolio width (initial solve and live re-solves); deterministic for any fixed value, 1 = serial")
	solveLat    = flag.Float64("solvelat", 0, "simulated latency of a background re-solve in seconds; the fleet keeps serving while it runs (overlap, not pause)")
	jsonPath    = flag.String("json", "", "machine-readable summary path ('-' to skip the file); defaults to BENCH_serve.json with -drift, BENCH_expertmem.json with -oversub, BENCH_fleet.json with -fleet, BENCH_scenarios.json with -scenarios, and no file for the plain run")
	traceOut    = flag.String("traceout", "", "write a Chrome/Perfetto trace of the adaptive serving run to this path (chrome://tracing or ui.perfetto.dev)")
	traceSample = flag.Int("tracesample", 128, "keep 1-in-N of the high-volume trace events (fetch/evict/prefetch/admit); control-plane events are always kept. 0 records everything — under -memratio the ring then wraps and overwrites the oldest events, migrations included")
	metricsOut  = flag.String("metricsout", "", "write the adaptive run's metrics snapshot (counters/gauges/histograms JSON) to this path")
	decisionOut = flag.String("decisionlog", "", "write the adaptive run's controller decision log (human-readable) to this path")
)

// defaultJSON is each mode's -json path when the flag is not given; "-"
// writes no file.
var defaultJSON = map[string]string{
	"serve":     "-",
	"drift":     "BENCH_serve.json",
	"oversub":   "BENCH_expertmem.json",
	"fleet":     "BENCH_fleet.json",
	"scenarios": "BENCH_scenarios.json",
}

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "exflow-serve:", err)
		os.Exit(1)
	}
}

// run runs the selected mode and writes the summary it returns. A mode
// returns a nil summary with a failure, or its summary with either nil or a
// failed verdict (no migration under -drift, a failing scenario row); the
// summary is written before the verdict fails the command.
func run() error {
	given := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { given[f.Name] = true })
	mode, runMode := "serve", runServe
	switch {
	case *scenarios:
		mode, runMode = "scenarios", runScenarios
	case *oversub:
		mode, runMode = "oversub", runOversub
	case *fleetBench:
		mode, runMode = "fleet", runFleet
	case *drift:
		mode = "drift"
	}
	if mode == "oversub" && !given["load"] {
		// 0.97 targets the 1x knee and would pin every oversubscribed run
		// against its capacity estimate's noise.
		*load = 0.7
	}
	path := *jsonPath
	if !given["json"] {
		path = defaultJSON[mode]
	}

	var sys *exflow.System
	if mode != "scenarios" {
		// The matrix runs over its own fixed synthetic fixture; every other
		// mode serves the model the flags describe.
		mk, ok := models[*model]
		if !ok {
			return fmt.Errorf("unknown model %q", *model)
		}
		cfg := mk()
		if *layers > 0 {
			cfg.Layers = *layers
		}
		sys = exflow.NewSystem(exflow.SystemOptions{
			Model: cfg, GPUs: *gpus, AffinityStrength: *strength, DomainTilt: *tilt,
			SolveWorkers: *workers, Seed: *seed,
		})
	}
	sum, verdict := runMode(sys)
	if sum == nil || path == "-" {
		return verdict
	}
	blob, err := json.MarshalIndent(sum, "", "  ")
	if err == nil {
		err = obs.WriteFileAtomic(path, append(blob, '\n'))
	}
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return verdict
}

// runServe serves the steady program adaptively or, with -drift, compares
// static and adaptive placement over a warm era and a viral drift era. The
// observability sinks record the adaptive run.
func runServe(sys *exflow.System) (any, error) {
	fmt.Printf("serving %s x%d replicas, %s arrivals at %.0f%% of capacity\n",
		sys.Model.Cfg.String(), *replicas, *arrival, *load*100)

	phases := []exflow.ServePhase{{Name: "steady", Duration: *warm + *duration, Arrival: *arrival}}
	if *drift {
		phases = []exflow.ServePhase{
			{Name: "warm", Duration: *warm, Arrival: *arrival},
			{Name: "drift", Duration: *duration, Arrival: *arrival, Dataset: exflow.ViralDataset()},
		}
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
	// Calibrate once (profiling + 6 timing-only engine runs) and share it
	// across the arms.
	cal, err := exflow.CalibrateServe(sys, base)
	if err != nil {
		return nil, err
	}
	base.Calibration = cal
	if *memRatio > 0 {
		// The calibrated knee is the memory-off capacity, far above what the
		// memory tier sustains: offer -load of the tier's probed capacity.
		capTok, err := exflow.ProbeMemoryCapacity(sys, base, *memRatio, *warm)
		if err != nil {
			return nil, err
		}
		for i := range phases {
			phases[i].Rate = *load * capTok / float64(*decode)
		}
	}
	if *traceOut != "" {
		// 4x the library's default ring: a -memratio run emits memory
		// traffic from every GPU and the whole point of the export is seeing
		// the rare control-plane spans next to it.
		base.Trace = obs.NewTracer(obs.TracerOptions{Cap: 1 << 20, Sample: *traceSample})
	}
	if *metricsOut != "" {
		base.Metrics = obs.NewRegistry()
	}
	if *decisionOut != "" {
		base.Decisions = obs.NewDecisionLog(0)
	}

	var sum exflow.ServeSummary
	if *drift {
		cmp, err := exflow.CompareDrift(sys, base)
		if err != nil {
			return nil, err
		}
		printDrift(cmp)
		sum = cmp.Summary
	} else {
		base.Adaptive = true
		rep, _, err := exflow.Serve(sys, base)
		if err != nil {
			return nil, err
		}
		fmt.Print(rep.String())
		sum = exflow.SummarizeServe(sys, base, rep, *warm+*duration/2, *warm+*duration)
	}
	if err := writeExports(base); err != nil {
		return nil, err
	}
	if *drift && len(sum.Adaptive.Migrations) == 0 {
		return sum, errors.New("the adaptive fleet completed no migration under drift")
	}
	return sum, nil
}

// printDrift prints both arms' reports, their P95 time series and the
// recovery verdict.
func printDrift(cmp *exflow.DriftComparison) {
	st, ad, s := cmp.Static, cmp.Adaptive, cmp.Summary
	fmt.Println("\n--- static placement (offline ExFlow, never re-placed) ---")
	fmt.Print(st.String())
	fmt.Println("\n--- adaptive placement (drift detection + live re-placement) ---")
	fmt.Print(ad.String())

	tb := stats.NewTable("P95 request latency (s) over time — the adaptive fleet migrates shortly after drift hits", "sim-seconds")
	tb.AddSeries(&stats.Series{Name: "static", X: st.LatencyP95.X, Y: st.LatencyP95.Y})
	tb.AddSeries(&stats.Series{Name: "adaptive", X: ad.LatencyP95.X, Y: ad.LatencyP95.Y})
	fmt.Println()
	fmt.Print(tb.Render())

	fmt.Printf("\nwarm P95 %.3fs | static tail P95 %.3fs | adaptive tail P95 %.3fs\n",
		s.WarmP95, s.Static.TailP95, s.Adaptive.TailP95)
	if cmp.Regressed {
		fmt.Printf("adaptive re-placement recovered %.0f%% of the P95 regression static ExFlow suffered under drift\n",
			s.RecoveryFraction*100)
	} else {
		fmt.Println("static placement did not measurably regress under this drift; nothing to recover")
	}
}

// writeExports writes the adaptive run's trace, metrics snapshot and
// decision log to the paths the flags name.
func writeExports(o exflow.ServeOptions) error {
	if o.Trace != nil {
		if err := obs.WritePerfetto(o.Trace, *traceOut); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d events recorded, %d emitted)\n", *traceOut, o.Trace.Len(), o.Trace.Emitted())
	}
	if o.Metrics != nil {
		blob, err := o.Metrics.Snapshot().MarshalIndentJSON()
		if err == nil {
			err = obs.WriteFileAtomic(*metricsOut, blob)
		}
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *metricsOut)
	}
	if o.Decisions != nil {
		if err := o.Decisions.WriteFile(*decisionOut); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d decisions)\n", *decisionOut, o.Decisions.Len())
	}
	return nil
}

// runOversub runs the tiered-memory sweep over the steady program and
// prints every cell and the acceptance lines.
func runOversub(sys *exflow.System) (any, error) {
	dur := *warm + *duration
	fmt.Printf("oversubscription sweep: %s on %d GPUs x%d replicas, %.0fs of %s traffic per run at %.0f%% of each ratio's capacity\n",
		sys.Model.Cfg.String(), *gpus, *replicas, dur, *arrival, *load*100)
	sw, err := exflow.SweepMemory(sys, exflow.ServeOptions{
		Replicas:     *replicas,
		DecodeTokens: *decode,
		Phases:       []exflow.ServePhase{{Name: "steady", Duration: dur, Arrival: *arrival}},
		SolveSeconds: *solveLat,
		SolveWorkers: *workers,
		HostSlots:    *hostSlots,
		Seed:         *seed,
	}, *load, *memaware)
	if err != nil {
		return nil, err
	}

	s := sw.Summary
	fmt.Printf("memory disabled: P95 %.4fs at %.1f req/s\n", s.DisabledP95, sw.DisabledRPS)
	for _, r := range s.Runs {
		label := r.Policy
		if r.Placement != "" {
			label += "+" + r.Placement
		}
		fmt.Printf("  %.1fx %-17s hit %5.1f%%  P95 %8.4fs  stall/token %.3fms  (%.1f req/s offered)\n",
			r.Ratio, label, r.HitRate*100, r.P95, r.StallPerToken*1e3, r.OfferedRPS)
	}
	a := s.Acceptance
	fmt.Printf("\n1x vs disabled: P95 delta %+.6fs (exact match: %v)\n", a.OneXP95DeltaSeconds, a.OneXMatchesDisabled)
	fmt.Printf("2x acceptance: affinity hit %.1f%% vs lru %.1f%%, P95 %.4fs vs %.4fs -> beats lru: %v\n",
		a.Affinity2xHitRate*100, a.LRU2xHitRate*100, a.Affinity2xP95, a.LRU2xP95, a.AffinityBeatsLRUAt2x)
	if ma := s.MemAware; ma != nil {
		fmt.Printf("memory-aware placement: 1x bit-identical to crossing-only: %v\n", ma.OneXBitIdentical)
		fmt.Printf("memory-aware vs crossing-only at 2x: hit %+.1fpp, P95 %+.4fs -> beats crossing-only: %v\n",
			ma.HitRateDelta2x*100, ma.P95Delta2xSeconds, ma.BeatsCrossingOnlyAt2x)
		fmt.Printf("memory-aware vs crossing-only at 4x: hit %+.1fpp, P95 %+.4fs\n",
			ma.HitRateDelta4x*100, ma.P95Delta4xSeconds)
	}
	return s, nil
}

// runScenarios drives the declarative chaos scenario matrix
// (internal/scenario) over its own fixed synthetic fixture (no engine, no
// model preset): the rows exist to gate fault-handling invariants, not to
// benchmark a particular checkpoint. A failing row fails the command, so CI
// can run this directly.
func runScenarios(*exflow.System) (any, error) {
	fmt.Printf("chaos scenario matrix: %s scale, seed %d\n", *scale, *seed)
	sum, err := scenario.RunAll(scenario.Config{Seed: *seed, Scale: *scale})
	if err != nil {
		return nil, err
	}
	for _, r := range sum.Scenarios {
		status := "PASS"
		if !r.Pass {
			status = "FAIL"
		}
		fmt.Printf("  %-4s %-26s %-7s %-3s %s\n", status, r.ID, r.Category, r.Priority, r.Notes)
	}
	if !sum.AllPass {
		return sum, errors.New("scenario matrix failed its gates")
	}
	return sum, nil
}
