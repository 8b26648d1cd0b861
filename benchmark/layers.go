package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"repro"
	"repro/internal/engine"
	"repro/internal/expertmem"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/trace"
)

const (
	// profileTokens is CalibrateServe's default profiling-trace length.
	profileTokens = 3000
	// tokenBase is serving's first token ordinal, past the profiling and
	// engine-evaluation streams (internal/serve's tokenOrdinalBase).
	tokenBase = 1 << 22
	// replayTokens is how many routed token paths the replays draw, and
	// replayPasses how many timed passes each replay takes the fastest of;
	// like the main run's repetitions, a pass only ever runs slow because of
	// interference.
	replayTokens = 20000
	replayPasses = 5
	// replayIters is how many decode iterations the expert-memory replay
	// walks.
	replayIters = 800
)

// measureLayers is the traced run's per-layer measurement: replays of each
// layer's public entry points, timed on the host clock and scaled by how
// often the main run calls them, plus the main Serve call once more with the
// obs tracer, registry and decision log attached.
func measureLayers(cfg config, sys *exflow.System, cal *exflow.ServeCalibration, main *mainRun, clock *hostClock,
	vanilla, exf *engine.Report, r *result, sp *spans, root int) error {
	p := &main.pool
	layers := sys.Model.Cfg.Layers
	// Replayed host times are reported at the reference host's speed, by the
	// run's probes so far.
	scale := clock.scale()
	setHost := func(name string, v float64) { r.set(name, v*scale) }

	// trace, placement and engine: the pieces of set-up, timed on their own.
	var tr *trace.Trace
	setHost("trace.profile_host_s", timeBest(sp, root, "setup.profile", func() { tr = sys.Profile(profileTokens) }))
	setHost("placement.solve_host_s", timeBest(sp, root, "setup.solve", func() { sys.SolvePlacement(tr) }))
	setHost("engine.run_host_s", timeBest(sp, root, "setup.engine_run", func() {
		sys.Run(engine.ExFlow, cal.Placement, exflow.Workload{RequestsPerGPU: 8, PromptLen: 8, GenerateTokens: 3})
	}))
	r.set("placement.crossings", cal.Placement.Crossings(tr.AllTransitionCounts()))
	r.set("placement.intra_node_frac", 1-cal.Metrics.FracCross)
	r.set("engine.exflow_tokens_per_s", exf.Throughput)
	r.set("engine.vanilla_tokens_per_s", vanilla.Throughput)
	r.set("engine.exflow_speedup", exf.Throughput/vanilla.Throughput)
	r.set("engine.alltoall_share", exf.AlltoallShare())

	cost := cal.Metrics.Cost
	r.set("workload.cost_fixed_us", cost.Fixed*1e6)
	r.set("workload.cost_per_token_us", cost.PerToken*1e6)
	r.set("workload.cost_cross_hop_us", cost.PerCrossHop*1e6)
	r.set("workload.token_capacity", cal.Metrics.TokenCapacity)

	// serve, controller and expertmem outcomes of the main run, over all
	// sub-runs.
	r.set("serve.iterations", float64(p.iterations))
	r.set("serve.mean_batch", float64(p.tokens)/float64(p.iterations))
	r.set("serve.saturated", b2f(p.saturated))
	r.set("serve.makespan_s", p.makespan)
	r.set("serve.cross_node_frac", p.crossFracSum/subRuns)
	setController(r, p)
	setExpertMem(r, p)

	// Replays. Each yields a host cost per call; calls x cost over the main
	// run's host time, at the same host speed, estimates the layer's share of
	// it.
	rp := sp.start("replay", root)
	paths, routeNS, routeAllocs := replayRoute(sys, cfg.w, sp, rp)
	pushNS, observeUS, window := replayWindow(sys, cal, paths, sp, rp)
	resolveS := replayResolve(sys, cal, cfg.w, window, sp, rp)
	stallUS := replayExpertMem(sys, cal, cfg.w, paths, float64(p.tokens)/float64(p.iterations), sp, rp)
	sp.stop(rp, 1)

	wall := main.wall / scale
	routeFrac := float64(p.tokens*layers) * routeNS * 1e-9 / wall
	windowFrac := (float64(p.tokens)*pushNS*1e-9 + float64(p.driftChecks)*observeUS*1e-6) / wall
	ctrlFrac := float64(p.solves) * resolveS / wall
	memFrac := 0.0
	if cfg.w.memory {
		memFrac = float64(p.iterations) * stallUS * 1e-6 / wall
	}
	setHost("synth.route_ns", routeNS)
	r.set("synth.route_allocs", routeAllocs)
	r.set("synth.route_host_frac", routeFrac)
	setHost("serve.window_push_ns", pushNS)
	setHost("serve.detector_observe_us", observeUS)
	r.set("serve.window_host_frac", windowFrac)
	setHost("controller.resolve_host_s", resolveS)
	r.set("controller.host_frac", ctrlFrac)
	setHost("expertmem.replay_us_per_iter", stallUS)
	r.set("expertmem.host_frac", memFrac)
	r.set("serve.residual_host_frac", 1-routeFrac-windowFrac-ctrlFrac-memFrac)

	return tracedServe(cfg, sys, main, clock, r, sp, root)
}

// timeBest times three calls of f under one span and returns the fastest,
// in host seconds.
func timeBest(sp *spans, parent int, name string, f func()) float64 {
	id := sp.start(name, parent)
	walls := make([]float64, 3)
	for i := range walls {
		t0 := time.Now()
		f()
		walls[i] = time.Since(t0).Seconds()
	}
	sp.stop(id, len(walls))
	return slices.Min(walls)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// setController records the adaptive controller's activity in the main run.
func setController(r *result, p *pool) {
	moves, cross := 0, 0
	pause, absErr, pred, realized := 0.0, 0.0, 0.0, 0.0
	for _, m := range p.migrations {
		moves += m.Moves
		cross += m.CrossNodeMoves
		pause += m.Seconds
		absErr += math.Abs(m.PredictedStallDelta - m.RealizedStallDelta)
		pred += m.PredictedStallDelta
		realized += m.RealizedStallDelta
	}
	ratio := 0.0
	if n := len(p.migrations); n > 0 {
		absErr /= float64(n)
		if realized != 0 {
			ratio = pred / realized
		}
	}
	r.set("controller.solves", float64(p.solves))
	r.set("controller.discarded_solves", float64(p.discards))
	r.set("controller.migrations", float64(len(p.migrations)))
	r.set("controller.moves", float64(moves))
	r.set("controller.cross_node_moves", float64(cross))
	r.set("controller.pause_s", pause)
	r.set("controller.stall_pred_abs_err", absErr)
	r.set("controller.stall_pred_ratio", ratio)
}

// setExpertMem records the tiered expert memory's activity in the main run;
// with the memory layer off every expert is resident, so the hit rate is 1.
func setExpertMem(r *result, p *pool) {
	var st expertmem.Stats
	if p.mem != nil {
		st = *p.mem
	}
	precision := 0.0
	if st.Prefetches > 0 {
		precision = float64(st.PrefetchHits) / float64(st.Prefetches)
	}
	r.set("expertmem.hit_rate", st.EffectiveHitRate())
	r.set("expertmem.late_hits", float64(st.LateHits))
	r.set("expertmem.misses", float64(st.Misses))
	r.set("expertmem.evictions", float64(st.Evictions))
	r.set("expertmem.prefetches", float64(st.Prefetches))
	r.set("expertmem.wasted_prefetches", float64(st.WastedPrefetches))
	r.set("expertmem.prefetch_precision", precision)
	r.set("expertmem.fetched_gb", float64(st.BytesFetched)/1e9)
	r.set("expertmem.stall_s_per_token", p.memStall/float64(p.tokens))
}

// replayRoute routes replayTokens tokens through every layer the way the
// serve loop does — each phase's share of tokens, by duration, drawn from
// its dataset — and returns the paths, the host nanoseconds per
// KernelRouter.Route call and the heap allocations per call.
func replayRoute(sys *exflow.System, w workload, sp *spans, parent int) ([][]int, float64, float64) {
	layers := sys.Model.Cfg.Layers
	total := 0.0
	for _, p := range w.phases {
		total += p.dur
	}
	type stream struct {
		router *synth.KernelRouter
		ds     *synth.DatasetProfile
		n      int
	}
	var streams []stream
	for _, p := range w.phases {
		ds := sys.Dataset
		if p.viral {
			ds = exflow.ViralDataset()
		}
		streams = append(streams, stream{synth.NewKernelRouter(sys.Kernel, ds, sys.Model.Cfg.TopK), ds,
			int(math.Round(replayTokens * p.dur / total))})
	}
	paths := make([][]int, 0, replayTokens)
	for _, s := range streams {
		for i := 0; i < s.n; i++ {
			paths = append(paths, make([]int, layers))
		}
	}
	route := func() {
		k := 0
		for _, s := range streams {
			for i := 0; i < s.n; i++ {
				id := s.ds.TokenID(uint64(tokenBase + k))
				path := paths[k]
				prev := -1
				for j := 0; j < layers; j++ {
					prev = s.router.Route(j, id, prev, nil)[0]
					path[j] = prev
				}
				k++
			}
		}
	}
	calls := float64(len(paths) * layers)
	id := sp.start("replay.route", parent)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	route()
	runtime.ReadMemStats(&after)
	ns := make([]float64, replayPasses)
	for i := range ns {
		t0 := time.Now()
		route()
		ns[i] = float64(time.Since(t0).Nanoseconds()) / calls
	}
	sp.stop(id, int(calls)*(replayPasses+1))
	return paths, slices.Min(ns), float64(after.Mallocs-before.Mallocs) / calls
}

// replayWindow pushes the routed paths through a serve.TraceWindow of the
// serving default capacity, and scores the window with a drift Detector
// against the calibration baseline. It returns host nanoseconds per Push,
// microseconds per drift check (pooling the window plus Detector.Observe),
// and the filled window.
func replayWindow(sys *exflow.System, cal *exflow.ServeCalibration, paths [][]int, sp *spans, parent int) (float64, float64, *serve.TraceWindow) {
	layers, experts := sys.Model.Cfg.Layers, sys.Model.Cfg.Experts
	win := serve.NewTraceWindow(layers, experts, serve.DefaultWindow)
	id := sp.start("replay.window_push", parent)
	push := make([]float64, replayPasses)
	for i := range push {
		t0 := time.Now()
		for _, p := range paths {
			win.Push(p)
		}
		push[i] = float64(time.Since(t0).Nanoseconds()) / float64(len(paths))
	}
	sp.stop(id, len(paths)*replayPasses)

	det := serve.NewDetector(serve.JS, cal.DriftThreshold, 2, serve.Pool(cal.Trace.AllTransitionCounts(), experts))
	const checks = 20
	id = sp.start("replay.detector_observe", parent)
	observe := make([]float64, replayPasses)
	for i := range observe {
		t0 := time.Now()
		for range checks {
			det.Observe(win.Pooled())
		}
		observe[i] = float64(time.Since(t0).Nanoseconds()) / checks / 1e3
	}
	sp.stop(id, checks*replayPasses)
	return slices.Min(push), slices.Min(observe), win
}

// replayResolve times one controller re-solve: the staged placement solve
// on a window snapshot, priced with the memory objective when the workload's
// re-solves are memory-aware (as internal/serve's controller builds it).
func replayResolve(sys *exflow.System, cal *exflow.ServeCalibration, w workload, win *serve.TraceWindow, sp *spans, parent int) float64 {
	layers, experts := sys.Model.Cfg.Layers, sys.Model.Cfg.Experts
	counts := win.Snapshot()
	var mo *placement.MemoryObjective
	if w.memoryAware {
		pol, _ := expertmem.ParsePolicy(memPolicy)
		mcfg := expertmem.ConfigFor(sys.Topo, layers, experts, expertBytes(sys), memRatio, pol, 4, 0, counts)
		mo = placement.NewMemoryObjective(mcfg, cal.Metrics.Cost.PerCrossHop)
		mo.DeflateBatch(4 * sys.Topo.TotalGPUs()) // serving's default MaxBatch
	}
	id := sp.start("replay.resolve", parent)
	t0 := time.Now()
	placement.StagedOpt(counts, layers, experts, sys.Topo, systemSeed, placement.StagedOptions{Memory: mo, Workers: 1})
	s := time.Since(t0).Seconds()
	sp.stop(id, 1)
	return s
}

// replayExpertMem walks replayIters decode iterations of the routed paths,
// at the main run's mean batch size, through serve.LayerStallTimeline over a
// Manager configured like the workload's (1x, nothing oversubscribed, when
// the memory layer is off) and returns host microseconds per iteration.
func replayExpertMem(sys *exflow.System, cal *exflow.ServeCalibration, w workload, paths [][]int, meanBatch float64, sp *spans, parent int) float64 {
	layers, experts := sys.Model.Cfg.Layers, sys.Model.Cfg.Experts
	ratio := 1.0
	if w.memory {
		ratio = memRatio
	}
	pol, _ := expertmem.ParsePolicy(memPolicy)
	mem := expertmem.New(expertmem.ConfigFor(sys.Topo, layers, experts, expertBytes(sys), ratio, pol, 4, 0,
		cal.Trace.AllTransitionCounts()))
	pl := cal.Placement
	mem.Warm(pl.Assign)
	batch := max(1, int(math.Round(meanBatch)))
	m := cal.Metrics
	compute := m.Cost.Time(batch, m.FracNode, m.FracCross)
	id := sp.start("replay.expertmem", parent)
	now := 0.0
	t0 := time.Now()
	for i := 0; i < replayIters; i++ {
		off := (i * batch) % (len(paths) - batch)
		now += compute + serve.LayerStallTimeline(mem, pl, paths[off:off+batch], batch, now, compute)
	}
	us := float64(time.Since(t0).Nanoseconds()) / replayIters / 1e3
	sp.stop(id, replayIters)
	return us
}

func expertBytes(sys *exflow.System) int { return int(sys.Model.Cfg.ExpertParams()) * 2 } // fp16

// tracedServe reruns sub-run 0 of the main run with the obs tracer,
// registry and decision log attached, checks that it reproduces the
// untraced run's simulated results bit for bit, validates its exports
// against the repository's schemas and writes them to cfg.out.
func tracedServe(cfg config, sys *exflow.System, main *mainRun, clock *hostClock, r *result, sp *spans, root int) error {
	opts := main.opts[0]
	// 1-in-128 sampling of the high-volume kinds keeps a memory workload's
	// trace to a few MB; control-plane events are always kept.
	tracer := obs.NewTracer(obs.TracerOptions{Cap: 1 << 16, Sample: 128})
	opts.Trace, opts.Metrics, opts.Decisions = tracer, obs.NewRegistry(), obs.NewDecisionLog(0)
	clock.probe()
	debug.FreeOSMemory()
	id := sp.start("serve.run_traced", root)
	var (
		rep *exflow.ServeReport
		err error
	)
	c := clock.time(func() { rep, _, err = exflow.Serve(sys, opts) })
	sp.stop(id, 1)
	clock.probe()
	if err != nil {
		return fmt.Errorf("traced serve: %w", err)
	}
	r.set("obs.trace_overhead_frac", clock.scaled(c)/main.subWall[0]-1)
	r.set("obs.trace_events", float64(tracer.Emitted()))
	r.check(sameSim(main.reps[0], rep), "traced run's simulated results differ from the untraced run's")
	snap := rep.Metrics
	r.check(snap.Counters["serve_requests_finished_total"] == float64(rep.Requests),
		"registry counts %v finished requests, report %d", snap.Counters["serve_requests_finished_total"], rep.Requests)
	r.check(snap.Counters["serve_tokens_decoded_total"] == float64(rep.Tokens),
		"registry counts %v decoded tokens, report %d", snap.Counters["serve_tokens_decoded_total"], rep.Tokens)

	id = sp.start("export", root)
	defer sp.stop(id, 3)
	prov := newProvenance(cfg)
	traceJSON, err := obs.PerfettoJSON(tracer)
	if err != nil {
		return fmt.Errorf("trace export: %w", err)
	}
	if traceJSON, err = withProvenance(traceJSON, prov, "otherData"); err != nil {
		return err
	}
	metricsJSON, err := snap.MarshalIndentJSON()
	if err != nil {
		return fmt.Errorf("metrics export: %w", err)
	}
	if metricsJSON, err = withProvenance(metricsJSON, prov, ""); err != nil {
		return err
	}
	for _, e := range []struct {
		schema, name string
		doc          []byte
	}{
		{"schema/trace.schema.json", "trace", traceJSON},
		{"schema/metrics.schema.json", "metrics", metricsJSON},
	} {
		schema, err := os.ReadFile(filepath.Join(cfg.root, e.schema))
		if err != nil {
			return fmt.Errorf("read schema: %w", err)
		}
		err = obs.ValidateJSONSchema(schema, e.doc)
		r.check(err == nil, "%s export fails %s: %v", e.name, e.schema, err)
	}
	provJSON, _ := json.Marshal(prov)
	decisions := append([]byte("# provenance "+string(provJSON)+"\n"), opts.Decisions.String()...)
	for name, blob := range map[string][]byte{"trace.json": traceJSON, "metrics.json": metricsJSON, "decisions.log": decisions} {
		if err := writeOut(cfg, name, blob); err != nil {
			return err
		}
	}
	return nil
}

// withProvenance adds a "provenance" member to a JSON object, or to its
// object member under key when key is not empty.
func withProvenance(doc []byte, prov provenance, key string) ([]byte, error) {
	var m map[string]any
	if err := json.Unmarshal(doc, &m); err != nil {
		return nil, fmt.Errorf("add provenance: %w", err)
	}
	target := m
	if key != "" {
		sub, ok := m[key].(map[string]any)
		if !ok {
			return nil, fmt.Errorf("add provenance: no object %q", key)
		}
		target = sub
	}
	target["provenance"] = prov
	return json.MarshalIndent(m, "", " ")
}

// writeSpans checks the host-clock spans and writes them as Chrome trace
// JSON.
func writeSpans(cfg config, sp *spans) error {
	if err := sp.check(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	blob, err := sp.chromeJSON(newProvenance(cfg))
	if err != nil {
		return err
	}
	return writeOut(cfg, "spans.json", blob)
}

// writeOut writes one traced-run export as <out>/<workload>.<name>.
func writeOut(cfg config, name string, blob []byte) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	return obs.WriteFileAtomic(filepath.Join(cfg.out, cfg.w.name+"."+name), blob)
}
