// Package scenario runs the declarative chaos scenario matrix: a checked-in
// catalog of fault-injection serving runs, each with an explicit pass/fail
// gate, executed by exflow-serve -scenarios and enforced in CI.
//
// Every row is a small experiment over the same synthetic serving system (no
// engine — a fixed kernel, a staged placement from a profiling trace, and a
// hand-set locality cost model of engine-like magnitude, mirroring the serve
// package's test fixture) with a chaos.Schedule injected and a quantitative
// acceptance gate evaluated on the resulting report: the no-fault control
// must be bit-identical to chaos-disabled, a crash arm must recover its P95
// tail, preemptible DMA must beat FIFO, retry exhaustion must shed instead
// of hang, and so on. Rows run concurrently with per-row deterministic seeds
// (rng.Mix64 off Config.Seed), and results keep catalog order, so the
// marshaled summary is byte-identical across runs — CI diffs it and a
// determinism test asserts it.
//
// Two scales share the catalog: "bench" (the checked-in BENCH_scenarios.json:
// long eras, tight gates — the 25% P95 recovery bound, strict preemptible-DMA
// win) and "smoke" (shorter eras and looser recovery gates for the quick CI
// pass; the structural gates — conservation, shedding, ledger shape — stay
// identical).
package scenario

import (
	"fmt"
	"sync"

	"repro/internal/chaos"
	"repro/internal/fleet"
	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config parameterizes a matrix run.
type Config struct {
	// Seed derives every row's deterministic serving seed (default 7).
	Seed uint64
	// Scale selects the matrix size: "bench" (default) or "smoke".
	Scale string
}

// scaleParams are the per-scale era lengths and gate tightness.
type scaleParams struct {
	warm          float64 // in-distribution era before faults land
	dur           float64 // main-era seconds
	recoveryGate  float64 // post-recovery P95 may exceed pre-crash by this factor
	strictPreempt bool    // preemptible DMA must strictly beat FIFO P95
}

var scales = map[string]scaleParams{
	"bench": {warm: 3, dur: 10, recoveryGate: 1.25, strictPreempt: true},
	"smoke": {warm: 2, dur: 5, recoveryGate: 2.0, strictPreempt: false},
}

// Result is one scenario row's outcome.
type Result struct {
	ID          string             `json:"id"`
	Category    string             `json:"category"` // control | crash | memory | fleet
	Priority    string             `json:"priority"` // P0 (acceptance-critical) .. P2
	Description string             `json:"description"`
	Pass        bool               `json:"pass"`
	Metrics     map[string]float64 `json:"metrics"`
	Notes       string             `json:"notes"`
}

// Summary is the machine-readable matrix outcome (BENCH_scenarios.json).
// Its JSON is stable: metrics are maps, which encoding/json emits with
// sorted keys, and rows keep catalog order, so the bytes are a pure function
// of (Seed, Scale).
type Summary struct {
	Seed           uint64   `json:"seed"`
	Scale          string   `json:"scale"`
	GPUs           int      `json:"gpus"`
	Replicas       int      `json:"replicas"`
	Layers         int      `json:"layers"`
	Experts        int      `json:"experts"`
	MainEraSeconds float64  `json:"main_era_s"`
	RecoveryGate   float64  `json:"recovery_gate"`
	Scenarios      []Result `json:"scenarios"`
	AllPass        bool     `json:"all_pass"`
}

// system is the shared serving fixture every row copies from. serve.Run
// treats its inputs as read-only (the replay tests depend on it), so the
// deployment and calibration are safe to share across concurrent rows.
type system struct {
	dep     serve.Deployment
	opts    serve.Options
	drifted *synth.DatasetProfile
}

func buildSystem() system {
	tp := topo.ForGPUs(8) // 2 nodes x 4 GPUs
	k := synth.NewKernel(synth.KernelParams{
		Seed: 0xBEEF, Layers: 12, Experts: 32, Strength: 0.85, DomainTilt: 8,
	})
	pile := synth.Pile()
	tr := trace.Collect(synth.NewKernelRouter(k, pile, 1), k.Layers, trace.SequentialIDs(2500, pile.TokenID))
	pl := placement.Staged(tr.AllTransitionCounts(), k.Layers, k.Experts, tp, 5)
	cost := workload.LocalityModel{Fixed: 500e-6, PerToken: 5e-6, PerNodeHop: 1e-6, PerCrossHop: 4e-6}
	return system{
		dep: serve.Deployment{Topo: tp, Kernel: k, ExpertBytes: 16 << 20, Dataset: pile},
		opts: serve.Options{
			Replicas:     2,
			MaxBatch:     32,
			DecodeTokens: 16,
			Window:       2048,
			Calibration: &serve.Calibration{
				Trace: tr, Placement: pl, Metrics: serve.Metrics{Cost: cost}, DriftThreshold: 0.02,
			},
		},
		drifted: synth.Custom("drifted", []float64{0, 0, 0, 0, 1, 0}, 0xD81F),
	}
}

// knee returns a request rate at the given fraction of the fleet's modeled
// capacity (cost evaluated at typical dispatch locality).
func knee(o serve.Options, frac float64) float64 {
	cost := o.Calibration.Metrics.Cost
	perReplica := float64(o.MaxBatch) / cost.Time(o.MaxBatch, 0.2, 0.5)
	return frac * perReplica * float64(o.Replicas) / float64(o.DecodeTokens)
}

func steady(o serve.Options, frac, dur float64) []serve.Phase {
	return []serve.Phase{{Name: "steady", Duration: dur, Rate: knee(o, frac), Dataset: synth.Pile()}}
}

// autoscaled is the shared fleet spec for the autoscaler rows: fast
// reconciling so scale actions land inside short eras.
func autoscaled(min int) *fleet.Spec {
	return &fleet.Spec{
		MinReplicas: min, MaxReplicas: 4,
		ReconcileInterval: 0.25,
		ScaleUpCooldown:   0.5,
		ScaleDownCooldown: 0.5,
		DownscaleStreak:   2,
		ForecastHalfLife:  0.5,
	}
}

type rowFunc func(sys system, sp scaleParams, seed uint64) (bool, map[string]float64, string, error)

type row struct {
	id, category, priority, description string
	run                                 rowFunc
}

// catalog is the scenario matrix. Order is the output order; gates reference
// the acceptance criteria each row exists to enforce.
func catalog() []row {
	return []row{
		{
			id: "control-no-fault", category: "control", priority: "P0",
			description: "An empty chaos schedule is bit-identical to chaos disabled: same makespan, requests, iterations, and latency percentiles, and no fault ledger.",
			run:         runControl,
		},
		{
			id: "crash-recovery-mid-drift", category: "crash", priority: "P0",
			description: "A replica crashes mid-drift and recovers: no admitted request is lost, the outage is visible in the tail, and post-recovery P95 returns to within the gate of pre-crash.",
			run:         runCrashRecoveryMidDrift,
		},
		{
			id: "crash-during-migration", category: "crash", priority: "P1",
			description: "A replica crashes inside a rolling re-placement window (probed from a fault-free run): the rollout baton passes on, the migration completes, and every request still finishes.",
			run:         runCrashDuringMigration,
		},
		{
			id: "degraded-link-oversub", category: "memory", priority: "P1",
			description: "A degraded host link under 2x oversubscription: the window is ledgered and stretches memory stalls without losing requests.",
			run:         runDegradedLink,
		},
		{
			id: "preempt-vs-fifo", category: "memory", priority: "P0",
			description: "Preemptible DMA under 2x oversubscription: demand fetches preempt speculative transfers and the P95 tail beats FIFO link scheduling.",
			run:         runPreemptVsFIFO,
		},
		{
			id: "flash-crowd-crash", category: "fleet", priority: "P1",
			description: "A replica crashes during a flash crowd under the autoscaler: the fleet scales up, the crash recovers, and arrival accounting stays exact.",
			run:         runFlashCrowdCrash,
		},
		{
			id: "autoscaler-replaces-crash", category: "fleet", priority: "P1",
			description: "A permanent crash under the autoscaler: the reconciler re-commissions replacement capacity and no admitted request is stranded.",
			run:         runAutoscalerReplacesCrash,
		},
		{
			id: "retry-exhaustion-shed", category: "memory", priority: "P0",
			description: "A near-dead link under a tight fetch timeout: retries exhaust and the affected requests shed gracefully (counted in the fault ledger) instead of wedging the batch.",
			run:         runRetryExhaustionShed,
		},
		{
			id: "drain-conservation", category: "fleet", priority: "P2",
			description: "Scale-down after a spike drains gracefully: retiring replicas hand their queues to survivors and every arrival finishes.",
			run:         runDrainConservation,
		},
	}
}

// RunAll executes the catalog concurrently and returns the summary. Rows are
// independent serving runs with rng.Mix64-derived seeds; results keep catalog
// order so the output is deterministic regardless of completion order.
func RunAll(cfg Config) (*Summary, error) {
	if cfg.Scale == "" {
		cfg.Scale = "bench"
	}
	sp, ok := scales[cfg.Scale]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown scale %q (want smoke or bench)", cfg.Scale)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 7
	}
	sys := buildSystem()
	rows := catalog()
	results := make([]Result, len(rows))
	errs := make([]error, len(rows))
	var wg sync.WaitGroup
	for i, rw := range rows {
		wg.Add(1)
		go func(i int, rw row) {
			defer wg.Done()
			pass, met, notes, err := rw.run(sys, sp, rng.Mix64(cfg.Seed, 0x5CE11A, uint64(i)))
			if err != nil {
				errs[i] = fmt.Errorf("scenario %s: %w", rw.id, err)
				return
			}
			results[i] = Result{
				ID: rw.id, Category: rw.category, Priority: rw.priority,
				Description: rw.description, Pass: pass, Metrics: met, Notes: notes,
			}
		}(i, rw)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	all := true
	for _, r := range results {
		all = all && r.Pass
	}
	return &Summary{
		Seed: cfg.Seed, Scale: cfg.Scale,
		GPUs: sys.dep.Topo.TotalGPUs(), Replicas: sys.opts.Replicas,
		Layers: sys.dep.Kernel.Layers, Experts: sys.dep.Kernel.Experts,
		MainEraSeconds: sp.dur, RecoveryGate: sp.recoveryGate,
		Scenarios: results, AllPass: all,
	}, nil
}

func runControl(sys system, sp scaleParams, seed uint64) (bool, map[string]float64, string, error) {
	o := sys.opts
	o.Seed = seed
	o.Phases = steady(o, 0.8, sp.dur)
	off, err := serve.Run(sys.dep, o)
	if err != nil {
		return false, nil, "", err
	}
	o.Chaos = &chaos.Schedule{}
	on, err := serve.Run(sys.dep, o)
	if err != nil {
		return false, nil, "", err
	}
	pass := on.Makespan == off.Makespan && on.Requests == off.Requests &&
		on.Iterations == off.Iterations &&
		on.Overall.P50 == off.Overall.P50 && on.Overall.P95 == off.Overall.P95 &&
		on.Overall.P99 == off.Overall.P99 && on.Faults == nil
	met := map[string]float64{
		"requests":   float64(on.Requests),
		"p95_s":      on.Overall.P95,
		"makespan_s": on.Makespan,
	}
	notes := "empty schedule bit-identical to chaos disabled"
	if !pass {
		notes = "empty chaos schedule perturbed the run"
	}
	return pass, met, notes, nil
}

func runCrashRecoveryMidDrift(sys system, sp scaleParams, seed uint64) (bool, map[string]float64, string, error) {
	o := sys.opts
	o.Seed = seed
	o.Adaptive = true
	rate := knee(o, 0.7)
	o.Phases = []serve.Phase{
		{Name: "warm", Duration: sp.warm, Rate: rate, Dataset: synth.Pile()},
		{Name: "drift", Duration: sp.dur, Rate: rate, Dataset: sys.drifted},
	}
	base, err := serve.Run(sys.dep, o)
	if err != nil {
		return false, nil, "", err
	}
	crashAt := sp.warm + 0.25*sp.dur
	const recoverAfter = 1.0
	o.Chaos = &chaos.Schedule{Faults: []chaos.Fault{chaos.Crash(crashAt, 1, recoverAfter)}}
	rep, err := serve.Run(sys.dep, o)
	if err != nil {
		return false, nil, "", err
	}
	fr := rep.Faults
	if fr == nil || len(fr.Crashes) != 1 {
		return false, nil, "fault ledger missing the crash", nil
	}
	end := sp.warm + sp.dur
	recAt := fr.Crashes[0].RecoveredAt
	pre := rep.WindowStats(0.5, crashAt)
	during := rep.WindowStats(crashAt, recAt)
	post := rep.WindowStats(recAt+1, end)
	met := map[string]float64{
		"pre_p95_s":    pre.P95,
		"during_p95_s": during.P95,
		"post_p95_s":   post.P95,
		"downtime_s":   fr.DowntimeSeconds,
		"redispatched": float64(fr.Redispatched),
		"requests":     float64(rep.Requests),
	}
	pass := fr.Recoveries == 1 && recAt > crashAt &&
		rep.Requests == base.Requests && // redispatch loses nothing
		pre.Requests > 0 && during.Requests > 0 && post.Requests > 0 &&
		during.P95 > pre.P95 && // the outage is visible
		post.P95 <= sp.recoveryGate*pre.P95 // and the tail comes back
	notes := fmt.Sprintf("post/pre P95 %.2fx (gate %.2fx); %s", post.P95/pre.P95, sp.recoveryGate, fr)
	return pass, met, notes, nil
}

func runCrashDuringMigration(sys system, sp scaleParams, seed uint64) (bool, map[string]float64, string, error) {
	o := sys.opts
	o.Seed = seed
	o.Adaptive = true
	rate := knee(o, 0.8)
	o.Phases = []serve.Phase{
		{Name: "warm", Duration: sp.warm, Rate: rate, Dataset: synth.Pile()},
		{Name: "drift", Duration: sp.dur, Rate: rate, Dataset: sys.drifted},
	}
	probe, err := serve.Run(sys.dep, o)
	if err != nil {
		return false, nil, "", err
	}
	if len(probe.Migrations) == 0 {
		return false, map[string]float64{"probe_migrations": 0},
			"probe run never migrated; no rollout window to crash into", nil
	}
	// Aim the crash at the middle of the probed rolling-migration window; the
	// chaos arm replays the same seed, so the rollout is in flight when the
	// replica dies and the baton-pass path is what is under test.
	m := probe.Migrations[0]
	crashAt := m.Time + 0.5*(m.Completed-m.Time)
	if m.Completed <= m.Time {
		crashAt = m.Time + 0.01
	}
	o.Chaos = &chaos.Schedule{Faults: []chaos.Fault{chaos.Crash(crashAt, 1, 1)}}
	rep, err := serve.Run(sys.dep, o)
	if err != nil {
		return false, nil, "", err
	}
	fr := rep.Faults
	if fr == nil || len(fr.Crashes) != 1 {
		return false, nil, "fault ledger missing the crash", nil
	}
	met := map[string]float64{
		"migration_window_s": m.Completed - m.Time,
		"crash_at_s":         crashAt,
		"migrations":         float64(len(rep.Migrations)),
		"requests":           float64(rep.Requests),
		"redispatched":       float64(fr.Redispatched),
	}
	pass := fr.Recoveries == 1 &&
		len(rep.Migrations) >= 1 && // rollout survived the dead baton holder
		rep.Requests == probe.Requests // nothing lost end to end
	notes := fmt.Sprintf("crash at %.3fs inside migration [%.3fs, %.3fs]; %s",
		crashAt, m.Time, m.Completed, fr)
	return pass, met, notes, nil
}

func runDegradedLink(sys system, sp scaleParams, seed uint64) (bool, map[string]float64, string, error) {
	o := sys.opts
	o.Seed = seed
	o.Oversubscription = 2
	o.CachePolicy = "affinity"
	o.Phases = steady(o, 0.7, sp.dur)
	base, err := serve.Run(sys.dep, o)
	if err != nil {
		return false, nil, "", err
	}
	o.Chaos = &chaos.Schedule{Faults: []chaos.Fault{chaos.DegradeLink(0.25*sp.dur, 0.5*sp.dur, 3)}}
	rep, err := serve.Run(sys.dep, o)
	if err != nil {
		return false, nil, "", err
	}
	fr := rep.Faults
	if fr == nil {
		return false, nil, "fault ledger missing", nil
	}
	met := map[string]float64{
		"stall_s":      rep.MemStallSeconds,
		"base_stall_s": base.MemStallSeconds,
		"p95_s":        rep.Overall.P95,
		"base_p95_s":   base.Overall.P95,
		"requests":     float64(rep.Requests),
	}
	pass := fr.LinkDegradeWindows == 1 &&
		rep.MemStallSeconds > base.MemStallSeconds &&
		rep.Requests == base.Requests
	notes := fmt.Sprintf("3x degraded link for %.1fs: stalls %.4fs vs %.4fs fault-free",
		0.5*sp.dur, rep.MemStallSeconds, base.MemStallSeconds)
	return pass, met, notes, nil
}

func runPreemptVsFIFO(sys system, sp scaleParams, seed uint64) (bool, map[string]float64, string, error) {
	o := sys.opts
	o.Seed = seed
	o.Oversubscription = 2
	o.CachePolicy = "affinity"
	o.Phases = steady(o, 0.75, sp.dur)
	fifo, err := serve.Run(sys.dep, o)
	if err != nil {
		return false, nil, "", err
	}
	o.Chaos = &chaos.Schedule{PreemptibleDMA: true}
	rep, err := serve.Run(sys.dep, o)
	if err != nil {
		return false, nil, "", err
	}
	fr := rep.Faults
	if fr == nil {
		return false, nil, "fault ledger missing", nil
	}
	met := map[string]float64{
		"preemptions":  float64(fr.Preemptions),
		"p95_s":        rep.Overall.P95,
		"fifo_p95_s":   fifo.Overall.P95,
		"stall_s":      rep.MemStallSeconds,
		"fifo_stall_s": fifo.MemStallSeconds,
	}
	p95Win := rep.Overall.P95 < fifo.Overall.P95
	if !sp.strictPreempt {
		p95Win = rep.Overall.P95 <= fifo.Overall.P95
	}
	pass := fr.Preemptions > 0 && p95Win &&
		rep.MemStallSeconds <= fifo.MemStallSeconds
	notes := fmt.Sprintf("%d preemptions; P95 %.4fs vs FIFO %.4fs",
		fr.Preemptions, rep.Overall.P95, fifo.Overall.P95)
	return pass, met, notes, nil
}

func runFlashCrowdCrash(sys system, sp scaleParams, seed uint64) (bool, map[string]float64, string, error) {
	o := sys.opts
	o.Seed = seed
	warm := knee(o, 0.5)
	o.Phases = []serve.Phase{
		{Name: "warm", Duration: sp.warm, Rate: warm, Dataset: synth.Pile()},
		{Name: "spike", Duration: 0.4 * sp.dur, Rate: 3 * warm, Dataset: synth.Pile()},
		{Name: "recover", Duration: 0.6 * sp.dur, Rate: warm, Dataset: synth.Pile()},
	}
	o.Fleet = autoscaled(2)
	crashAt := sp.warm + 0.2*sp.dur // inside the spike
	o.Chaos = &chaos.Schedule{Faults: []chaos.Fault{chaos.Crash(crashAt, 1, 1)}}
	rep, err := serve.Run(sys.dep, o)
	if err != nil {
		return false, nil, "", err
	}
	fr, fl := rep.Faults, rep.Fleet
	if fr == nil || fl == nil || len(fr.Crashes) != 1 {
		return false, nil, "fault or fleet ledger missing", nil
	}
	met := map[string]float64{
		"scale_ups":    float64(fl.ScaleUps),
		"arrivals":     float64(fl.Arrivals),
		"redispatched": float64(fr.Redispatched),
		"max_live":     float64(fl.MaxLive),
	}
	pass := fr.Recoveries == 1 && fl.ScaleUps > 0 &&
		rep.Requests == fl.Arrivals // nothing offered is stranded
	notes := fmt.Sprintf("crash at %.2fs during 3x spike; %d scale-ups, %d/%d finished; %s",
		crashAt, fl.ScaleUps, rep.Requests, fl.Arrivals, fr)
	return pass, met, notes, nil
}

func runAutoscalerReplacesCrash(sys system, sp scaleParams, seed uint64) (bool, map[string]float64, string, error) {
	o := sys.opts
	o.Seed = seed
	o.Phases = steady(o, 0.5, sp.warm+sp.dur)
	o.Fleet = autoscaled(2)
	o.Chaos = &chaos.Schedule{Faults: []chaos.Fault{chaos.CrashForever(sp.warm, 1)}}
	rep, err := serve.Run(sys.dep, o)
	if err != nil {
		return false, nil, "", err
	}
	fr, fl := rep.Faults, rep.Fleet
	if fr == nil || fl == nil || len(fr.Crashes) != 1 {
		return false, nil, "fault or fleet ledger missing", nil
	}
	met := map[string]float64{
		"scale_ups":  float64(fl.ScaleUps),
		"final_live": float64(fl.FinalLive),
		"arrivals":   float64(fl.Arrivals),
	}
	pass := fr.Recoveries == 0 && // the slot itself never comes back
		fl.ScaleUps > 0 && // but the autoscaler replaced the capacity
		rep.Requests == fl.Arrivals
	notes := fmt.Sprintf("permanent crash at %.1fs; %d scale-ups replaced the slot; %s",
		sp.warm, fl.ScaleUps, fr)
	return pass, met, notes, nil
}

func runRetryExhaustionShed(sys system, sp scaleParams, seed uint64) (bool, map[string]float64, string, error) {
	o := sys.opts
	o.Seed = seed
	o.Oversubscription = 2
	o.CachePolicy = "lru"
	o.Phases = steady(o, 0.7, sp.dur)
	base, err := serve.Run(sys.dep, o)
	if err != nil {
		return false, nil, "", err
	}
	// A near-dead link for the rest of the run under a tight stall timeout:
	// demand fetches time out, retry, exhaust, and their requests shed.
	o.Chaos = &chaos.Schedule{
		Faults:       []chaos.Fault{chaos.DegradeLink(0.5, sp.dur, 50)},
		FetchTimeout: 0.002, FetchRetries: 1, FetchBackoff: 0.001,
	}
	rep, err := serve.Run(sys.dep, o)
	if err != nil {
		return false, nil, "", err
	}
	fr := rep.Faults
	if fr == nil {
		return false, nil, "fault ledger missing", nil
	}
	met := map[string]float64{
		"fetch_timeouts":  float64(fr.FetchTimeouts),
		"retry_exhausted": float64(fr.RetryExhausted),
		"shed":            float64(fr.ShedRetryExhausted),
		"finished":        float64(rep.Requests),
		"offered":         float64(base.Requests),
	}
	// Reaching here at all proves the batch never wedged: the run terminated.
	pass := fr.FetchTimeouts > 0 && fr.RetryExhausted > 0 &&
		fr.ShedRetryExhausted > 0 &&
		rep.Requests+fr.ShedRetryExhausted == base.Requests
	notes := fmt.Sprintf("%d finished + %d shed = %d offered; %s",
		rep.Requests, fr.ShedRetryExhausted, base.Requests, fr)
	return pass, met, notes, nil
}

func runDrainConservation(sys system, sp scaleParams, seed uint64) (bool, map[string]float64, string, error) {
	o := sys.opts
	o.Seed = seed
	warm := knee(o, 0.4)
	o.Phases = []serve.Phase{
		{Name: "spike", Duration: 0.3 * sp.dur, Rate: 4 * warm, Dataset: synth.Pile()},
		{Name: "calm", Duration: sp.warm + 0.7*sp.dur, Rate: warm / 2, Dataset: synth.Pile()},
	}
	o.Fleet = autoscaled(1)
	rep, err := serve.Run(sys.dep, o)
	if err != nil {
		return false, nil, "", err
	}
	fl := rep.Fleet
	if fl == nil {
		return false, nil, "fleet ledger missing", nil
	}
	met := map[string]float64{
		"scale_downs": float64(fl.ScaleDowns),
		"arrivals":    float64(fl.Arrivals),
		"finished":    float64(rep.Requests),
	}
	pass := fl.ScaleDowns > 0 &&
		rep.Requests == fl.Arrivals // drains strand nothing
	notes := fmt.Sprintf("%d scale-downs after the spike; all %d arrivals finished",
		fl.ScaleDowns, fl.Arrivals)
	return pass, met, notes, nil
}
