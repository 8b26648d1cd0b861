package serve

import (
	"math"
	"testing"

	"repro/internal/placement"
	"repro/internal/synth"
	"repro/internal/trace"
)

// controllerFixture builds a controller over a window filled with drifted
// traffic, so the detector is hot and only the gating logic decides whether
// a plan is returned. minGain replaces the controller's default gain gate.
func controllerFixture(t *testing.T, minGain float64) (*controller, *placement.Placement, runConfig) {
	t.Helper()
	dep, opts, drifted := testSystem(t)
	opts.Adaptive = true
	opts.Phases = driftProgram(opts, drifted)
	cfg, err := resolve(dep, opts)
	if err != nil {
		t.Fatal(err)
	}

	window := NewTraceWindow(cfg.kernel.Layers, cfg.kernel.Experts, cfg.Window)
	router := synth.NewKernelRouter(cfg.kernel, drifted, 1)
	ids := trace.SequentialIDs(cfg.Window, drifted.TokenID)
	tr := trace.Collect(router, cfg.kernel.Layers, ids)
	for _, path := range tr.Paths {
		p := make([]int, len(path))
		for i, e := range path {
			p[i] = int(e)
		}
		window.Push(p)
	}
	ctrl := newController(&cfg, window, Pool(cfg.baseline, cfg.kernel.Experts))
	ctrl.minGain = minGain
	return ctrl, cfg.placement.Clone(), cfg
}

// solveAndComplete drives the two-phase observe/complete flow until the
// detector fires, completing the background solve solveLatency simulated
// seconds after it started. Returns the plan (nil when discarded/rejected)
// and the drift score that launched the solve.
func solveAndComplete(ctrl *controller, cur *placement.Placement, solveLatency float64) (*pendingMigration, float64) {
	for i := 0; i < patience+1; i++ {
		score, solve := ctrl.observe(float64(i), cur, false)
		if solve != nil {
			return ctrl.complete(solve.started+solveLatency, cur, solve), score
		}
	}
	return nil, 0
}

func TestControllerAcceptsWhenGainClearsMinGain(t *testing.T) {
	ctrl, cur, _ := controllerFixture(t, 0.01)
	plan, score := solveAndComplete(ctrl, cur, 0)
	if plan == nil {
		t.Fatalf("drifted window (score %v) produced no plan", score)
	}
	ev := plan.event
	if ev.Moves == 0 || ev.Seconds <= 0 {
		t.Fatalf("plan prices nothing: %+v", ev)
	}
	if ev.PredictedGain < ctrl.minGain {
		t.Fatalf("accepted gain %v below the minimum %v", ev.PredictedGain, ctrl.minGain)
	}
	if ev.Score != score {
		t.Fatalf("event score %v != observed %v", ev.Score, score)
	}
	// The planned placement must stay valid and differ from the current one.
	if err := plan.newPl.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(placement.Diff(cur, plan.newPl)) != ev.Moves {
		t.Fatal("event move count does not match the installed diff")
	}
}

func TestControllerRejectsBelowMinGainAndCoolsDown(t *testing.T) {
	// An impossible gain requirement: every re-solve is rejected and the
	// rejection opens a cooldown window.
	ctrl, cur, _ := controllerFixture(t, 0.99)
	plan, _ := solveAndComplete(ctrl, cur, 0)
	if plan != nil {
		t.Fatalf("gain cannot clear a 0.99 minimum, yet got a plan: %+v", plan.event)
	}
	if ctrl.solves == 0 {
		t.Fatal("controller never re-solved, so the gain gate was not exercised")
	}
	if ctrl.cooldownUntil <= 0 {
		t.Fatal("rejected re-solve must open a cooldown window")
	}
	// Inside the cooldown the controller must not even re-solve.
	solves := ctrl.solves
	for i := 0; i < patience+2; i++ {
		if _, p := ctrl.observe(float64(patience)+0.1*float64(i), cur, false); p != nil {
			t.Fatal("plan produced during cooldown")
		}
	}
	if ctrl.solves != solves {
		t.Fatal("controller re-solved during cooldown")
	}
}

func TestControllerGatesOnBusyAndFill(t *testing.T) {
	ctrl, cur, _ := controllerFixture(t, 0.01)
	// busy: a migration in flight suppresses new plans.
	for i := 0; i < patience+2; i++ {
		if _, p := ctrl.observe(float64(i), cur, true); p != nil {
			t.Fatal("plan produced while a migration is in flight")
		}
	}
	// Adaptive off: score still reported, never a plan.
	ctrl2, cur2, _ := controllerFixture(t, 0.01)
	ctrl2.opts.Adaptive = false
	for i := 0; i < patience+2; i++ {
		score, p := ctrl2.observe(float64(i), cur2, false)
		if p != nil {
			t.Fatal("static controller returned a plan")
		}
		if score <= 0 {
			t.Fatal("score not reported")
		}
	}
}

func TestRollingMigrationPauseAccounting(t *testing.T) {
	// End to end: during a rolling migration only one replica stalls at a
	// time, so the fleet-wide completion spans at least Replicas stalls and
	// every replica keeps its own pause.
	dep, opts, drifted := testSystem(t)
	opts.Adaptive = true
	opts.Phases = driftProgram(opts, drifted)
	rep, err := Run(dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Migrations) == 0 {
		t.Fatal("no migration to audit")
	}
	for _, m := range rep.Migrations {
		if m.Completed < m.Time+float64(opts.Replicas)*m.Seconds {
			t.Fatalf("rolling migration too fast: decided %v, done %v, %d replicas x %vs pause",
				m.Time, m.Completed, opts.Replicas, m.Seconds)
		}
		if m.ChurnSeconds != 0 || m.ResidencyChurn != 0 {
			t.Fatalf("churn priced without a memory layer: %+v", m)
		}
	}
}

func TestControllerStalenessGuardDiscardsDriftedSolve(t *testing.T) {
	// A solve that finishes after the routing mix has moved again answers a
	// stale question: complete must discard it instead of migrating.
	ctrl, cur, opts := controllerFixture(t, 0.01)
	var solve *pendingSolve
	for i := 0; i < patience+1 && solve == nil; i++ {
		_, solve = ctrl.observe(float64(i), cur, false)
	}
	if solve == nil {
		t.Fatal("drifted window launched no solve")
	}
	// While the solve "runs", the live mixture shifts again: overwrite the
	// window with traffic from a different domain than the snapshot saw.
	shifted := synth.Custom("shifted-again", []float64{1, 0, 0, 0, 0, 0}, 0x517)
	router := synth.NewKernelRouter(opts.kernel, shifted, 1)
	tr := trace.Collect(router, opts.kernel.Layers, trace.SequentialIDs(ctrl.window.Capacity(), shifted.TokenID))
	for _, path := range tr.Paths {
		p := make([]int, len(path))
		for i, e := range path {
			p[i] = int(e)
		}
		ctrl.window.Push(p)
	}
	if plan := ctrl.complete(solve.started+2, cur, solve); plan != nil {
		t.Fatalf("stale solve was installed: %+v", plan.event)
	}
	if ctrl.discards != 1 {
		t.Fatalf("discards = %d, want 1", ctrl.discards)
	}
	// A discard must not open a cooldown: the detector streak is still hot
	// and the next observation should be free to launch a fresh solve.
	if ctrl.cooldownUntil > 0 {
		t.Fatal("discard opened a cooldown window")
	}
	if _, again := ctrl.observe(solve.started+3, cur, false); again == nil {
		t.Fatal("controller could not re-solve after a discard")
	}
}

func TestControllerSolveOverlapNotChargedToPause(t *testing.T) {
	// The migration pause must price exactly the parameter copy (plus
	// residency churn when present) — never the solve latency, which the
	// fleet overlapped with serving. A solve completing 3 simulated seconds
	// after launch must yield the same pause as an instantaneous one.
	ctrl, cur, opts := controllerFixture(t, 0.01)
	var solve *pendingSolve
	for i := 0; i < patience+1 && solve == nil; i++ {
		_, solve = ctrl.observe(float64(i), cur, false)
	}
	if solve == nil {
		t.Fatal("drifted window launched no solve")
	}
	const latency = 3.0
	plan := ctrl.complete(solve.started+latency, cur, solve)
	if plan == nil {
		t.Fatal("solve rejected")
	}
	ev := plan.event
	if ev.SolveStarted != solve.started || ev.SolveSeconds != latency {
		t.Fatalf("overlap accounting: started %v (want %v), solve %v (want %v)",
			ev.SolveStarted, solve.started, ev.SolveSeconds, latency)
	}
	// Re-price the installed move set independently: the pause must equal
	// the parameter-copy cost alone (no churn hook in this fixture), with
	// no trace of the 3-second solve.
	want := placement.PriceMoves(placement.Diff(cur, plan.newPl), opts.topo, opts.expertBytes).Seconds
	if ev.Seconds != want {
		t.Fatalf("pause %v != priced parameter copy %v (solve overlap double-charged?)", ev.Seconds, want)
	}
	if ev.Seconds >= latency {
		t.Fatalf("pause %v swallowed the solve latency %v", ev.Seconds, latency)
	}
	if ev.Time != solve.started+latency {
		t.Fatalf("decision time %v, want solve completion %v", ev.Time, solve.started+latency)
	}
}

func TestServeNonBlockingSolveEndToEnd(t *testing.T) {
	// Full run with a non-zero solve latency: migrations must record the
	// overlap, the pause accounting must be unchanged, and the run must
	// stay deterministic.
	dep, opts, drifted := testSystem(t)
	opts.Adaptive = true
	opts.SolveSeconds = 0.4
	opts.Phases = driftProgram(opts, drifted)
	rep, err := Run(dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Solves == 0 {
		t.Fatal("no background solves launched under drift")
	}
	if len(rep.Migrations) == 0 {
		t.Fatal("no migration applied")
	}
	for _, m := range rep.Migrations {
		if math.Abs(m.SolveSeconds-opts.SolveSeconds) > 1e-9 {
			t.Fatalf("migration solve overlap %v, want %v", m.SolveSeconds, opts.SolveSeconds)
		}
		if math.Abs(m.Time-(m.SolveStarted+opts.SolveSeconds)) > 1e-9 {
			t.Fatalf("decision at %v, want solve start %v + %v", m.Time, m.SolveStarted, opts.SolveSeconds)
		}
		// Rolling pause accounting unchanged by the overlap: the fleet-wide
		// completion still spans at least Replicas serialized pauses.
		if m.Completed < m.Time+float64(opts.Replicas)*m.Seconds {
			t.Fatalf("rolling migration too fast: decided %v, done %v", m.Time, m.Completed)
		}
	}
	again, err := Run(dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	if again.Makespan != rep.Makespan || again.Iterations != rep.Iterations || len(again.Migrations) != len(rep.Migrations) {
		t.Fatal("non-blocking solve broke determinism")
	}
}

func TestControllerPerTokenCostOrdersPlacements(t *testing.T) {
	ctrl, _, opts := controllerFixture(t, 0.01)
	counts := ctrl.window.Snapshot()
	staged := placement.Staged(counts, opts.kernel.Layers, opts.kernel.Experts, opts.topo, 77)
	random := placement.Random(opts.kernel.Layers, opts.kernel.Experts, opts.topo.TotalGPUs(), 77)
	cs, cr := ctrl.perTokenCost(counts, staged), ctrl.perTokenCost(counts, random)
	if cs <= 0 || cr <= 0 {
		t.Fatalf("degenerate costs %v %v", cs, cr)
	}
	if cs >= cr {
		t.Fatalf("staged placement should cost less per token than random: %v vs %v", cs, cr)
	}
}
