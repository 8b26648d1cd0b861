package serve

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// obsResult is one instrumented run: its report and its three sinks.
type obsResult struct {
	rep *Report
	tr  *obs.Tracer
	reg *obs.Registry
	dl  *obs.DecisionLog
}

// obsRun executes the adaptive drift program under tiered expert memory with
// every observability sink attached and the registry's wall clock pinned to
// a constant — solver walls then measure exactly zero, which keeps the
// exported bytes a pure function of the seed.
func obsRun(t *testing.T) (obsResult, error) {
	dep, opts, drifted := testSystem(t)
	opts.Adaptive = true
	opts.Phases = driftProgram(opts, drifted)
	opts.Oversubscription = 2
	opts.CachePolicy = "affinity"
	// Thin the high-volume kinds (fetch/evict/prefetch/admit dominate under
	// 2x oversubscription) so the rare control-plane events are never
	// overwritten by ring wrap; sampling is per-kind and deterministic.
	res := obsResult{
		tr:  obs.NewTracer(obs.TracerOptions{Cap: 1 << 20, Sample: 128}),
		reg: obs.NewRegistry(),
		dl:  obs.NewDecisionLog(0),
	}
	res.reg.SetNow(func() float64 { return 0 })
	opts.Trace = res.tr
	opts.Metrics = res.reg
	opts.Decisions = res.dl
	var err error
	res.rep, err = Run(dep, opts)
	return res, err
}

// sharedObs is the one instrumented run that the tests below share. It is
// made by the first test that asks for it; the tests only read its report
// and sinks (Snapshot, Events, String), so sharing it halves their runs,
// which dominate the package's time under -race.
var sharedObs struct {
	once sync.Once
	res  obsResult
	err  error
}

// sharedObsRun returns the shared instrumented run, failing the test if the
// run failed.
func sharedObsRun(t *testing.T) obsResult {
	t.Helper()
	sharedObs.once.Do(func() { sharedObs.res, sharedObs.err = obsRun(t) })
	if sharedObs.err != nil {
		t.Fatal(sharedObs.err)
	}
	return sharedObs.res
}

// TestServeObservabilityDeterministicExports pins the byte-determinism
// contract: two identical-seed adaptive runs (drift, migrations, tiered
// memory, background solves) must export byte-identical Perfetto traces,
// metric snapshots, and decision logs. The first is the shared run.
func TestServeObservabilityDeterministicExports(t *testing.T) {
	a := sharedObsRun(t)
	b, err := obsRun(t)
	if err != nil {
		t.Fatal(err)
	}

	j1, err := obs.PerfettoJSON(a.tr)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := obs.PerfettoJSON(b.tr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("trace exports diverged across identical-seed runs (%d vs %d bytes)", len(j1), len(j2))
	}

	m1, err := a.reg.Snapshot().MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := b.reg.Snapshot().MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m1, m2) {
		t.Fatalf("metrics exports diverged across identical-seed runs:\n%s\nvs\n%s", m1, m2)
	}

	if a.dl.String() != b.dl.String() {
		t.Fatal("decision logs diverged across identical-seed runs")
	}
}

// TestServeMemStallMetricMatchesReport pins the exactness contract between
// the metrics layer and the report: mem_stall_seconds mirrors
// Report.MemStallSeconds addition-for-addition, so the two must be equal to
// the bit, not merely within tolerance.
func TestServeMemStallMetricMatchesReport(t *testing.T) {
	run := sharedObsRun(t)
	rep, reg := run.rep, run.reg
	if rep.MemStallSeconds <= 0 {
		t.Fatal("fixture produced no memory stall; the exactness check needs a nonzero value")
	}
	snap := reg.Snapshot()
	if got := snap.Counters["mem_stall_seconds"]; got != rep.MemStallSeconds {
		t.Fatalf("mem_stall_seconds %v != Report.MemStallSeconds %v (delta %g)",
			got, rep.MemStallSeconds, got-rep.MemStallSeconds)
	}
	if rep.Metrics == nil {
		t.Fatal("Report.Metrics not filled despite attached registry")
	}
	if got := rep.Metrics.Counters["mem_stall_seconds"]; got != rep.MemStallSeconds {
		t.Fatalf("Report.Metrics mem_stall_seconds %v != MemStallSeconds %v", got, rep.MemStallSeconds)
	}
}

// TestServeTraceCoversLifecycle asserts one instrumented run emits every
// event family the Perfetto export renders: request admissions, iteration
// spans, expert stalls and fetches, migration pauses, and the solver
// lifecycle — plus the decision-log lines that narrate the controller.
func TestServeTraceCoversLifecycle(t *testing.T) {
	run := sharedObsRun(t)
	rep, tr, reg, dl := run.rep, run.tr, run.reg, run.dl
	if len(rep.Migrations) == 0 {
		t.Fatal("fixture produced no migrations; lifecycle coverage needs at least one")
	}
	kinds := map[obs.EventKind]int{}
	for _, e := range tr.Events() {
		kinds[e.Kind]++
	}
	for _, k := range []obs.EventKind{
		obs.EvAdmit, obs.EvFinish, obs.EvIteration, obs.EvExpertStall, obs.EvFetch,
		obs.EvDrift, obs.EvQueueDepth, obs.EvSolveStart, obs.EvSolve, obs.EvInstall, obs.EvPause,
	} {
		if kinds[k] == 0 {
			t.Errorf("no %v events in the trace", k)
		}
	}
	// The pause span count matches the report: one per replica per migration.
	wantPauses := len(rep.Migrations) * 2 // fixture runs 2 replicas
	if kinds[obs.EvPause] != wantPauses {
		t.Errorf("migration-pause spans = %d, want %d (%d migrations x 2 replicas)",
			kinds[obs.EvPause], wantPauses, len(rep.Migrations))
	}

	log := dl.String()
	for _, want := range []string{"observe drift=", "solve-launch drift=", "solve-accept gain=", "migration-complete"} {
		if !strings.Contains(log, want) {
			t.Errorf("decision log missing %q", want)
		}
	}

	// Solver metrics flowed through the registry from the background solve.
	snap := reg.Snapshot()
	if snap.Counters["controller_solves_total"] != float64(rep.Solves) {
		t.Errorf("controller_solves_total %v != Report.Solves %d",
			snap.Counters["controller_solves_total"], rep.Solves)
	}
	if snap.Counters["solver_swaps_proposed_total"] == 0 {
		t.Error("solver_swaps_proposed_total never incremented")
	}
	if h, ok := snap.Histograms["solver_wall_seconds"]; !ok || h.Count == 0 {
		t.Error("solver_wall_seconds histogram empty")
	}
	if h, ok := snap.Histograms["expertmem_fetch_seconds"]; !ok || h.Count == 0 {
		t.Error("expertmem_fetch_seconds histogram empty")
	}
}
