package serve

import (
	"testing"

	"repro/internal/chaos"
	"repro/internal/fleet"
	"repro/internal/synth"
)

// Serve-level fault-injection tests: the chaos layer's integration with the
// event loop (crash/recover, redispatch, quiet windows), the tiered memory
// layer (degraded links, retry exhaustion, shedding), and the report ledger.

func TestServeChaosEmptyScheduleBitIdentical(t *testing.T) {
	dep, base, _ := testSystem(t)
	base.Phases = steadyProgram(base, 0.8, 4)
	off, err := Run(dep, base)
	if err != nil {
		t.Fatal(err)
	}
	on := base
	on.Chaos = &chaos.Schedule{}
	got, err := Run(dep, on)
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != off.Makespan || got.Requests != off.Requests ||
		got.Iterations != off.Iterations ||
		got.Overall.P50 != off.Overall.P50 || got.Overall.P95 != off.Overall.P95 {
		t.Fatalf("empty chaos schedule changed the run:\n  nil:   %+v\n  empty: %+v", off.Overall, got.Overall)
	}
	if got.Faults != nil {
		t.Fatal("fault ledger present for an empty schedule")
	}
}

func TestServeChaosCrashRecoversTail(t *testing.T) {
	dep, opts, _ := testSystem(t)
	opts.Phases = steadyProgram(opts, 0.7, 10)
	base, err := Run(dep, opts)
	if err != nil {
		t.Fatal(err)
	}

	const crashAt, recoverAfter = 3.0, 1.0
	opts.Chaos = &chaos.Schedule{Faults: []chaos.Fault{chaos.Crash(crashAt, 1, recoverAfter)}}
	rep, err := Run(dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	fr := rep.Faults
	if fr == nil || len(fr.Crashes) != 1 {
		t.Fatalf("fault ledger missing or wrong: %+v", fr)
	}
	c := fr.Crashes[0]
	if c.Replica != 1 || c.At != crashAt {
		t.Fatalf("crash outcome %+v, want replica 1 at %v", c, crashAt)
	}
	if fr.Recoveries != 1 || c.RecoveredAt < crashAt+recoverAfter {
		t.Fatalf("recovery missing or too early: %+v", fr)
	}
	if fr.DowntimeSeconds < recoverAfter {
		t.Fatalf("downtime %.3fs below the scheduled %vs outage", fr.DowntimeSeconds, recoverAfter)
	}
	if c.Redispatched == 0 || fr.Redispatched != c.Redispatched {
		t.Fatalf("crash at 70%% load redispatched nothing: %+v", fr)
	}
	// No request is lost to the crash: redispatch preserves every admitted
	// request end to end.
	if rep.Requests != base.Requests {
		t.Fatalf("crash lost requests: %d vs %d fault-free", rep.Requests, base.Requests)
	}
	// The outage is visible in the tail...
	during := rep.WindowStats(crashAt, c.RecoveredAt)
	pre := rep.WindowStats(0.5, crashAt)
	if during.Requests == 0 || pre.Requests == 0 {
		t.Fatal("comparison windows empty")
	}
	if during.P95 <= pre.P95 {
		t.Fatalf("outage invisible: during P95 %.3fs <= pre-crash %.3fs", during.P95, pre.P95)
	}
	// ...and the recovery pulls P95 back toward the pre-crash level within a
	// recovery window (the scenario matrix gates the 25%% bound at bench
	// scale; the small fixture gets a looser 50%%).
	post := rep.WindowStats(c.RecoveredAt+1, 10)
	if post.Requests == 0 {
		t.Fatal("post-recovery window empty")
	}
	if post.P95 > 1.5*pre.P95 {
		t.Fatalf("tail never recovered: post P95 %.3fs vs pre-crash %.3fs", post.P95, pre.P95)
	}
}

func TestServeChaosCrashForeverLosesCapacity(t *testing.T) {
	dep, opts, _ := testSystem(t)
	opts.Phases = steadyProgram(opts, 0.6, 6)
	base, err := Run(dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Chaos = &chaos.Schedule{Faults: []chaos.Fault{chaos.CrashForever(2, 1)}}
	rep, err := Run(dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	fr := rep.Faults
	if fr == nil || len(fr.Crashes) != 1 || fr.Recoveries != 0 {
		t.Fatalf("permanent crash ledger wrong: %+v", fr)
	}
	if fr.Crashes[0].RecoveredAt != 0 {
		t.Fatalf("permanent crash recovered: %+v", fr.Crashes[0])
	}
	// Work conserves (the survivor absorbs everything)...
	if rep.Requests != base.Requests {
		t.Fatalf("permanent crash lost requests: %d vs %d", rep.Requests, base.Requests)
	}
	// ...but at half capacity the post-crash tail is strictly worse.
	post, basePost := rep.WindowStats(2.5, 6), base.WindowStats(2.5, 6)
	if post.P95 <= basePost.P95 {
		t.Fatalf("halving the fleet did not hurt the tail: %.3fs vs %.3fs", post.P95, basePost.P95)
	}
}

func TestServeChaosDegradedLinkStretchesStalls(t *testing.T) {
	dep, opts, _ := testSystem(t)
	opts.Oversubscription = 2
	opts.CachePolicy = "affinity"
	opts.Phases = steadyProgram(opts, 0.7, 4)
	base, err := Run(dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Chaos = &chaos.Schedule{Faults: []chaos.Fault{chaos.DegradeLink(1, 2.5, 4)}}
	rep, err := Run(dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults == nil || rep.Faults.LinkDegradeWindows != 1 {
		t.Fatalf("degrade window not ledgered: %+v", rep.Faults)
	}
	if rep.MemStallSeconds <= base.MemStallSeconds {
		t.Fatalf("4x degraded link did not stretch stalls: %.4fs vs %.4fs",
			rep.MemStallSeconds, base.MemStallSeconds)
	}
}

func TestServeChaosRetryExhaustionShedsGracefully(t *testing.T) {
	dep, opts, _ := testSystem(t)
	opts.Oversubscription = 2
	opts.CachePolicy = "lru"
	opts.Phases = steadyProgram(opts, 0.7, 4)
	base, err := Run(dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	// A permanently degraded link under a tight stall timeout: demand fetches
	// time out, retry, exhaust, and the affected requests shed instead of
	// wedging the batch.
	opts.Chaos = &chaos.Schedule{
		Faults:       []chaos.Fault{chaos.DegradeLink(0.5, 3.5, 50)},
		FetchTimeout: 0.002, FetchRetries: 1, FetchBackoff: 0.001,
	}
	rep, err := Run(dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	fr := rep.Faults
	if fr == nil || fr.FetchTimeouts == 0 || fr.RetryExhausted == 0 {
		t.Fatalf("tight timeout under a 50x degraded link never exhausted: %+v", fr)
	}
	if fr.ShedRetryExhausted == 0 {
		t.Fatalf("exhausted fetches shed nothing: %+v", fr)
	}
	// Conservation: every admitted request either finished or was shed, and
	// the run terminated (no hang) — reaching this line at all proves the
	// batch never wedged.
	if rep.Requests+fr.ShedRetryExhausted != base.Requests {
		t.Fatalf("request conservation broke: %d finished + %d shed != %d offered",
			rep.Requests, fr.ShedRetryExhausted, base.Requests)
	}
}

func TestServeChaosPreemptibleDMA(t *testing.T) {
	dep, opts, _ := testSystem(t)
	opts.Oversubscription = 2
	opts.CachePolicy = "affinity"
	opts.Phases = steadyProgram(opts, 0.7, 4)
	fifo, err := Run(dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Chaos = &chaos.Schedule{PreemptibleDMA: true}
	rep, err := Run(dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults == nil || rep.Faults.Preemptions == 0 {
		t.Fatalf("preemptible DMA never preempted a speculative transfer: %+v", rep.Faults)
	}
	// Yielding the link to demand misses must not hurt the charged stall (the
	// scenario matrix gates the strict P95 win at bench scale).
	if rep.MemStallSeconds > fifo.MemStallSeconds {
		t.Fatalf("preemptible DMA raised stalls: %.4fs vs FIFO %.4fs",
			rep.MemStallSeconds, fifo.MemStallSeconds)
	}
}

func TestServeChaosCrashDuringAutoscale(t *testing.T) {
	dep, opts, _ := testSystem(t)
	warm := nearKneeRate(opts, 0.5, 0.2, 0.5)
	opts.Phases = []Phase{
		{Name: "warm", Duration: 3, Rate: warm, Dataset: synth.Pile()},
		{Name: "tail", Duration: 7, Rate: warm, Dataset: synth.Pile()},
	}
	opts.Fleet = &fleet.Spec{
		MinReplicas: 2, MaxReplicas: 4,
		ReconcileInterval: 0.25,
		ScaleUpCooldown:   0.5,
		ScaleDownCooldown: 1,
		DownscaleStreak:   2,
		ForecastHalfLife:  0.5,
	}
	// A permanent crash under an autoscaling fleet: the dead slot's capacity
	// loss shows up in the reconciler's committed count, and the autoscaler
	// is free to re-commission a different slot.
	opts.Chaos = &chaos.Schedule{Faults: []chaos.Fault{chaos.CrashForever(3, 1)}}
	rep, err := Run(dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	fr, fl := rep.Faults, rep.Fleet
	if fr == nil || len(fr.Crashes) != 1 {
		t.Fatalf("crash not ledgered: %+v", fr)
	}
	if fl == nil {
		t.Fatal("fleet report missing")
	}
	if fl.ScaleUps == 0 {
		t.Fatalf("autoscaler never replaced the crashed capacity: %+v", fl)
	}
	if rep.Requests != fl.Arrivals {
		t.Fatalf("fleet accounting broke under chaos: %+v vs %d requests", fl, rep.Requests)
	}
}

func TestServeChaosDrainConservation(t *testing.T) {
	// Scale-down with a queued backlog: the drained replica's queue moves to
	// the survivors immediately and every arrival still finishes.
	dep, opts, _ := testSystem(t)
	warm := nearKneeRate(opts, 0.4, 0.2, 0.5)
	opts.Phases = []Phase{
		{Name: "spike", Duration: 2, Rate: 4 * warm, Dataset: synth.Pile()},
		{Name: "calm", Duration: 8, Rate: warm / 2, Dataset: synth.Pile()},
	}
	opts.Fleet = &fleet.Spec{
		MinReplicas: 1, MaxReplicas: 4,
		ReconcileInterval: 0.25,
		ScaleUpCooldown:   0.5,
		ScaleDownCooldown: 0.5,
		DownscaleStreak:   2,
		ForecastHalfLife:  0.5,
	}
	rep, err := Run(dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	fl := rep.Fleet
	if fl.ScaleDowns == 0 {
		t.Fatalf("fleet never drained after the spike: %+v", fl)
	}
	// finished == arrivals: nothing was stranded on a retired replica.
	if rep.Requests != fl.Arrivals {
		t.Fatalf("%d arrivals but %d finished — drain stranded requests", fl.Arrivals, rep.Requests)
	}
}

func TestServeChaosValidation(t *testing.T) {
	dep, opts, _ := testSystem(t)
	opts.Phases = steadyProgram(opts, 0.5, 2)

	bad := opts
	bad.Chaos = &chaos.Schedule{Faults: []chaos.Fault{chaos.Crash(1, 0, 1)}}
	if _, err := Run(dep, bad); err == nil {
		t.Fatal("crashing replica 0 must be rejected")
	}
	bad = opts
	bad.Chaos = &chaos.Schedule{Faults: []chaos.Fault{chaos.Crash(1, 7, 1)}}
	if _, err := Run(dep, bad); err == nil {
		t.Fatal("crashing a replica beyond the slot count must be rejected")
	}
	bad = opts
	bad.Chaos = &chaos.Schedule{FetchTimeout: 0.01}
	if _, err := Run(dep, bad); err == nil {
		t.Fatal("memory-path fault without Oversubscription must be rejected")
	}
	bad = opts
	bad.Chaos = &chaos.Schedule{PreemptibleDMA: true}
	if _, err := Run(dep, bad); err == nil {
		t.Fatal("preemptible DMA without Oversubscription must be rejected")
	}
	bad = opts
	bad.Chaos = &chaos.Schedule{Faults: []chaos.Fault{chaos.DegradeLink(1, 1, 0.5)}}
	if _, err := Run(dep, bad); err == nil {
		t.Fatal("degrade factor below 1 must be rejected")
	}
}

func TestServeChaosDeterministicReplay(t *testing.T) {
	dep, opts, _ := testSystem(t)
	opts.Oversubscription = 2
	opts.CachePolicy = "affinity"
	opts.Phases = steadyProgram(opts, 0.7, 5)
	opts.Chaos = &chaos.Schedule{
		Faults: []chaos.Fault{
			chaos.Crash(1.5, 1, 0.5),
			chaos.DegradeLink(3, 1, 3),
		},
		FetchTimeout: 0.05, FetchRetries: 2,
	}
	a, err := Run(dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.Requests != b.Requests || a.Iterations != b.Iterations ||
		a.Overall.P95 != b.Overall.P95 || a.MemStallSeconds != b.MemStallSeconds {
		t.Fatalf("chaos replay diverged:\n  a: %+v\n  b: %+v", a.Overall, b.Overall)
	}
	af, bf := a.Faults, b.Faults
	if af.String() != bf.String() {
		t.Fatalf("fault ledger diverged:\n  a: %s\n  b: %s", af, bf)
	}
	if len(af.Crashes) != len(bf.Crashes) {
		t.Fatalf("crash count diverged: %d vs %d", len(af.Crashes), len(bf.Crashes))
	}
	for i := range af.Crashes {
		if af.Crashes[i] != bf.Crashes[i] {
			t.Fatalf("crash outcome %d diverged: %+v vs %+v", i, af.Crashes[i], bf.Crashes[i])
		}
	}
}
