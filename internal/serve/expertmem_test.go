package serve

import (
	"testing"

	"repro/internal/expertmem"
	"repro/internal/placement"
	"repro/internal/synth"
	"repro/internal/topo"
)

// steadyProgram is a single in-distribution phase at the given load
// fraction of the memory-free capacity knee.
func steadyProgram(o Options, frac, dur float64) []Phase {
	return []Phase{{Name: "steady", Duration: dur, Rate: nearKneeRate(o, frac, 0.2, 0.5), Dataset: synth.Pile()}}
}

func TestServeOversubscription1xAddsNoOverhead(t *testing.T) {
	dep, base, _ := testSystem(t)
	base.Phases = steadyProgram(base, 0.8, 4)

	off, err := Run(dep, base)
	if err != nil {
		t.Fatal(err)
	}
	at1x := base
	at1x.Oversubscription = 1
	at1x.CachePolicy = "affinity"
	on, err := Run(dep, at1x)
	if err != nil {
		t.Fatal(err)
	}
	// Every expert fits, so the memory layer must not move a single number:
	// identical makespan and percentiles, zero stall.
	if on.Makespan != off.Makespan || on.Overall.P95 != off.Overall.P95 {
		t.Fatalf("1x memory layer changed timing: makespan %v vs %v, P95 %v vs %v",
			on.Makespan, off.Makespan, on.Overall.P95, off.Overall.P95)
	}
	if on.ExpertMem == nil || on.ExpertMem.StallSeconds != 0 || on.ExpertMem.Misses != 0 {
		t.Fatalf("1x produced paging activity: %+v", on.ExpertMem)
	}
	if off.ExpertMem != nil {
		t.Fatal("disabled memory layer reported stats")
	}
}

func TestServeAffinityPrefetchBeatsLRUAt2x(t *testing.T) {
	dep, opts, _ := testSystem(t)
	opts.Phases = steadyProgram(opts, 0.6, 5)
	opts.Oversubscription = 2

	run := func(policy string) *Report {
		o := opts
		o.CachePolicy = policy
		rep, err := Run(dep, o)
		if err != nil {
			t.Fatal(err)
		}
		if rep.ExpertMem == nil || rep.ExpertMem.Accesses == 0 {
			t.Fatalf("%s: no memory activity", policy)
		}
		return rep
	}
	lru := run("lru")
	aff := run("affinity")

	if aff.ExpertMem.Prefetches == 0 || aff.ExpertMem.PrefetchHits == 0 {
		t.Fatalf("affinity prefetcher idle: %+v", aff.ExpertMem)
	}
	if aff.ExpertMem.HitRate() <= lru.ExpertMem.HitRate() {
		t.Fatalf("affinity hit rate %.3f not above lru %.3f",
			aff.ExpertMem.HitRate(), lru.ExpertMem.HitRate())
	}
	if aff.Overall.P95 >= lru.Overall.P95 {
		t.Fatalf("affinity P95 %.4fs not below lru %.4fs", aff.Overall.P95, lru.Overall.P95)
	}
}

func TestServeOversubscribedDeterministicReplay(t *testing.T) {
	dep, opts, _ := testSystem(t)
	opts.Phases = steadyProgram(opts, 0.6, 3)
	opts.Oversubscription = 2
	opts.CachePolicy = "affinity"
	a, err := Run(dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || *a.ExpertMem != *b.ExpertMem {
		t.Fatalf("oversubscribed replay diverged:\n%+v\n%+v", a.ExpertMem, b.ExpertMem)
	}
}

func TestServeMigrationPricesResidencyChurn(t *testing.T) {
	dep, opts, drifted := testSystem(t)
	opts.Adaptive = true
	opts.Oversubscription = 2
	opts.CachePolicy = "affinity"
	rate := nearKneeRate(opts, 0.5, 0.2, 0.5)
	opts.Phases = []Phase{
		{Name: "warm", Duration: 3, Rate: rate, Dataset: synth.Pile()},
		{Name: "drift", Duration: 6, Rate: rate, Dataset: drifted},
	}
	rep, err := Run(dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Migrations) == 0 {
		t.Fatal("adaptive oversubscribed fleet never migrated under drift")
	}
	m := rep.Migrations[0]
	if m.ResidencyChurn == 0 || m.ChurnSeconds <= 0 {
		t.Fatalf("migration did not price residency churn: %+v", m)
	}
	if m.Seconds <= m.ChurnSeconds {
		t.Fatalf("pause %v should include parameter copies on top of churn %v", m.Seconds, m.ChurnSeconds)
	}
}

// TestResidencyChurnIsBusiestDestination: each destination GPU refetches
// its resident arrivals over its own host link and all GPUs refill at once,
// so the churn hook prices the larger GPU's refetch time, not the total.
func TestResidencyChurnIsBusiestDestination(t *testing.T) {
	const layers, experts, gpus = 4, 16, 8
	mem := expertmem.New(expertmem.ConfigFor(topo.ForGPUs(gpus), layers, experts, 16<<20, 2, nil, 0, 0, nil))
	assign := placement.Contiguous(layers, experts, gpus).Assign
	mem.Warm(assign)
	// hot[g] and cold[g] list moves off GPU g of its resident and
	// non-resident experts.
	var hot, cold [gpus][]placement.Move
	for l, row := range assign {
		for e, g := range row {
			m := placement.Move{Layer: l, Expert: e, From: g}
			if mem.Resident(g, l, e) {
				hot[g] = append(hot[g], m)
			} else {
				cold[g] = append(cold[g], m)
			}
		}
	}
	if len(hot[2]) < 3 || len(hot[3]) < 1 || len(cold[2]) < 1 {
		t.Fatalf("degenerate fixture: %d and %d resident, %d cold", len(hot[2]), len(hot[3]), len(cold[2]))
	}
	// Three resident experts leave GPU 2 for GPU 0 and one leaves GPU 3 for
	// GPU 1; a non-resident expert leaving GPU 2 for GPU 1 churns nothing.
	moves := []placement.Move{hot[2][0], hot[3][0], cold[2][0], hot[2][1], hot[2][2]}
	for i, to := range []int{0, 1, 1, 0, 0} {
		moves[i].To = to
	}
	fetch := func(m placement.Move) float64 { return mem.FetchSeconds(m.Layer, m.Expert) }
	want0 := fetch(moves[0]) + fetch(moves[3]) + fetch(moves[4])
	want1 := fetch(moves[1])
	if want0 <= want1 {
		t.Fatalf("degenerate fixture: GPU 0 refetches %v, GPU 1 %v", want0, want1)
	}
	n, sec := residencyChurn(mem, gpus, moves)
	if n != 4 {
		t.Fatalf("%d resident copies churned, want 4", n)
	}
	if sec != want0 {
		t.Fatalf("re-warm %v, want GPU 0's %v, not the total %v", sec, want0, want0+want1)
	}
}

func TestServeMigrationAt1xChurnsNothing(t *testing.T) {
	// At 1x every expert fits: migrations must not be charged any
	// residency-churn refetch (the 1x-adds-no-overhead guarantee extends
	// to the controller's pricing).
	dep, opts, drifted := testSystem(t)
	opts.Adaptive = true
	opts.Oversubscription = 1
	opts.CachePolicy = "affinity"
	opts.Phases = driftProgram(opts, drifted)
	rep, err := Run(dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Migrations) == 0 {
		t.Fatal("adaptive fleet never migrated under drift")
	}
	for _, m := range rep.Migrations {
		if m.ResidencyChurn != 0 || m.ChurnSeconds != 0 {
			t.Fatalf("1x migration priced churn: %+v", m)
		}
	}
}

func TestServeValidatesMemoryOptions(t *testing.T) {
	dep, opts, _ := testSystem(t)
	opts.Phases = steadyProgram(opts, 0.5, 1)
	opts.Oversubscription = 0.5
	if _, err := Run(dep, opts); err == nil {
		t.Fatal("fractional oversubscription below 1 accepted")
	}
	opts.Oversubscription = 2
	opts.CachePolicy = "bogus"
	if _, err := Run(dep, opts); err == nil {
		t.Fatal("unknown cache policy accepted")
	}
	opts.Oversubscription = 0
	opts.CachePolicy = "affinity"
	if _, err := Run(dep, opts); err == nil {
		t.Fatal("cache policy without the memory layer accepted")
	}
	opts.CachePolicy = ""
	opts.MemoryAware = true
	if _, err := Run(dep, opts); err == nil {
		t.Fatal("memory-aware re-placement without the memory layer accepted")
	}
	opts.MemoryAware = false
	opts.HostSlots = 32
	// Pinned: an earlier revision silently accepted a HostSlots bound with
	// the memory layer off, leaving the option a no-op.
	if _, err := Run(dep, opts); err == nil {
		t.Fatal("HostSlots without the memory layer accepted")
	}
}

func TestServeMemoryAwareMigrationReportsStallDeltas(t *testing.T) {
	dep, opts, drifted := testSystem(t)
	opts.Adaptive = true
	opts.Oversubscription = 2
	opts.CachePolicy = "affinity"
	opts.MemoryAware = true
	rate := nearKneeRate(opts, 0.5, 0.2, 0.5)
	opts.Phases = []Phase{
		{Name: "warm", Duration: 3, Rate: rate, Dataset: synth.Pile()},
		{Name: "drift", Duration: 6, Rate: rate, Dataset: drifted},
	}
	rep, err := Run(dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Migrations) == 0 {
		t.Fatal("memory-aware adaptive fleet never migrated under drift")
	}
	m := rep.Migrations[0]
	if m.PredictedStallDelta == 0 {
		t.Fatalf("memory-aware migration predicted no stall change: %+v", m)
	}
	if m.RealizedStallDelta == 0 {
		t.Fatalf("realized stall delta not filled: %+v", m)
	}
}

func TestServeMemoryAwareAt1xMatchesCrossingOnly(t *testing.T) {
	// At 1x the memory objective is inactive by construction, so the
	// memory-aware controller must reproduce the crossing-only run exactly.
	dep, opts, drifted := testSystem(t)
	opts.Adaptive = true
	opts.Oversubscription = 1
	opts.CachePolicy = "affinity"
	opts.Phases = driftProgram(opts, drifted)
	plain, err := Run(dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.MemoryAware = true
	aware, err := Run(dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Makespan != aware.Makespan || plain.Overall.P95 != aware.Overall.P95 {
		t.Fatalf("memory-aware at 1x diverged: makespan %v vs %v, P95 %v vs %v",
			aware.Makespan, plain.Makespan, aware.Overall.P95, plain.Overall.P95)
	}
	if len(plain.Migrations) != len(aware.Migrations) {
		t.Fatalf("migration count diverged: %d vs %d", len(aware.Migrations), len(plain.Migrations))
	}
	for i := range aware.Migrations {
		if aware.Migrations[i].PredictedStallDelta != 0 {
			t.Fatalf("1x migration predicted a stall change: %+v", aware.Migrations[i])
		}
	}
}
