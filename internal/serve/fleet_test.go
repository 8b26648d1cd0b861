package serve

import (
	"testing"

	"repro/internal/fleet"
	"repro/internal/synth"
)

// TestServeFleetInertSpecBitIdentical: an all-zero fleet spec must not move a
// single number relative to no fleet tier at all — the tier's hooks are pure
// bookkeeping until a policy is enabled.
func TestServeFleetInertSpecBitIdentical(t *testing.T) {
	dep, base, _ := testSystem(t)
	base.Phases = steadyProgram(base, 0.8, 4)

	off, err := Run(dep, base)
	if err != nil {
		t.Fatal(err)
	}
	on := base
	on.Fleet = &fleet.Spec{}
	got, err := Run(dep, on)
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != off.Makespan || got.Requests != off.Requests ||
		got.Tokens != off.Tokens || got.Iterations != off.Iterations ||
		got.Overall.P50 != off.Overall.P50 || got.Overall.P95 != off.Overall.P95 ||
		got.Overall.P99 != off.Overall.P99 {
		t.Fatalf("inert fleet spec changed the run:\n  nil:   %+v\n  inert: %+v", off.Overall, got.Overall)
	}
	fl := got.Fleet
	if fl == nil {
		t.Fatal("fleet report missing with Fleet set")
	}
	if fl.Arrivals != got.Requests {
		t.Fatalf("inert fleet accounting: %+v (want every arrival finished)", fl)
	}
	if off.Fleet != nil {
		t.Fatal("fleet report present without a fleet spec")
	}
}

// TestServeFleetConservation: every offered request finishes under any fleet
// spec — inert, a shared host cache, or an autoscaler that scales up through
// an overload and drains afterwards. The arms offer the fleet-nil run's
// arrival stream, so each fleet report counts exactly its own finished
// requests and the fleet-nil run's.
func TestServeFleetConservation(t *testing.T) {
	dep, opts, _ := testSystem(t)
	opts.Oversubscription = 2
	opts.HostSlots = dep.Kernel.Layers * dep.Kernel.Experts / 4
	warm := nearKneeRate(opts, 0.4, 0.2, 0.5)
	opts.Phases = []Phase{
		{Name: "warm", Duration: 2, Rate: warm, Dataset: synth.Pile()},
		{Name: "spike", Duration: 2, Rate: 4 * warm, Dataset: synth.Pile()},
		{Name: "recover", Duration: 3, Rate: warm / 2, Dataset: synth.Pile()},
	}
	off, err := Run(dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		spec *fleet.Spec
	}{
		{"inert", &fleet.Spec{}},
		{"shared-cache", &fleet.Spec{SharedHostCache: true}},
		{"autoscaling", &fleet.Spec{
			MinReplicas: 2, MaxReplicas: 4,
			ReconcileInterval: 0.25,
			ScaleUpCooldown:   0.5,
			ScaleDownCooldown: 1,
			DownscaleStreak:   2,
			ForecastHalfLife:  0.5,
		}},
	} {
		o := opts
		o.Fleet = c.spec
		rep, err := Run(dep, o)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fl := rep.Fleet
		if fl.Arrivals != rep.Requests || fl.Arrivals != off.Requests {
			t.Fatalf("%s: %d arrivals, %d finished, %d finished without a fleet tier",
				c.name, fl.Arrivals, rep.Requests, off.Requests)
		}
		if c.spec.Autoscaling() && (fl.ScaleUps == 0 || fl.ScaleDowns == 0) {
			t.Fatalf("%s: the overload never exercised both scaling paths: %+v", c.name, fl)
		}
	}
}

// TestServeFleetSharedHostCache: co-located replicas sharing one DRAM master
// tier must fetch strictly less from NVMe than replicas with independent
// tiers — the second replica's cold fetch becomes a DRAM hit.
func TestServeFleetSharedHostCache(t *testing.T) {
	dep, opts, _ := testSystem(t)
	opts.Oversubscription = 2
	opts.CachePolicy = "affinity"
	opts.HostSlots = dep.Kernel.Layers * dep.Kernel.Experts / 4
	opts.Phases = steadyProgram(opts, 0.8, 4)

	indep, err := Run(dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	shared := opts
	shared.Fleet = &fleet.Spec{SharedHostCache: true}
	rep, err := Run(dep, shared)
	if err != nil {
		t.Fatal(err)
	}
	cs := rep.Fleet.HostCache
	if cs == nil {
		t.Fatal("shared host cache stats missing")
	}
	if cs.DRAMHits == 0 {
		t.Fatal("shared host tier never served a DRAM hit")
	}
	if rep.ExpertMem.NVMeFetches >= indep.ExpertMem.NVMeFetches {
		t.Fatalf("shared tier fetched %d from NVMe, independent tiers %d — sharing must strictly reduce fleet NVMe traffic",
			rep.ExpertMem.NVMeFetches, indep.ExpertMem.NVMeFetches)
	}
}

// TestServeFleetAutoscalerSpike: a flash crowd scales the fleet up within the
// spec's bounds and the recovery drains it back down.
func TestServeFleetAutoscalerSpike(t *testing.T) {
	dep, opts, _ := testSystem(t)
	warm := nearKneeRate(opts, 0.4, 0.2, 0.5)
	opts.Phases = []Phase{
		{Name: "warm", Duration: 3, Rate: warm, Dataset: synth.Pile()},
		{Name: "spike", Duration: 3, Rate: 4 * warm, Dataset: synth.Pile()},
		{Name: "recover", Duration: 8, Rate: warm / 2, Dataset: synth.Pile()},
	}
	opts.Fleet = &fleet.Spec{
		MinReplicas: 2, MaxReplicas: 4,
		ReconcileInterval: 0.25,
		ScaleUpCooldown:   0.5,
		ScaleDownCooldown: 1,
		DownscaleStreak:   2,
		ForecastHalfLife:  0.5,
	}
	rep, err := Run(dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	fl := rep.Fleet
	if fl.ScaleUps == 0 {
		t.Fatalf("autoscaler never scaled up through a 4x spike: %+v", fl)
	}
	if fl.MaxLive <= opts.Replicas || fl.MaxLive > 4 {
		t.Fatalf("peak live %d, want in (%d, 4]", fl.MaxLive, opts.Replicas)
	}
	if fl.ScaleDowns == 0 || fl.FinalLive >= fl.MaxLive {
		t.Fatalf("autoscaler never drained after the spike: %+v", fl)
	}
	if fl.Replicas == nil || len(fl.Replicas.X) == 0 {
		t.Fatal("fleet replica series missing")
	}
	// Elastic capacity must actually absorb the spike: requests arriving
	// during the 4x window see lower tail latency than on the fixed fleet.
	// (Makespan is no discriminator — both runs end with the same last
	// recover-phase arrival.)
	fixed := opts
	fixed.Fleet = nil
	base, err := Run(dep, fixed)
	if err != nil {
		t.Fatal(err)
	}
	spike, baseSpike := rep.WindowStats(3, 6), base.WindowStats(3, 6)
	if spike.P95 >= baseSpike.P95 {
		t.Fatalf("autoscaled spike P95 %.3fs not below fixed fleet %.3fs", spike.P95, baseSpike.P95)
	}
}
