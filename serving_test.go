package exflow

import (
	"math"
	"strings"
	"testing"

	"repro/internal/moe"
)

// TestServeOptionValidation: malformed serving options must fail fast with
// a field-naming error — before the expensive engine calibration — instead
// of panicking (negative window) or hanging (negative arrival rate spins
// the arrival generator forever).
func TestServeOptionValidation(t *testing.T) {
	cfg := moe.GPTM(8)
	cfg.Layers = 4
	sys := NewSystem(SystemOptions{Model: cfg, GPUs: 4, Seed: 1})

	cases := []struct {
		name string
		opts ServeOptions
		want string
	}{
		{"negative replicas", ServeOptions{Replicas: -2}, "Replicas"},
		{"negative window", ServeOptions{Window: -1}, "TraceWindow"},
		{"negative max batch", ServeOptions{MaxBatch: -8}, "MaxBatch"},
		{"negative decode", ServeOptions{DecodeTokens: -1}, "DecodeTokens"},
		{"negative profile", ServeOptions{ProfileTokens: -10}, "ProfileTokens"},
		// Profile ordinals past 1<<20 would overlap the calibration,
		// held-out and live token streams.
		{"profile into calibration tokens", ServeOptions{ProfileTokens: 1<<20 + 1}, "ProfileTokens"},
		{"negative load", ServeOptions{LoadFrac: -0.5}, "LoadFrac"},
		// NaN and +Inf slip past ordered comparisons and would spin the
		// arrival generator forever.
		{"NaN load", ServeOptions{LoadFrac: math.NaN()}, "LoadFrac"},
		{"infinite load", ServeOptions{LoadFrac: math.Inf(1)}, "LoadFrac"},
		{"negative rate", ServeOptions{Phases: []ServePhase{{Duration: 1, Rate: -3}}}, "rate"},
		{"NaN rate", ServeOptions{Phases: []ServePhase{{Duration: 1, Rate: math.NaN()}}}, "rate"},
		{"infinite rate", ServeOptions{Phases: []ServePhase{{Duration: 1, Rate: math.Inf(1)}}}, "rate"},
		{"zero duration", ServeOptions{Phases: []ServePhase{{Duration: 0, Rate: 1}}}, "Duration"},
		{"negative duration", ServeOptions{Phases: []ServePhase{{Duration: -2, Rate: 1}}}, "Duration"},
		{"NaN duration", ServeOptions{Phases: []ServePhase{{Duration: math.NaN(), Rate: 1}}}, "Duration"},
		{"infinite duration", ServeOptions{Phases: []ServePhase{{Duration: math.Inf(1), Rate: 1}}}, "Duration"},
		{"bad arrival", ServeOptions{Phases: []ServePhase{{Duration: 1, Rate: 1, Arrival: "fractal"}}}, "arrival"},
		{"fractional oversub", ServeOptions{Oversubscription: 0.5}, "Oversubscription"},
		{"negative oversub", ServeOptions{Oversubscription: -2}, "Oversubscription"},
		{"negative host slots", ServeOptions{HostSlots: -1}, "HostSlots"},
		{"bad cache policy", ServeOptions{Oversubscription: 2, CachePolicy: "lru2"}, "cache policy"},
		// A cache policy (or memory-aware re-placement) without the memory
		// layer is rejected, not silently ignored: the policy would be a
		// no-op, which almost always means Oversubscription was forgotten.
		{"policy without memory layer", ServeOptions{CachePolicy: "affinity"}, "Oversubscription"},
		{"memory-aware without memory layer", ServeOptions{MemoryAware: true}, "Oversubscription"},
		// HostSlots without the memory layer bounds a tier that doesn't
		// exist; rejected so the caller notices the missing Oversubscription
		// (pinned here because an earlier revision silently accepted it).
		{"host slots without memory layer", ServeOptions{HostSlots: 32}, "Oversubscription"},
		// Fleet specs are validated at the public boundary too.
		{"fleet min over max", ServeOptions{Fleet: &FleetSpec{MinReplicas: 5, MaxReplicas: 2}}, "MaxReplicas"},
		{"fleet replicas outside bounds", ServeOptions{Replicas: 1, Fleet: &FleetSpec{MinReplicas: 2, MaxReplicas: 4}}, "bounds"},
		{"fleet shared cache without memory layer", ServeOptions{Fleet: &FleetSpec{SharedHostCache: true}}, "Oversubscription"},
		{"fleet shared cache without host slots", ServeOptions{Oversubscription: 2, Fleet: &FleetSpec{SharedHostCache: true}}, "HostSlots"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, _, err := Serve(sys, c.opts); err == nil {
				t.Fatalf("Serve accepted %+v", c.opts)
			} else if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not name %q", err, c.want)
			}
			if _, err := CalibrateServe(sys, c.opts); err == nil {
				t.Fatalf("CalibrateServe accepted %+v", c.opts)
			}
		})
	}

	// Zero values everywhere remain legal: they mean "use the defaults".
	if err := (ServeOptions{}).Validate(); err != nil {
		t.Fatalf("zero options must validate: %v", err)
	}
}
