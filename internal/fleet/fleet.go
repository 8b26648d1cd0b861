// Package fleet is the node-level coordination tier above the serving
// simulator: it owns what co-located replicas share and how many of them
// exist. Two pieces compose it:
//
//   - a shared host-DRAM master-copy cache (HostCache): one popularity-ranked,
//     HostSlots-bounded DRAM tier per node instead of one per replica, with
//     per-replica reference counts and coherence invalidation on migration
//     install — a weight fetched by one replica is a DRAM hit for its
//     neighbors, and fleet-wide NVMe traffic collapses to one fetch per cold
//     expert instead of one per replica;
//
//   - an autoscaler (Autoscaler) running a reconciliation loop on the
//     simulated clock: a declarative Spec states the desired world (min/max
//     replicas, cooldowns, cadence), an EWMA forecasts the arrival
//     rate, and each reconcile step moves the committed replica count one
//     decision toward desired — spiderpool's controller/agent split for
//     declaratively-specified elastic resource pools is the architectural
//     exemplar.
//
// The package is pure policy plus bookkeeping: internal/serve owns the event
// loop and calls in; nothing here touches a clock or a goroutine.
package fleet

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// targetUtilization is the fraction of fleet decode capacity the autoscaler
// provisions for: desired = ceil(forecast demand / (targetUtilization *
// per-replica capacity)).
const targetUtilization = 0.75

// Spec declares the fleet tier's desired state. The zero value is inert: no
// autoscaling and no shared cache — a serving run with an inert Spec is
// bit-identical to one with no fleet tier at all.
type Spec struct {
	// SharedHostCache replaces each replica's independent host-DRAM
	// master-copy tier with one node-level HostCache shared by all
	// co-located replicas. Requires the memory layer (Oversubscription > 0)
	// and a bounded host tier (HostSlots > 0).
	SharedHostCache bool

	// MinReplicas / MaxReplicas bound the autoscaler. MaxReplicas 0 disables
	// autoscaling (the replica count stays at ServeOptions.Replicas). When
	// enabled, MinReplicas defaults to 1 and the initial replica count must
	// lie inside [MinReplicas, MaxReplicas].
	MinReplicas int
	MaxReplicas int
	// ForecastHalfLife is the EWMA half-life in simulated seconds of the
	// arrival-rate forecast (default 5).
	ForecastHalfLife float64
	// ScaleUpCooldown / ScaleDownCooldown are the minimum simulated seconds
	// between consecutive scale-ups / scale-downs (defaults 2 and 6 — fast
	// out, slow back, the standard asymmetry against flapping).
	ScaleUpCooldown   float64
	ScaleDownCooldown float64
	// DownscaleStreak is how many consecutive reconcile rounds must want
	// fewer replicas before one is drained (default 3) — hysteresis so a
	// boundary arrival rate never flaps the fleet.
	DownscaleStreak int
	// ReconcileInterval is the reconciliation cadence in simulated seconds
	// (default 1).
	ReconcileInterval float64
}

// Autoscaling reports whether the spec enables elastic replica scaling.
func (s *Spec) Autoscaling() bool { return s.MaxReplicas > 0 }

// WithDefaults resolves zero tunables to their defaults, returning a copy.
func (s Spec) WithDefaults() Spec {
	if s.ForecastHalfLife == 0 {
		s.ForecastHalfLife = 5
	}
	if s.ScaleUpCooldown == 0 {
		s.ScaleUpCooldown = 2
	}
	if s.ScaleDownCooldown == 0 {
		s.ScaleDownCooldown = 6
	}
	if s.DownscaleStreak == 0 {
		s.DownscaleStreak = 3
	}
	if s.ReconcileInterval == 0 {
		s.ReconcileInterval = 1
	}
	if s.Autoscaling() && s.MinReplicas == 0 {
		s.MinReplicas = 1
	}
	return s
}

// Validate rejects malformed specs. replicas is the deployment's initial
// replica count, which autoscaling bounds must bracket.
func (s *Spec) Validate(replicas int) error {
	switch {
	case s.MinReplicas < 0 || s.MaxReplicas < 0:
		return fmt.Errorf("fleet: MinReplicas and MaxReplicas must be non-negative, got %d/%d", s.MinReplicas, s.MaxReplicas)
	case s.MinReplicas > 0 && s.MaxReplicas == 0:
		return fmt.Errorf("fleet: MinReplicas %d set but MaxReplicas is 0 (autoscaling off); set MaxReplicas or drop the floor", s.MinReplicas)
	case s.MaxReplicas > 0 && s.MinReplicas > s.MaxReplicas:
		return fmt.Errorf("fleet: MinReplicas %d exceeds MaxReplicas %d", s.MinReplicas, s.MaxReplicas)
	case s.MaxReplicas > 0 && (replicas < s.MinReplicas || replicas > s.MaxReplicas):
		return fmt.Errorf("fleet: initial replica count %d outside autoscaler bounds [%d, %d]", replicas, s.MinReplicas, s.MaxReplicas)
	case s.DownscaleStreak < 0:
		return fmt.Errorf("fleet: DownscaleStreak must be non-negative, got %d", s.DownscaleStreak)
	}
	// NaN passes every ordered comparison and +Inf every lower bound, so
	// each time tunable is checked for finiteness explicitly.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"ForecastHalfLife", s.ForecastHalfLife}, {"ScaleUpCooldown", s.ScaleUpCooldown},
		{"ScaleDownCooldown", s.ScaleDownCooldown}, {"ReconcileInterval", s.ReconcileInterval},
	} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("fleet: time tunables must be non-negative and finite, got %s = %v", f.name, f.v)
		}
	}
	return nil
}

// Report summarizes the fleet tier's activity over one serving run.
type Report struct {
	// Arrivals counts the requests offered to the front-end; every one is
	// enqueued on a serving replica.
	Arrivals int
	// ScaleUps / ScaleDowns count autoscaler actions; MaxLive and FinalLive
	// are the peak and end-of-run serving replica counts.
	ScaleUps, ScaleDowns int
	MaxLive, FinalLive   int
	// Replicas is the committed (live + warming) replica count over time.
	Replicas *stats.Series
	// HostCache is the shared host tier's counters (nil unless
	// Spec.SharedHostCache).
	HostCache *CacheStats
}
