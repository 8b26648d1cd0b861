package exflow

import (
	"repro/internal/moe"
	"repro/internal/stats"
	"repro/internal/synth"
)

func init() {
	register("serving_adaptive", runServingAdaptive)
}

// ViralDataset is the drifted traffic profile the serving experiments use: a
// burst of near-single-domain traffic (a viral topic), the worst realistic
// case for a placement profiled on a broad mixture.
func ViralDataset() *synth.DatasetProfile {
	return synth.Custom("viral", []float64{0, 0, 0, 0, 1, 0}, 0xD81F)
}

// servingDomainTilt models a domain-specialized checkpoint (see
// SystemOptions.DomainTilt): at the paper-faithful mild tilt a mixture shift
// barely moves the routing distribution (Table III), so the serving drift
// experiments use a checkpoint whose routing genuinely follows the traffic.
const servingDomainTilt = 8

// runServingAdaptive renders `exflow-serve -drift`'s comparison
// (CompareDrift) at experiment scale, the online-serving headline: a
// two-phase traffic program (broad pile mixture, then a viral single-domain
// burst) served near the capacity knee by a static-placement fleet and by an
// adaptive fleet with routing-drift detection and live expert re-placement.
// Static ExFlow's P95 degrades when the mixture drifts; the adaptive fleet
// pays a short migration pause, then recovers.
func runServingAdaptive(opts ExperimentOptions) *Result {
	res := &Result{ID: "serving_adaptive", Title: "Online serving: static ExFlow vs adaptive re-placement under dataset drift"}
	cfg := moe.GPTM(32)
	cfg.Layers = opts.scaled(16, 8)
	sys := NewSystem(SystemOptions{Model: cfg, GPUs: 16, Seed: opts.Seed + 6, DomainTilt: servingDomainTilt})

	warmDur := float64(opts.scaled(20, 3))
	driftDur := float64(opts.scaled(40, 6))
	cmp, err := CompareDrift(sys, ServeOptions{
		Replicas:     2,
		DecodeTokens: 32,
		// Drift detection compares the live window against the profiled
		// baseline; a baseline much smaller than the window is itself
		// noise, so the profile does not scale below 2500 tokens.
		ProfileTokens: opts.scaled(3000, 2500),
		LoadFrac:      0.97,
		Phases: []ServePhase{
			{Name: "warm", Duration: warmDur},
			{Name: "drift", Duration: driftDur, Dataset: ViralDataset()},
		},
		LatencyBucket: (warmDur + driftDur) / 60,
	})
	if err != nil {
		res.AddNote("drift comparison failed: %v", err)
		return res
	}
	static, adaptive, sum := cmp.Static, cmp.Adaptive, cmp.Summary

	// Table 1: P95 by era — warm, whole drift phase, and the drift tail
	// (second half of the drift phase, after the adaptive fleet has settled).
	tb := newTableHelper(res, "P95 request latency (s) by era (0=warm 1=drift 2=drift-tail)", "era")
	sSt := tb.NewSeries("static-p95")
	sAd := tb.NewSeries("adaptive-p95")
	for i, pair := range [][2]float64{
		{static.Phases[0].P95, adaptive.Phases[0].P95},
		{static.Phases[1].P95, adaptive.Phases[1].P95},
		{sum.Static.TailP95, sum.Adaptive.TailP95},
	} {
		sSt.Add(float64(i), pair[0])
		sAd.Add(float64(i), pair[1])
	}

	// Table 2: the P95 time series, where the drift hit and the migration
	// pause are visible.
	t2 := newTableHelper(res, "P95 latency (s) over time", "sim-seconds")
	t2.AddSeries(&stats.Series{Name: "static", X: static.LatencyP95.X, Y: static.LatencyP95.Y})
	t2.AddSeries(&stats.Series{Name: "adaptive", X: adaptive.LatencyP95.X, Y: adaptive.LatencyP95.Y})

	// Table 3: drift score and live cross-node fraction.
	t3 := newTableHelper(res, "drift score (JS) and cross-node dispatch over time", "sim-seconds")
	t3.AddSeries(&stats.Series{Name: "drift-score", X: adaptive.Drift.X, Y: adaptive.Drift.Y})
	t3.AddSeries(&stats.Series{Name: "static-crossfrac", X: static.CrossFrac.X, Y: static.CrossFrac.Y})
	t3.AddSeries(&stats.Series{Name: "adaptive-crossfrac", X: adaptive.CrossFrac.X, Y: adaptive.CrossFrac.Y})

	res.AddNote("fleet capacity %.0f tok/s/replica (fixed=%.0fus per-token=%.2fus cross-hop=%.2fus), offered load %.0f%% of knee",
		sum.TokenCapacity, sum.CostFixedUS, sum.CostPerTokenUS, sum.CostCrossHopUS, sum.LoadFrac*100)
	for _, m := range adaptive.Migrations {
		res.AddNote("migration @%.2fs: drift score %.4f, %d expert moves (%d cross-node), %.0fms pause per replica, predicted per-token gain %.1f%%",
			m.Time, m.Score, m.Moves, m.CrossNodeMoves, m.Seconds*1e3, m.PredictedGain*100)
	}
	if len(adaptive.Migrations) == 0 {
		res.AddNote("adaptive fleet never migrated — drift signal below threshold at this scale")
	}
	if cmp.Regressed {
		res.AddNote("static P95 regression after drift: %.3fs -> %.3fs; adaptive tail %.3fs recovers %.0f%% of the regression",
			sum.WarmP95, sum.Static.TailP95, sum.Adaptive.TailP95, sum.RecoveryFraction*100)
	} else {
		res.AddNote("static placement did not measurably regress at this scale (warm %.3fs, tail %.3fs; adaptive tail %.3fs)",
			sum.WarmP95, sum.Static.TailP95, sum.Adaptive.TailP95)
	}
	return res
}
