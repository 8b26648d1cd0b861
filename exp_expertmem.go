package exflow

import (
	"repro/internal/expertmem"
	"repro/internal/moe"
	"repro/internal/stats"
)

func init() {
	register("expert_memory", runExpertMemory)
}

// runExpertMemory renders `exflow-serve -oversub`'s sweep (SweepMemory) at
// experiment scale: oversubscription ratios x cache policies over a steady
// serving workload. Each ratio is provisioned at 70% of its own probed
// capacity (as an operator would), every policy at a ratio sees the
// identical arrival stream, and a memory-disabled baseline pins down the
// 1x-adds-no-overhead guarantee.
func runExpertMemory(opts ExperimentOptions) *Result {
	res := &Result{ID: "expert_memory", Title: "Tiered expert-weight memory: policies across oversubscription ratios"}
	cfg := moe.GPTM(32)
	cfg.Layers = opts.scaled(12, 8)
	sys := NewSystem(SystemOptions{Model: cfg, GPUs: 8, Seed: opts.Seed + 11, DomainTilt: servingDomainTilt})

	sw, err := SweepMemory(sys, ServeOptions{
		Replicas:      2,
		DecodeTokens:  32,
		ProfileTokens: opts.scaled(3000, 2500),
		Phases:        []ServePhase{{Name: "steady", Duration: float64(opts.scaled(20, 4))}},
	}, 0.7, false)
	if err != nil {
		res.AddNote("memory sweep failed: %v", err)
		return res
	}

	tbHit := newTableHelper(res, "expert hit rate by oversubscription ratio", "oversub-ratio")
	tbP95 := newTableHelper(res, "overall P95 request latency (s) by oversubscription ratio", "oversub-ratio")
	tbStall := newTableHelper(res, "expert-miss stall (clock-charged) seconds per served token", "oversub-ratio")
	series := map[string][3]*stats.Series{}
	for _, pol := range expertmem.PolicyNames() {
		series[pol] = [3]*stats.Series{tbHit.NewSeries(pol), tbP95.NewSeries(pol), tbStall.NewSeries(pol)}
	}
	var oneX, aff2x *ServeReport
	for i, run := range sw.Summary.Runs {
		record := []string{run.Policy}
		if run.Ratio == 1 {
			// At 1x every expert is resident and the policy can never act:
			// one run stands for all four table columns.
			record = expertmem.PolicyNames()
			oneX = sw.Reports[i]
		}
		for _, name := range record {
			s := series[name]
			s[0].Add(run.Ratio, run.HitRate)
			s[1].Add(run.Ratio, run.P95)
			s[2].Add(run.Ratio, run.StallPerToken)
		}
		if run.Ratio == 2 && run.Policy == "affinity" {
			aff2x = sw.Reports[i]
		}
	}

	acc := sw.Summary.Acceptance
	if acc.OneXMatchesDisabled {
		res.AddNote("1x oversubscription is free: memory layer reproduces the disabled baseline exactly (P95 %.4fs, makespan %.2fs)",
			oneX.Overall.P95, oneX.Makespan)
	} else {
		res.AddNote("WARNING: 1x memory layer deviates from the disabled baseline (P95 %.4fs vs %.4fs)",
			oneX.Overall.P95, sw.Summary.DisabledP95)
	}
	res.AddNote("2x oversubscription: affinity-prefetch hit rate %.1f%% vs LRU %.1f%%, P95 %.3fs vs %.3fs (1x P95 %.3fs)",
		acc.Affinity2xHitRate*100, acc.LRU2xHitRate*100, acc.Affinity2xP95, acc.LRU2xP95, oneX.Overall.P95)
	res.AddNote("2x affinity prefetcher: %d prefetches, %d hits, %d wasted; %d residency evictions",
		aff2x.ExpertMem.Prefetches, aff2x.ExpertMem.PrefetchHits, aff2x.ExpertMem.WastedPrefetches, aff2x.ExpertMem.Evictions)
	res.AddNote("each ratio provisioned at 70%% of its own probed capacity; identical arrivals per ratio across policies")
	return res
}
