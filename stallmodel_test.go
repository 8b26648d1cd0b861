package exflow

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/expertmem"
	"repro/internal/moe"
	"repro/internal/placement"
	"repro/internal/serve"
)

// The cross-layer stall-model conformance suite: the serving layer prices
// expert paging with a bulk-synchronous per-layer approximation
// (serve.LayerStallTimeline, surfaced as Report.MemStallSeconds), while the
// engine charges real per-rank stalls through the identical expertmem
// Manager ("expert-stall" in the breakdown). The two walk different clocks —
// the serve model holds each layer for its slowest fetch; engine ranks
// drift within a layer and resynchronize at the per-layer Alltoalls — so
// they cannot agree exactly. This suite replays each engine run's exact
// routing through the serve model and pins how far apart the two are
// allowed to drift, across the policy x oversubscription x prefetch grid.
//
// Documented tolerances (relative unless stated; see the asserts):
//   - access-level stall seconds (Manager stats, replay vs engine): 10%.
//     Both sides issue the same demand set against the same oracle with
//     engine-matched clocking (per-GPU sequential access times, per-owner
//     hint timing).
//   - demand hit rate: 5 percentage points absolute.
//   - wall-clock: the serve timeline total vs the engine's measured
//     slowdown (paged minus unpaged SimSeconds): 20%. The engine figure
//     also absorbs second-order collective re-timing, which the serve
//     model does not represent — this is the approximation the ROADMAP's
//     "engine-side validation" item asked to bound.
//
// Every case must meet every bound on each of conformanceSeeds, so the suite
// measures agreement rather than one routing realization. With 6 decode
// tokens a realization's own noise reached the bounds: 8 of the system
// seeds 1–24 failed a case (up to 13% access stall and 7 pp hit rate). With
// conformanceTokens every case on every one of those seeds meets them
// (worst: 7.7% access stall, 4.4 pp hit rate, 9.1% wall-clock), and each
// mistiming below still fails on every seed of the grid.
//
// At oversubscription 1 every figure must be exactly zero on both sides
// (the 1x-adds-no-overhead guarantee).
//
// Validating the model against the engine this way surfaced (and fixed) two
// genuine mistimings in the original serve approximation: hints were issued
// at the shared layer start — where they were dropped against the owner's
// own in-flight demand fetch — and a GPU's same-layer accesses were all
// stamped at the layer start, double-charging queue time the engine's
// advancing rank clock never pays. See LayerStallTimeline.

// stallCase is one conformance grid cell.
type stallCase struct {
	policy    string
	oversub   float64
	prefetchK int
}

func (c stallCase) name() string {
	return fmt.Sprintf("%s-%.1fx-k%d", c.policy, c.oversub, c.prefetchK)
}

// conformanceTolerance* document the suite's acceptance bounds.
const (
	conformanceToleranceStall   = 0.10 // access-level stall seconds, relative
	conformanceToleranceHitRate = 0.05 // demand hit rate, absolute
	conformanceToleranceClock   = 0.20 // wall-clock stall vs engine slowdown, relative
)

// conformanceSeeds are the system seeds the grid runs on, each with its own
// kernel, profile and placement; conformanceTokens is each engine run's
// decode length.
var conformanceSeeds = []uint64{21, 1, 2, 3}

const conformanceTokens = 24

func TestStallModelConformance(t *testing.T) {
	// One system per seed, each with its memory-free reference run: its
	// per-iteration duration is the serve model's overlap budget, and its
	// makespan is the baseline the paged runs' slowdown is measured against.
	type fixture struct {
		seed    uint64
		sys     *System
		pl      *placement.Placement
		unpaged *engine.Report
		perIter float64
	}
	base := Workload{RequestsPerGPU: 4, PromptLen: 8, GenerateTokens: conformanceTokens}
	iters := base.GenerateTokens
	var fixtures []fixture
	for _, seed := range conformanceSeeds {
		cfg := moe.GPTM(16)
		cfg.Layers = 8
		sys := NewSystem(SystemOptions{Model: cfg, GPUs: 8, Seed: seed, DomainTilt: servingDomainTilt})
		pl := sys.SolvePlacement(sys.Profile(1500))
		unpaged := sys.Run(engine.ExFlow, pl, base)
		fixtures = append(fixtures, fixture{seed, sys, pl, unpaged,
			(unpaged.SimSeconds - unpaged.Breakdown["prefill"]) / float64(iters)})
	}

	// PrefetchK 0 is not a grid point: Workload defaults it to 4, so the
	// prefetch axis spans a narrow (1) and a wide (8) fan-out instead.
	cases := []stallCase{
		{"affinity", 1, 4},
		{"affinity", 1.5, 4},
		{"affinity", 2, 4},
		{"affinity", 4, 4},
		{"affinity", 2, 1},
		{"affinity", 2, 8},
		{"lru", 2, 4},
		{"lfu", 4, 4},
		{"pin", 2, 4},
	}
	for _, c := range cases {
		t.Run(c.name(), func(t *testing.T) {
			for _, f := range fixtures {
				w := base
				w.Oversubscription = c.oversub
				w.CachePolicy = c.policy
				w.PrefetchK = c.prefetchK
				rep := f.sys.Run(engine.ExFlow, f.pl, w)
				gpus := float64(f.sys.Topo.TotalGPUs())
				engineStall := rep.Breakdown["expert-stall"] * gpus
				engineSlowdown := rep.SimSeconds - f.unpaged.SimSeconds

				replayStats, timeline := replayServeModel(t, f.sys, f.pl, w, iters, f.perIter)

				if c.oversub == 1 {
					// Exact on both sides: the budget is not binding, nothing
					// may stall, and the serve model must agree bit-for-bit.
					if engineStall != 0 || rep.ExpertMem.StallSeconds != 0 {
						t.Fatalf("seed %d: 1x engine stalled: breakdown %v, stats %+v", f.seed, engineStall, rep.ExpertMem)
					}
					if timeline != 0 || replayStats.StallSeconds != 0 {
						t.Fatalf("seed %d: 1x serve model stalled: timeline %v, stats %+v", f.seed, timeline, replayStats)
					}
					if rep.SimSeconds != f.unpaged.SimSeconds {
						t.Fatalf("seed %d: 1x changed the engine clock: %v vs %v", f.seed, rep.SimSeconds, f.unpaged.SimSeconds)
					}
					continue
				}

				// Access-level stall: same demand stream, same oracle; only
				// fetch timing may diverge.
				if engineStall <= 0 {
					t.Fatalf("seed %d: oversubscribed engine run reported no stall", f.seed)
				}
				if rel := math.Abs(replayStats.StallSeconds-engineStall) / engineStall; rel > conformanceToleranceStall {
					t.Errorf("seed %d: access stall diverged %.0f%%: serve model %.4fs vs engine %.4fs (tolerance %.0f%%)",
						f.seed, rel*100, replayStats.StallSeconds, engineStall, conformanceToleranceStall*100)
				}
				// Demand hit rate.
				if d := math.Abs(replayStats.HitRate() - rep.ExpertMem.HitRate()); d > conformanceToleranceHitRate {
					t.Errorf("seed %d: hit rate diverged %.1fpp: serve model %.1f%% vs engine %.1f%% (tolerance %.0fpp)",
						f.seed, d*100, replayStats.HitRate()*100, rep.ExpertMem.HitRate()*100, conformanceToleranceHitRate*100)
				}
				// Wall-clock: the serve timeline must predict the engine's
				// measured slowdown.
				if engineSlowdown <= 0 {
					t.Fatalf("seed %d: oversubscribed engine run was not slower than unpaged: %v", f.seed, engineSlowdown)
				}
				if rel := math.Abs(timeline-engineSlowdown) / engineSlowdown; rel > conformanceToleranceClock {
					t.Errorf("seed %d: wall-clock stall diverged %.0f%%: serve model %.4fs vs engine slowdown %.4fs (tolerance %.0f%%)",
						f.seed, rel*100, timeline, engineSlowdown, conformanceToleranceClock*100)
				}
				t.Logf("seed %d: serve model: stall %.4fs (engine %.4fs), hit %.1f%% (engine %.1f%%), clock %.4fs (engine slowdown %.4fs)",
					f.seed, replayStats.StallSeconds, engineStall, replayStats.HitRate()*100,
					rep.ExpertMem.HitRate()*100, timeline, engineSlowdown)
			}
		})
	}
}

// replayServeModel drives the exact routing of an engine run through the
// serving layer's stall approximation: the same memory config (oracle,
// slots, links), the same warm preload, and the same token paths — the
// engine's routing is deterministic in (layer, token id, previous expert),
// so the paths are reconstructed rather than instrumented out of the
// engine. Returns the replay Manager's stats and the summed timeline stall.
func replayServeModel(t *testing.T, sys *System, pl *placement.Placement, w Workload, iters int, perIter float64) (expertmem.Stats, float64) {
	t.Helper()
	w = w.withDefaults()
	mcfg := sys.memoryConfigFor(w)
	if mcfg == nil {
		t.Fatal("replay called without a memory config")
	}
	mem := expertmem.New(*mcfg)
	mem.Warm(pl.Assign)

	layers := sys.Model.Cfg.Layers
	batch := sys.Topo.TotalGPUs() * w.RequestsPerGPU
	paths := make([][]int, batch)
	for i := range paths {
		paths[i] = make([]int, layers)
	}
	now := 0.0
	timeline := 0.0
	for iter := 0; iter < iters; iter++ {
		for req := 0; req < batch; req++ {
			id := sys.Dataset.TokenID(uint64(w.EvalOffset + req*4096 + iter))
			prev := -1
			for j := 0; j < layers; j++ {
				experts := sys.Router.Route(j, id, prev, nil)
				paths[req][j] = experts[0]
				prev = experts[0]
			}
		}
		st := serve.LayerStallTimeline(mem, pl, paths, batch, now, perIter)
		timeline += st
		now += perIter + st
	}
	return mem.Stats(), timeline
}
