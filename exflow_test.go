package exflow

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/moe"
	"repro/internal/synth"
	"repro/internal/trace"
)

func smallSystem(gpus int) *System {
	cfg := moe.GPTM(16)
	cfg.Layers = 6
	return NewSystem(SystemOptions{Model: cfg, GPUs: gpus, Seed: 3})
}

func TestNewSystemDefaults(t *testing.T) {
	sys := smallSystem(8)
	if sys.Dataset.Name != "pile" {
		t.Fatal("default dataset should be pile")
	}
	if sys.Topo.TotalGPUs() != 8 {
		t.Fatal("topology wrong")
	}
	if sys.Router.Experts() != 16 {
		t.Fatal("router experts wrong")
	}
}

func TestNewSystemRejectsBadModel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSystem(SystemOptions{Model: moe.Config{}, GPUs: 4})
}

func TestProfileShape(t *testing.T) {
	sys := smallSystem(4)
	tr := sys.Profile(200)
	if tr.Tokens() != 200 || tr.Layers != 6 || tr.Experts != 16 {
		t.Fatalf("trace shape wrong: %d tokens %dx%d", tr.Tokens(), tr.Layers, tr.Experts)
	}
}

func TestProfileOnDistinctDatasets(t *testing.T) {
	sys := smallSystem(4)
	a := sys.ProfileOn(synth.Pile(), 100, 0)
	b := sys.ProfileOn(synth.Yelp(), 100, 0)
	diff := 0
	for i := range a.Paths {
		for j := range a.Paths[i] {
			if a.Paths[i][j] != b.Paths[i][j] {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Fatal("different datasets should route differently")
	}
}

// routeOnly hides the kernel router's whole-path walk, so trace.Collect
// profiles through Route one layer at a time.
type routeOnly struct{ moe.Router }

// TestProfileMatchesRouteWalk: Profile and ProfileOn walk each token's path
// through the kernel router in one call, and must record, path for path,
// what routing every layer through Route records. It covers top-1 and
// top-2 systems on two datasets, and ProfileOn's held-out slice on the
// system's dataset and on the viral mix.
func TestProfileMatchesRouteWalk(t *testing.T) {
	cfg := moe.GPTM(16)
	cfg.Layers = 6
	same := func(t *testing.T, what string, got, want *trace.Trace) {
		t.Helper()
		if got.Tokens() != want.Tokens() {
			t.Fatalf("%s: %d paths, want %d", what, got.Tokens(), want.Tokens())
		}
		for i := range want.Paths {
			if !slices.Equal(got.Paths[i], want.Paths[i]) {
				t.Fatalf("%s token %d: profile %v, Route walk %v", what, i, got.Paths[i], want.Paths[i])
			}
		}
	}
	for _, ds := range []*synth.DatasetProfile{synth.Pile(), synth.C4()} {
		for _, topK := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/top%d", ds.Name, topK), func(t *testing.T) {
				sys := NewSystem(SystemOptions{Model: cfg, GPUs: 8, DomainTilt: 8, TopK: topK, Dataset: ds, Seed: 3})
				same(t, "Profile", sys.Profile(600),
					trace.Collect(routeOnly{sys.Router}, cfg.Layers, trace.SequentialIDs(600, ds.TokenID)))
				for _, on := range []*synth.DatasetProfile{ds, ViralDataset()} {
					ids := trace.SequentialIDs(400, func(i uint64) uint64 { return on.TokenID(1<<21 + i) })
					same(t, "ProfileOn "+on.Name, sys.ProfileOn(on, 400, 1<<21),
						trace.Collect(routeOnly{synth.NewKernelRouter(sys.Kernel, on, topK)}, cfg.Layers, ids))
				}
			})
		}
	}
}

func TestSolvePlacementValidAndBetter(t *testing.T) {
	sys := smallSystem(8)
	tr := sys.Profile(1500)
	pl := sys.SolvePlacement(tr)
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	counts := tr.AllTransitionCounts()
	if pl.Crossings(counts) >= sys.Baseline().Crossings(counts) {
		t.Fatal("solved placement should beat contiguous baseline")
	}
}

func TestRunAndSpeedup(t *testing.T) {
	sys := smallSystem(8)
	w := Workload{RequestsPerGPU: 2, PromptLen: 4, GenerateTokens: 2}
	base, exf, speedup := sys.Speedup(1000, w)
	if base.GeneratedTokens != exf.GeneratedTokens {
		t.Fatal("token counts differ across modes")
	}
	if speedup <= 1 {
		t.Fatalf("expected ExFlow speedup > 1, got %v", speedup)
	}
	// Identical outputs (no accuracy degradation).
	for r := range base.Outputs {
		for i := range base.Outputs[r] {
			if base.Outputs[r][i] != exf.Outputs[r][i] {
				t.Fatal("outputs diverged between baseline and exflow")
			}
		}
	}
}

func TestWorkloadDefaults(t *testing.T) {
	w := Workload{}.withDefaults()
	if w.RequestsPerGPU != 8 || w.PromptLen != 16 || w.GenerateTokens != 4 || w.EvalOffset != 1<<20 {
		t.Fatalf("defaults wrong: %+v", w)
	}
	// Explicit values survive.
	w2 := Workload{RequestsPerGPU: 3}.withDefaults()
	if w2.RequestsPerGPU != 3 {
		t.Fatal("explicit value overridden")
	}
}

func TestRunModesDiffer(t *testing.T) {
	sys := smallSystem(8)
	w := Workload{RequestsPerGPU: 2, PromptLen: 4, GenerateTokens: 2}
	van := sys.Run(engine.Vanilla, sys.Baseline(), w)
	coh := sys.Run(engine.ContextCoherent, sys.Baseline(), w)
	if coh.AlltoallBytes >= van.AlltoallBytes {
		t.Fatal("coherent mode should move fewer alltoall bytes")
	}
}
