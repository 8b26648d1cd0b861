package serve

import (
	"testing"

	"repro/internal/synth"
	"repro/internal/trace"
)

// driftKernel is the shared fixture: a routing kernel plus a pooled baseline
// estimated from a pile profiling trace, as the server builds at startup.
func driftKernel(t *testing.T, tilt float64) (*synth.Kernel, [][]float64) {
	t.Helper()
	k := synth.NewKernel(synth.KernelParams{
		Seed: 0xFEED, Layers: 12, Experts: 32, Strength: 0.85, DomainTilt: tilt,
	})
	pile := synth.Pile()
	tr := trace.Collect(synth.NewKernelRouter(k, pile, 1), k.Layers, trace.SequentialIDs(3000, pile.TokenID))
	return k, Pool(tr.AllTransitionCounts(), k.Experts)
}

func TestDetectorQuietInDistribution(t *testing.T) {
	k, base := driftKernel(t, 1)
	// Held-out pile tokens, disjoint from the baseline's ordinals.
	w := NewTraceWindow(k.Layers, k.Experts, 4096)
	fillFromDataset(w, k, synth.Pile(), 4096, 1<<22)
	det := NewDetector(JS, 0.008, 1, base)
	score, fired := det.Observe(w.Pooled())
	if fired {
		t.Fatalf("detector fired on in-distribution traffic (score %v)", score)
	}
	if score <= 0 {
		t.Fatal("sampling noise should give a small positive score")
	}
}

func TestDetectorFiresOnShiftedDataset(t *testing.T) {
	k, base := driftKernel(t, 1)
	w := NewTraceWindow(k.Layers, k.Experts, 4096)
	fillFromDataset(w, k, synth.Yelp(), 4096, 1<<22)
	det := NewDetector(JS, 0.008, 2, base)
	if _, fired := det.Observe(w.Pooled()); fired {
		t.Fatal("patience 2 must not fire on the first observation")
	}
	score, fired := det.Observe(w.Pooled())
	if !fired {
		t.Fatalf("detector should fire on shifted dataset (score %v)", score)
	}
	// Rebase to the live distribution: the same traffic is now in-baseline.
	det.Rebase(w.Pooled())
	if score2, fired2 := det.Observe(w.Pooled()); fired2 || score2 != 0 {
		t.Fatalf("after rebase the live window must score 0, got %v fired=%v", score2, fired2)
	}
}

func TestDetectorSeparationGrowsWithTilt(t *testing.T) {
	// The more domain-specialized the checkpoint, the louder mixture drift
	// should be relative to the in-distribution noise floor.
	scoreFor := func(tilt float64) (quiet, loud float64) {
		k, base := driftKernel(t, tilt)
		w := NewTraceWindow(k.Layers, k.Experts, 4096)
		fillFromDataset(w, k, synth.Pile(), 4096, 1<<22)
		quiet = Divergence(JS, base, w.Pooled())
		w2 := NewTraceWindow(k.Layers, k.Experts, 4096)
		fillFromDataset(w2, k, synth.Yelp(), 4096, 1<<22)
		loud = Divergence(JS, base, w2.Pooled())
		return quiet, loud
	}
	q1, l1 := scoreFor(1)
	q8, l8 := scoreFor(8)
	if l1 <= q1 || l8 <= q8 {
		t.Fatalf("shifted traffic must out-score held-out traffic: tilt1 %v<=%v tilt8 %v<=%v", l1, q1, l8, q8)
	}
	if l8/q8 <= l1/q1 {
		t.Fatalf("separation should grow with tilt: %v vs %v", l8/q8, l1/q1)
	}
}

func TestDivergenceProperties(t *testing.T) {
	a := [][]float64{{4, 0}, {1, 3}}
	b := [][]float64{{0, 4}, {1, 3}}
	if d := Divergence(JS, a, a); d != 0 {
		t.Fatalf("self-divergence %v", d)
	}
	if d := Divergence(JS, a, b); d <= 0 {
		t.Fatal("distinct distributions must diverge")
	}
	// Empty live window: no evidence, no drift.
	if d := Divergence(JS, a, [][]float64{{0, 0}, {0, 0}}); d != 0 {
		t.Fatalf("empty window should score 0, got %v", d)
	}
}
