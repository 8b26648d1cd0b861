package placement

import (
	"testing"
	"testing/quick"
)

// Batch-aware demand deflation and migration re-warm pricing (ROADMAP items
// 3a/3b): unit and property coverage for the two satellite pricers.

func TestDeflateBatchProperties(t *testing.T) {
	var nilMo *MemoryObjective
	nilMo.DeflateBatch(8) // must not panic

	if err := quick.Check(func(seed uint64) bool {
		tr, layers, experts, gpus := randomInstance(seed)
		counts := tr.AllTransitionCounts()
		mo := memObjectiveFor(counts, layers, experts, gpus, 2)
		before := append([]float64(nil), mo.mass...)

		// B <= 1 is a bit-identical no-op.
		mo.DeflateBatch(1)
		for i, m := range mo.mass {
			if m != before[i] {
				return false
			}
		}

		const B = 16
		mo.DeflateBatch(B)
		if mo.Batch != B {
			return false
		}
		for i, m := range mo.mass {
			// Deflation shrinks every mass (a batch demands an expert at
			// most once per layer step) but never below mass/B and never
			// kills live demand.
			if m > before[i]+1e-12 || m < before[i]/B-1e-12 {
				return false
			}
			if before[i] > 0 && m <= 0 {
				return false
			}
			// p -> (1-(1-p)^B)/B is strictly increasing: the residency
			// order is preserved, so warm sets never reorder.
			for k := range mo.mass {
				if before[i] < before[k] && mo.mass[i] > mo.mass[k]+1e-12 {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestDeflateBatchLimits(t *testing.T) {
	tr, layers, experts, gpus := randomInstance(7)
	counts := tr.AllTransitionCounts()
	mo := memObjectiveFor(counts, layers, experts, gpus, 2)
	const B = 32.0
	// A saturated expert (p = 1) is demanded exactly once per batch: its
	// mass deflates by the full factor B.
	mo.mass[0] = mo.tokens
	// A cold expert (p*B << 1) is nearly unchanged.
	mo.mass[1] = mo.tokens * 1e-4
	cold := mo.mass[1]
	mo.DeflateBatch(B)
	if got, want := mo.mass[0], mo.tokens/B; !closeRel(got, want, 1e-9) {
		t.Fatalf("saturated mass deflated to %v, want %v", got, want)
	}
	if got := mo.mass[1]; !closeRel(got, cold, 5e-3) {
		t.Fatalf("cold mass changed to %v from %v", got, cold)
	}
}

func closeRel(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol*(1+b)
}

// TestPropertyRewarmSecondsBounded: re-warm prices a relocated expert at its
// fetch only when it lands in the destination's warm set, so the total is
// bounded by the plain sum of fetches, an empty plan is free, and an inactive
// objective prices nothing.
func TestPropertyRewarmSecondsBounded(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		tr, layers, experts, gpus := randomInstance(seed)
		counts := tr.AllTransitionCounts()
		a := Random(layers, experts, gpus, seed)
		b := Random(layers, experts, gpus, seed^0x11F)
		moves := Diff(a, b)
		mo := memObjectiveFor(counts, layers, experts, gpus, 2)
		got := mo.RewarmSeconds(b, moves)
		bound := 0.0
		for _, m := range moves {
			bound += mo.fetch[int32(m.Layer*mo.experts+m.Expert)]
		}
		if got < 0 || got > bound+1e-12 {
			return false
		}
		if mo.RewarmSeconds(b, nil) != 0 {
			return false
		}
		// An exactly-provisioned (1x) objective is inactive: free.
		at1x := memObjectiveFor(counts, layers, experts, gpus, 1)
		return at1x.RewarmSeconds(b, moves) == 0
	}, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestRewarmSecondsIsBusiestDestination: each GPU refetches over its own
// host link and all GPUs refill at once, so refetches landing on two GPUs
// cost the larger GPU's sum, not the total.
func TestRewarmSecondsIsBusiestDestination(t *testing.T) {
	const layers, experts, gpus = 6, 16, 4
	_, mo := memFixture(t, layers, experts, gpus, 2, 7)
	a := Contiguous(layers, experts, gpus)
	// b swaps GPUs 0 and 1 on every layer, so every expert b places on
	// either GPU is an arrival.
	b := a.Clone()
	for _, row := range b.Assign {
		for e, g := range row {
			if g < 2 {
				row[e] = 1 - g
			}
		}
	}
	// GPU 0 receives all of its arrivals, GPU 1 only layer 0's.
	var to0, to1 []Move
	for _, m := range Diff(a, b) {
		switch {
		case m.To == 0:
			to0 = append(to0, m)
		case m.Layer == 0:
			to1 = append(to1, m)
		}
	}
	// refetch sums the fetches of one destination's arrivals that land in
	// its warm set.
	refetch := func(g int, moves []Move) float64 {
		var items []int32
		for l, row := range b.Assign {
			for e, owner := range row {
				if owner == g {
					items = append(items, int32(l*experts+e))
				}
			}
		}
		warm := mo.warmSet(items)
		sum := 0.0
		for _, m := range moves {
			if id := int32(m.Layer*experts + m.Expert); warm[id] {
				sum += mo.fetch[id]
			}
		}
		return sum
	}
	want0, want1 := refetch(0, to0), refetch(1, to1)
	if want0 <= 0 || want1 <= 0 || want0 == want1 {
		t.Fatalf("degenerate fixture: refetch %v on GPU 0, %v on GPU 1", want0, want1)
	}
	if got := mo.RewarmSeconds(b, to0); got != want0 {
		t.Fatalf("GPU 0 alone re-warms in %v, want its sum %v", got, want0)
	}
	if got := mo.RewarmSeconds(b, to1); got != want1 {
		t.Fatalf("GPU 1 alone re-warms in %v, want its sum %v", got, want1)
	}
	if got, want := mo.RewarmSeconds(b, append(to1, to0...)), max(want0, want1); got != want {
		t.Fatalf("two destinations re-warm in %v, want the larger sum %v (total %v)", got, want, want0+want1)
	}
}
