package serve

import (
	"testing"

	"repro/internal/synth"
)

// TestArrivalsDeterministicPerSeed: the arrival generator is pure in the
// RNG stream — identical seeds reproduce the identical arrival sequence for
// every process kind, and different seeds diverge. This is what makes whole
// serving runs replayable.
func TestArrivalsDeterministicPerSeed(t *testing.T) {
	for _, kind := range []string{Poisson, Bursty, Diurnal} {
		p := Phase{Name: kind, Duration: 20, Rate: 150, Arrival: kind, Dataset: synth.Pile()}
		a := generateArrivals(rngFor(42), p, 0)
		b := generateArrivals(rngFor(42), p, 0)
		if len(a) == 0 {
			t.Fatalf("%s: empty arrival stream", kind)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: replay lengths diverge: %d vs %d", kind, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: replay diverges at %d: %v vs %v", kind, i, a[i], b[i])
			}
		}
		c := generateArrivals(rngFor(43), p, 0)
		same := len(a) == len(c)
		if same {
			for i := range a {
				if a[i] != c[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Fatalf("%s: different seeds produced the identical stream", kind)
		}
		// The start offset shifts every arrival uniformly.
		d := generateArrivals(rngFor(42), p, 100)
		for i := range a {
			if d[i] != a[i]+100 {
				t.Fatalf("%s: offset not applied at %d: %v vs %v", kind, i, d[i], a[i])
			}
		}
	}
}
