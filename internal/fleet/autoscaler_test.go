package fleet

import "testing"

// scalerSpec is a defaulted spec with round numbers: one replica serves 10
// req/s at full utilization (100 tokens/s, 10 decode tokens), so at the
// 0.75 target utilization it is provisioned for 7.5 req/s and desired =
// ceil(rate/7.5).
func scalerSpec() Spec {
	return Spec{
		MinReplicas: 1, MaxReplicas: 8,
		ForecastHalfLife:  1,
		ScaleUpCooldown:   2,
		ScaleDownCooldown: 6,
		DownscaleStreak:   3,
	}.WithDefaults()
}

func arrive(a *Autoscaler, n int) {
	for i := 0; i < n; i++ {
		a.ObserveArrival()
	}
}

func TestAutoscalerScaleUpJumpsToDesired(t *testing.T) {
	a := NewAutoscaler(scalerSpec())
	arrive(a, 50) // 50 req/s over [0,1): desired = ceil(50/7.5) = 7
	dec, act := a.Reconcile(1, 2, 100, 10)
	if !act || dec.Delta != 5 || dec.Desired != 7 {
		t.Fatalf("decision = %+v act=%v, want delta 5 to desired 7", dec, act)
	}
	if a.Rate() != 50 {
		t.Errorf("rate = %v, want 50 (first sample seeds the EWMA)", a.Rate())
	}
}

func TestAutoscalerScaleUpCooldown(t *testing.T) {
	a := NewAutoscaler(scalerSpec())
	arrive(a, 30)
	if _, act := a.Reconcile(1, 1, 100, 10); !act {
		t.Fatal("first scale-up should act")
	}
	// Demand keeps growing, but the up at t=1 blocks until t=3.
	arrive(a, 80)
	if dec, act := a.Reconcile(2, 3, 100, 10); act {
		t.Fatalf("scale-up inside cooldown acted: %+v", dec)
	}
	arrive(a, 80)
	if _, act := a.Reconcile(3.5, 3, 100, 10); !act {
		t.Fatal("scale-up after cooldown expiry should act")
	}
}

func TestAutoscalerDownscaleStreakAndSingleStep(t *testing.T) {
	a := NewAutoscaler(scalerSpec())
	// No arrivals at all: rate 0, desired clamps to MinReplicas 1 < committed 5.
	for i, now := range []float64{1, 2} {
		if dec, act := a.Reconcile(now, 5, 100, 10); act {
			t.Fatalf("reconcile %d acted before the streak filled: %+v", i, dec)
		} else if dec.Streak != i+1 {
			t.Fatalf("reconcile %d streak = %d, want %d", i, dec.Streak, i+1)
		}
	}
	dec, act := a.Reconcile(3, 5, 100, 10)
	if !act || dec.Delta != -1 {
		t.Fatalf("third low reconcile = %+v act=%v, want delta -1", dec, act)
	}
	// The streak resets after acting and the down-cooldown (6s) holds the next
	// drain until t=9 even though desired is still far below committed.
	for _, now := range []float64{4, 5, 6, 7, 8} {
		if dec, act := a.Reconcile(now, 4, 100, 10); act {
			t.Fatalf("drain inside ScaleDownCooldown acted at t=%v: %+v", now, dec)
		}
	}
	if _, act := a.Reconcile(9.5, 4, 100, 10); !act {
		t.Fatal("drain after cooldown expiry should act")
	}
}

func TestAutoscalerNoFlapAtBoundary(t *testing.T) {
	// A down must not be followed by an immediate up when the desired count
	// blips back (committed just shrank past it): the cross-block holds ups
	// for ScaleDownCooldown.
	a := NewAutoscaler(scalerSpec())
	// Rate 15 req/s: desired ceil(15/7.5) = 2. Committed 3 -> streak toward
	// a drain.
	for _, now := range []float64{1, 2, 3} {
		arrive(a, 15)
		dec, act := a.Reconcile(now, 3, 100, 10)
		if now < 3 && act {
			t.Fatalf("acted before streak at t=%v: %+v", now, dec)
		}
		if now == 3 && (!act || dec.Delta != -1) {
			t.Fatalf("expected drain at t=3, got %+v act=%v", dec, act)
		}
	}
	// Boundary rate wobbles up toward 20 req/s: desired 3 > committed 2, but
	// the down at t=3 blocks ups until t=9.
	for _, now := range []float64{4, 5, 6, 7, 8} {
		arrive(a, 20)
		if dec, act := a.Reconcile(now, 2, 100, 10); act {
			t.Fatalf("up inside the post-down block acted at t=%v: %+v", now, dec)
		}
	}
	// And symmetrically: after the up finally lands, collapsing demand cannot
	// immediately drain it (ups block downs for ScaleUpCooldown): the streak
	// fills at t=11 but the up at t=9.5 blocks downs until t=11.5. The rate
	// stays near 20 (desired 3), then decays below 15 (desired 2) within
	// half a second of idling.
	arrive(a, 30)
	if _, act := a.Reconcile(9.5, 2, 100, 10); !act {
		t.Fatal("up after the block expired should act")
	}
	for _, now := range []float64{10, 10.5, 11} {
		if dec, act := a.Reconcile(now, 3, 100, 10); act {
			t.Fatalf("down inside the post-up block acted at t=%v: %+v", now, dec)
		}
	}
	if _, act := a.Reconcile(12, 3, 100, 10); !act {
		t.Fatal("down after the post-up block expired should act")
	}
}

func TestAutoscalerClamps(t *testing.T) {
	a := NewAutoscaler(scalerSpec())
	arrive(a, 10000) // desired would be 1334; clamps to MaxReplicas 8
	dec, act := a.Reconcile(1, 2, 100, 10)
	if !act || dec.Desired != 8 || dec.Delta != 6 {
		t.Fatalf("decision = %+v act=%v, want clamp to max 8", dec, act)
	}
	// Zero demand clamps to MinReplicas, never zero.
	b := NewAutoscaler(scalerSpec())
	for _, now := range []float64{1, 2, 3} {
		if dec, _ := b.Reconcile(now, 2, 100, 10); dec.Desired != 1 {
			t.Fatalf("desired = %d, want MinReplicas 1", dec.Desired)
		}
	}
}

func TestAutoscalerZeroCapacityHoldsSteady(t *testing.T) {
	// Without a capacity estimate desired stays at committed: no decision.
	a := NewAutoscaler(scalerSpec())
	arrive(a, 500)
	if dec, act := a.Reconcile(1, 2, 0, 10); act || dec.Desired != 2 {
		t.Fatalf("decision = %+v act=%v, want hold at committed", dec, act)
	}
}

func TestAutoscalerHoldUpdatesForecastOnly(t *testing.T) {
	a := NewAutoscaler(scalerSpec())
	arrive(a, 40)
	a.Hold(1)
	if a.Rate() != 40 {
		t.Errorf("rate after Hold = %v, want 40", a.Rate())
	}
	// The held-through arrivals are folded in; an immediate reconcile with no
	// new arrivals sees a decayed rate, not a double-counted one.
	dec, _ := a.Reconcile(2, 4, 100, 10)
	if dec.Rate >= 40 {
		t.Errorf("rate after idle second = %v, want decayed below 40", dec.Rate)
	}
}

func TestAutoscalerDeterministic(t *testing.T) {
	run := func() []Decision {
		a := NewAutoscaler(scalerSpec())
		var out []Decision
		arrivals := []int{5, 50, 80, 80, 20, 5, 0, 0, 0, 0, 0, 0, 0, 0}
		committed := 2
		for i, n := range arrivals {
			arrive(a, n)
			if dec, act := a.Reconcile(float64(i+1), committed, 100, 10); act {
				out = append(out, dec)
				committed += dec.Delta
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("decision counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("decision %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if len(a) < 2 {
		t.Fatalf("expected at least one up and one down, got %+v", a)
	}
	if a[0].Delta <= 0 || a[len(a)-1].Delta != -1 {
		t.Errorf("expected spike up then drain down, got %+v", a)
	}
}

func TestAutoscalerEWMADecay(t *testing.T) {
	a := NewAutoscaler(scalerSpec()) // half-life 1s
	arrive(a, 100)
	a.Hold(1) // rate seeds at 100
	a.Hold(2) // one idle half-life: rate halves
	if r := a.Rate(); r < 49.9 || r > 50.1 {
		t.Errorf("rate after one idle half-life = %v, want ~50", r)
	}
	// Zero-dt tick is a no-op.
	a.Hold(2)
	if r := a.Rate(); r < 49.9 || r > 50.1 {
		t.Errorf("rate after zero-dt tick = %v, want unchanged ~50", r)
	}
}
