package fleet

import (
	"math"
	"strings"
	"testing"
)

func TestSpecWithDefaults(t *testing.T) {
	d := Spec{}.WithDefaults()
	if d.ForecastHalfLife != 5 ||
		d.ScaleUpCooldown != 2 || d.ScaleDownCooldown != 6 ||
		d.DownscaleStreak != 3 || d.ReconcileInterval != 1 {
		t.Errorf("defaults = %+v", d)
	}
	if d.MinReplicas != 0 {
		t.Errorf("MinReplicas defaulted to %d with autoscaling off, want 0", d.MinReplicas)
	}
	if a := (Spec{MaxReplicas: 4}).WithDefaults(); a.MinReplicas != 1 {
		t.Errorf("MinReplicas = %d with autoscaling on, want floor 1", a.MinReplicas)
	}
	// Explicit values survive defaulting.
	e := Spec{ForecastHalfLife: 0.5, DownscaleStreak: 7}.WithDefaults()
	if e.ForecastHalfLife != 0.5 || e.DownscaleStreak != 7 {
		t.Errorf("explicit tunables overwritten: %+v", e)
	}
}

func TestSpecAutoscaling(t *testing.T) {
	if (&Spec{}).Autoscaling() {
		t.Error("zero spec reports autoscaling on")
	}
	if !(&Spec{MaxReplicas: 2}).Autoscaling() {
		t.Error("MaxReplicas 2 reports autoscaling off")
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name     string
		spec     Spec
		replicas int
		wantErr  string
	}{
		{"inert ok", Spec{}, 2, ""},
		{"autoscaling ok", Spec{MinReplicas: 1, MaxReplicas: 4}, 2, ""},
		{"negative bounds", Spec{MinReplicas: -1}, 2, "non-negative"},
		{"floor without ceiling", Spec{MinReplicas: 2}, 2, "MaxReplicas is 0"},
		{"min over max", Spec{MinReplicas: 5, MaxReplicas: 4}, 4, "exceeds"},
		{"replicas outside bounds", Spec{MinReplicas: 2, MaxReplicas: 4}, 1, "outside autoscaler bounds"},
		{"negative time", Spec{ReconcileInterval: -1}, 2, "time tunables"},
		{"negative count", Spec{DownscaleStreak: -1}, 2, "DownscaleStreak"},
		// NaN passes every ordered comparison; each field must name itself.
		{"NaN half-life", Spec{ForecastHalfLife: math.NaN()}, 2, "ForecastHalfLife"},
		{"NaN scale-up cooldown", Spec{ScaleUpCooldown: math.NaN()}, 2, "ScaleUpCooldown"},
		{"NaN scale-down cooldown", Spec{ScaleDownCooldown: math.NaN()}, 2, "ScaleDownCooldown"},
		{"NaN reconcile interval", Spec{ReconcileInterval: math.NaN()}, 2, "ReconcileInterval"},
	}
	for _, c := range cases {
		err := c.spec.Validate(c.replicas)
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error = %v, want substring %q", c.name, err, c.wantErr)
		}
	}
}
