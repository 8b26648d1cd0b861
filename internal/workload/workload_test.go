package workload

import (
	"math"
	"testing"
)

func TestFitIterationModel(t *testing.T) {
	m, err := FitIterationModel(8, 0.0028, 32, 0.0052)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.PerToken-0.0001) > 1e-9 || math.Abs(m.Fixed-0.002) > 1e-9 {
		t.Fatalf("bad fit: %+v", m)
	}
	if m.PerNodeHop != 0 || m.PerCrossHop != 0 {
		t.Fatalf("two-point fit must leave the hop terms zero: %+v", m)
	}
	if _, err := FitIterationModel(8, 1, 8, 2); err == nil {
		t.Fatal("same batch sizes should error")
	}
}

func TestFitClampsNoise(t *testing.T) {
	// Slightly decreasing measurements (noise) must not produce a negative
	// per-token term.
	m, err := FitIterationModel(8, 0.0030, 32, 0.0029)
	if err != nil {
		t.Fatal(err)
	}
	if m.PerToken < 0 || m.Fixed < 0 {
		t.Fatalf("fit not clamped: %+v", m)
	}
}
