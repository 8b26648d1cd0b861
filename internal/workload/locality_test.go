package workload

import (
	"math"
	"testing"
)

// syntheticPoints samples a known model over a grid of batch sizes and
// locality profiles.
func syntheticPoints(m LocalityModel) []LocalityPoint {
	var pts []LocalityPoint
	for _, n := range []int{16, 64, 128} {
		for _, f := range [][2]float64{{0.1, 0.7}, {0.2, 0.5}, {0.3, 0.2}} {
			pts = append(pts, LocalityPoint{
				Batch: n, FracNode: f[0], FracCross: f[1],
				Seconds: m.Time(n, f[0], f[1]),
			})
		}
	}
	return pts
}

func TestFitLocalityModelRecoversCoefficients(t *testing.T) {
	want := LocalityModel{Fixed: 600e-6, PerToken: 5e-6, PerNodeHop: 1.5e-6, PerCrossHop: 4e-6}
	got, err := FitLocalityModel(syntheticPoints(want))
	if err != nil {
		t.Fatal(err)
	}
	for name, pair := range map[string][2]float64{
		"fixed":    {want.Fixed, got.Fixed},
		"perToken": {want.PerToken, got.PerToken},
		"nodeHop":  {want.PerNodeHop, got.PerNodeHop},
		"crossHop": {want.PerCrossHop, got.PerCrossHop},
	} {
		if math.Abs(pair[0]-pair[1]) > 1e-9 {
			t.Fatalf("%s: got %v want %v", name, pair[1], pair[0])
		}
	}
}

func TestFitLocalityModelTooFewPoints(t *testing.T) {
	m := LocalityModel{Fixed: 1e-3, PerToken: 1e-5}
	if _, err := FitLocalityModel(syntheticPoints(m)[:3]); err == nil {
		t.Fatal("three points must not fit four coefficients")
	}
}

func TestFitLocalityModelRejectsZeroMeasurements(t *testing.T) {
	pts := syntheticPoints(LocalityModel{Fixed: 1e-3, PerToken: 1e-5})
	pts[0].Seconds = 0
	if _, err := FitLocalityModel(pts); err == nil {
		t.Fatal("zero-second measurement must be rejected")
	}
	pts[0].Seconds = 1e-3
	pts[1].Batch = 0
	if _, err := FitLocalityModel(pts); err == nil {
		t.Fatal("zero batch must be rejected")
	}
}

func TestFitLocalityModelClampsNoise(t *testing.T) {
	// Points where locality has no effect at all: hop terms must clamp to
	// zero, not go negative, and the batch scaling must survive.
	var pts []LocalityPoint
	for _, n := range []int{8, 16, 32, 64, 128} {
		for _, fc := range []float64{0.2, 0.5, 0.8} {
			pts = append(pts, LocalityPoint{Batch: n, FracCross: fc, Seconds: 1e-3 + float64(n)*1e-5})
		}
	}
	m, err := FitLocalityModel(pts)
	if err != nil {
		t.Fatal(err)
	}
	if m.PerNodeHop < 0 || m.PerCrossHop < 0 {
		t.Fatalf("hop terms not clamped: %+v", m)
	}
	if math.Abs(m.PerToken-1e-5) > 1e-8 || math.Abs(m.Fixed-1e-3) > 1e-7 {
		t.Fatalf("base terms off: %+v", m)
	}
}

func TestLocalityModelTime(t *testing.T) {
	m := LocalityModel{Fixed: 1e-3, PerToken: 1e-5, PerNodeHop: 1e-6, PerCrossHop: 5e-6}
	if m.Time(0, 0.5, 0.5) != 0 || m.Time(-3, 0, 0) != 0 {
		t.Fatal("empty batch should take no time")
	}
	if m.Time(10, 0, 0.8) <= m.Time(10, 0, 0.2) {
		t.Fatal("more cross-node dispatch must cost more")
	}
}

func TestFitIterationModelRejectsZeroMeasurements(t *testing.T) {
	if _, err := FitIterationModel(8, 0, 32, 0.005); err == nil {
		t.Fatal("zero first measurement must be rejected")
	}
	if _, err := FitIterationModel(8, 0.005, 32, 0); err == nil {
		t.Fatal("zero second measurement must be rejected")
	}
	if _, err := FitIterationModel(8, -0.1, 32, 0.005); err == nil {
		t.Fatal("negative measurement must be rejected")
	}
}
