package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// tinyFixture is an 8-GPU, 8-layer system loaded well below its knees
// (about 5,200 req/s, and 230 req/s at 1.5x memory), so each workload runs
// in about a second. Fewer layers put the calibrated drift threshold above
// the viral mix's divergence, and the drift workloads would never migrate.
// At 60 req/s under 1.5x memory, a 2-s drift phase carried too few tokens
// for oversub-drift to migrate on three seeds in ten; at 120 it migrated on
// all ten.
var tinyFixture = fixture{Layers: 8, GPUs: 8, Rate: 600, MemRate: 120}

// tiny shortens every phase of w to 2 simulated seconds, keeping its phase
// structure.
func tiny(w workload) workload {
	w.phases = slices.Clone(w.phases)
	for i := range w.phases {
		w.phases[i].dur = 2
	}
	return w
}

// simValues returns a run's metrics that depend only on the simulation,
// never on the host.
func simValues(r *result) []float64 {
	var out []float64
	for _, name := range []string{"p50_s", "p99_s", "tokens_per_s", "slo_attain", "max_rps_at_slo"} {
		out = append(out, r.values[name])
	}
	return out
}

// TestWorkloads runs every workload untraced and traced on the tiny fixture
// through the same code as the benchmark, and checks that the correctness
// gates pass, that the traced run, a second run with the same seed,
// reproduces the untraced run's simulated metrics exactly, and that the
// traced run's exports are complete. On steady it also checks that another
// seed changes the simulated metrics.
func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			base := config{fx: tinyFixture, w: tiny(w), seed: 3, out: t.TempDir(), root: ".."}
			plain, err := run(base)
			if err != nil {
				t.Fatal(err)
			}
			traced := base
			traced.traced = true
			tr, err := run(traced)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*result{plain, tr} {
				if len(r.failures) > 0 {
					t.Errorf("gates failed: %v", r.failures)
				}
				if r.attempted == 0 || r.failed != 0 {
					t.Errorf("attempted %d, failed %d", r.attempted, r.failed)
				}
				if _, err := r.line(r == tr); err != nil {
					t.Error(err)
				}
			}
			if a, b := simValues(plain), simValues(tr); !slices.Equal(a, b) {
				t.Errorf("same seed: untraced %v, traced %v", a, b)
			}
			if w.name == "steady" {
				other := base
				other.seed = 2 // under a plain rng.Mix64(seed, c, k), 2 and 3 share sub-run seeds
				r, err := run(other)
				if err != nil {
					t.Fatal(err)
				}
				if a, b := simValues(plain), simValues(r); slices.Equal(a, b) {
					t.Errorf("seeds 3 and 2 gave identical simulated metrics %v", a)
				}
			}
			shares := 0.0
			for _, name := range []string{"synth.route_host_frac", "serve.window_host_frac", "controller.host_frac",
				"expertmem.host_frac", "serve.residual_host_frac"} {
				shares += tr.values[name]
			}
			if math.Abs(shares-1) > 1e-9 {
				t.Errorf("host shares sum to %v, want 1", shares)
			}
			for _, name := range []string{"spans.json", "trace.json", "metrics.json", "decisions.log"} {
				if _, err := os.Stat(filepath.Join(base.out, w.name+"."+name)); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestNamesMatchBenchmarkJSON pins the emitted workload and metric names,
// units and directions to BENCHMARK.json's, and checks that each mode's
// result line carries exactly its declared metric set.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(names, ours) {
		t.Errorf("workloads: BENCHMARK.json %v, benchmark %v", names, ours)
	}
	if !slices.Equal(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end metrics differ:\nBENCHMARK.json %v\nbenchmark      %v", spec.EndToEnd, endToEnd)
	}
	if !slices.Equal(spec.PerLayer, perLayer) {
		t.Errorf("per_layer metrics differ:\nBENCHMARK.json %v\nbenchmark      %v", spec.PerLayer, perLayer)
	}

	r := &result{values: map[string]float64{}, attempted: 1}
	for _, d := range slices.Concat(endToEnd, perLayer) {
		r.set(d.Name, 1)
	}
	for _, traced := range []bool{false, true} {
		line, err := r.line(traced)
		if err != nil {
			t.Fatal(err)
		}
		var out resultJSON
		if err := json.Unmarshal(line, &out); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		if len(out.Metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(out.Metrics), len(want))
		}
		for _, d := range want {
			if m, ok := out.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("traced=%v: metric %s = %+v, want unit %s", traced, d.Name, m, d.Unit)
			}
		}
	}
}
