package scenario

import (
	"bytes"
	"encoding/json"
	"testing"
)

// The smoke scale is what CI runs on every push: the full catalog must pass
// its gates there, not just at bench scale.
func TestScenarioMatrixSmokeAllPass(t *testing.T) {
	sum, err := RunAll(Config{Scale: "smoke"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Scenarios) < 8 {
		t.Fatalf("catalog shrank to %d rows, want >= 8", len(sum.Scenarios))
	}
	cats := map[string]bool{"control": true, "crash": true, "memory": true, "fleet": true}
	seen := map[string]bool{}
	for _, r := range sum.Scenarios {
		if seen[r.ID] {
			t.Errorf("duplicate scenario id %q", r.ID)
		}
		seen[r.ID] = true
		if !cats[r.Category] {
			t.Errorf("%s: unknown category %q", r.ID, r.Category)
		}
		if r.Priority == "" || r.Description == "" || r.Notes == "" {
			t.Errorf("%s: missing priority/description/notes", r.ID)
		}
		if len(r.Metrics) == 0 {
			t.Errorf("%s: empty metrics", r.ID)
		}
		if !r.Pass {
			t.Errorf("%s FAILED its gate: %s", r.ID, r.Notes)
		}
	}
	if !sum.AllPass {
		t.Error("all_pass is false")
	}
	if sum.Scale != "smoke" || sum.Seed == 0 || sum.GPUs == 0 {
		t.Errorf("summary header wrong: %+v", sum)
	}
}

// Satellite gate: the same seed and schedule must produce a byte-identical
// BENCH_scenarios.json — the matrix is a pure function of (Seed, Scale).
func TestScenarioMatrixByteIdenticalJSON(t *testing.T) {
	a, err := RunAll(Config{Seed: 42, Scale: "smoke"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunAll(Config{Seed: 42, Scale: "smoke"})
	if err != nil {
		t.Fatal(err)
	}
	ab, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	bb, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Fatalf("scenario matrix replay is not byte-identical:\n--- a ---\n%s\n--- b ---\n%s", ab, bb)
	}
}

func TestScenarioMatrixUnknownScale(t *testing.T) {
	if _, err := RunAll(Config{Scale: "galactic"}); err == nil {
		t.Fatal("unknown scale must be rejected")
	}
}
