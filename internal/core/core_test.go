package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/synth"
	"repro/internal/topo"
	"repro/internal/trace"
)

func testTrace(tokens int) *trace.Trace {
	k := synth.NewKernel(synth.KernelParams{Seed: 5, Layers: 6, Experts: 16, Strength: 0.85})
	kr := synth.NewKernelRouter(k, synth.Pile(), 1)
	return trace.Collect(kr, 6, trace.SequentialIDs(tokens, synth.Pile().TokenID))
}

func testOptimizer() *Optimizer {
	return &Optimizer{ModelName: "test/16E", Topo: topo.Wilkes3(2), Seed: 3}
}

func TestSolveProducesValidPlan(t *testing.T) {
	plan, err := testOptimizer().Solve(testTrace(1500))
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	if plan.Model != "test/16E" || plan.ProfiledTokens != 1500 {
		t.Fatalf("provenance wrong: %+v", plan)
	}
	if plan.ImprovementRatio() <= 1 {
		t.Fatalf("solve should improve on baseline, ratio %v", plan.ImprovementRatio())
	}
}

func TestSolveErrors(t *testing.T) {
	o := testOptimizer()
	if _, err := o.Solve(trace.New(6, 16)); err == nil {
		t.Fatal("empty trace should error")
	}
	// 10 experts over 8 gpus is indivisible.
	k := synth.NewKernel(synth.KernelParams{Seed: 1, Layers: 3, Experts: 10, Strength: 0.5})
	tr := trace.Collect(synth.NewKernelRouter(k, synth.Pile(), 1), 3, trace.SequentialIDs(50, nil))
	if _, err := o.Solve(tr); err == nil {
		t.Fatal("indivisible expert count should error")
	}
	bad := &Optimizer{}
	if _, err := bad.Solve(testTrace(10)); err == nil {
		t.Fatal("nil topology should error")
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	plan, err := testOptimizer().Solve(testTrace(800))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := plan.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"assign"`) {
		t.Fatal("JSON missing assign field")
	}
	got, err := DecodePlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Layers != plan.Layers || got.Experts != plan.Experts || got.SolvedCross != plan.SolvedCross {
		t.Fatal("round trip lost fields")
	}
	for j := range plan.Assign {
		for e := range plan.Assign[j] {
			if got.Assign[j][e] != plan.Assign[j][e] {
				t.Fatal("assignment changed in round trip")
			}
		}
	}
}

func TestDecodePlanRejectsCorrupt(t *testing.T) {
	cases := []string{
		"",
		"not json",
		`{"version": 99}`,
		`{"version": 1, "layers": 2, "experts": 4, "nodes": 1, "gpus_per_node": 2, "assign": [[0,0,1,1]]}`, // wrong layer count
		`{"version": 1, "layers": 1, "experts": 4, "nodes": 1, "gpus_per_node": 2, "assign": [[0,0,0,1]]}`, // imbalanced
	}
	for i, c := range cases {
		if _, err := DecodePlan(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d should fail", i)
		}
	}
}

func TestCheckCompatible(t *testing.T) {
	plan, err := testOptimizer().Solve(testTrace(500))
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.CheckCompatible(6, 16, topo.Wilkes3(2)); err != nil {
		t.Fatalf("compatible plan rejected: %v", err)
	}
	if err := plan.CheckCompatible(7, 16, topo.Wilkes3(2)); err == nil {
		t.Fatal("layer mismatch should fail")
	}
	if err := plan.CheckCompatible(6, 16, topo.Wilkes3(4)); err == nil {
		t.Fatal("topology mismatch should fail")
	}
}

func TestPlanPlacementMatchesAssign(t *testing.T) {
	plan, err := testOptimizer().Solve(testTrace(500))
	if err != nil {
		t.Fatal(err)
	}
	pl := plan.Placement()
	for j := range plan.Assign {
		for e := range plan.Assign[j] {
			if pl.Assign[j][e] != plan.Assign[j][e] {
				t.Fatal("Placement() diverges from Assign")
			}
		}
	}
}
