// Package core is the ExFlow optimizer proper: it orchestrates the offline
// pipeline the paper describes — profile a pre-trained model's routing,
// estimate inter-layer expert affinity, solve the staged placement integer
// program, and emit a deployable placement Plan — and defines the Plan
// artifact that inference servers load at model-load time ("variable x in
// the solution will be directly used as the expert placement strategy when
// loading the MoE model to GPUs", Section IV-D).
//
// A Plan is a serializable, self-validating artifact: it records the model
// shape and the topology it was solved for, the per-layer expert→GPU map,
// and provenance (profiling tokens, objective values), so a deployment can
// verify at load time that the plan matches the model and cluster it is
// being applied to.
package core

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/placement"
	"repro/internal/topo"
	"repro/internal/trace"
)

// PlanVersion is bumped when the serialized format changes.
const PlanVersion = 1

// Plan is the deployable output of the ExFlow pipeline.
type Plan struct {
	Version int    `json:"version"`
	Model   string `json:"model"`
	Layers  int    `json:"layers"`
	Experts int    `json:"experts"`

	// Topology the plan was solved for.
	Nodes       int `json:"nodes"`
	GPUsPerNode int `json:"gpus_per_node"`

	// Assign[layer][expert] = global GPU rank.
	Assign [][]int `json:"assign"`

	// Provenance.
	ProfiledTokens int     `json:"profiled_tokens"`
	BaselineCross  float64 `json:"baseline_crossings"`
	SolvedCross    float64 `json:"solved_crossings"`
	Seed           uint64  `json:"seed"`
}

// Placement converts the plan back into a placement value.
func (p *Plan) Placement() *placement.Placement {
	pl := placement.NewPlacement(p.Layers, p.Experts, p.Nodes*p.GPUsPerNode)
	for j := range p.Assign {
		copy(pl.Assign[j], p.Assign[j])
	}
	return pl
}

// Validate checks internal consistency and the paper's balance/exclusivity
// constraints.
func (p *Plan) Validate() error {
	if p.Version != PlanVersion {
		return fmt.Errorf("core: plan version %d, want %d", p.Version, PlanVersion)
	}
	if p.Layers <= 0 || p.Experts <= 0 || p.Nodes <= 0 || p.GPUsPerNode <= 0 {
		return fmt.Errorf("core: plan has invalid shape")
	}
	if len(p.Assign) != p.Layers {
		return fmt.Errorf("core: plan has %d layers of assignments, want %d", len(p.Assign), p.Layers)
	}
	for j, row := range p.Assign {
		if len(row) != p.Experts {
			return fmt.Errorf("core: plan layer %d has %d experts, want %d", j, len(row), p.Experts)
		}
	}
	return p.Placement().Validate()
}

// CheckCompatible verifies the plan was solved for the given model shape
// and topology; a mismatch means the plan must be re-solved, not silently
// applied.
func (p *Plan) CheckCompatible(layers, experts int, tp *topo.Topology) error {
	if p.Layers != layers || p.Experts != experts {
		return fmt.Errorf("core: plan is for %dL x %dE, model is %dL x %dE", p.Layers, p.Experts, layers, experts)
	}
	if p.Nodes != tp.Nodes || p.GPUsPerNode != tp.GPUsPerNode {
		return fmt.Errorf("core: plan is for %dx%d topology, cluster is %dx%d",
			p.Nodes, p.GPUsPerNode, tp.Nodes, tp.GPUsPerNode)
	}
	return nil
}

// ImprovementRatio returns baseline/solved crossings (>= 1 when the solve
// helped); 0 when provenance is missing.
func (p *Plan) ImprovementRatio() float64 {
	if p.SolvedCross <= 0 {
		return 0
	}
	return p.BaselineCross / p.SolvedCross
}

// Encode writes the plan as JSON.
func (p *Plan) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// DecodePlan reads and validates a plan.
func DecodePlan(r io.Reader) (*Plan, error) {
	var p Plan
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("core: decoding plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Optimizer runs the offline pipeline.
type Optimizer struct {
	// ModelName is recorded in plan provenance.
	ModelName string
	// Topo is the target cluster.
	Topo *topo.Topology
	// Seed feeds the annealer.
	Seed uint64
}

// Solve profiles nothing itself — it consumes a routing trace (from
// trace.Collect or a decoded trace file) and produces the deployable Plan.
func (o *Optimizer) Solve(tr *trace.Trace) (*Plan, error) {
	if o.Topo == nil {
		return nil, fmt.Errorf("core: optimizer needs a topology")
	}
	gpus := o.Topo.TotalGPUs()
	if tr.Experts%gpus != 0 {
		return nil, fmt.Errorf("core: %d experts not divisible over %d gpus", tr.Experts, gpus)
	}
	if tr.Tokens() == 0 {
		return nil, fmt.Errorf("core: empty trace")
	}
	counts := tr.AllTransitionCounts()
	pl := placement.Staged(counts, tr.Layers, tr.Experts, o.Topo, o.Seed)
	base := placement.Contiguous(tr.Layers, tr.Experts, gpus)
	plan := &Plan{
		Version:        PlanVersion,
		Model:          o.ModelName,
		Layers:         tr.Layers,
		Experts:        tr.Experts,
		Nodes:          o.Topo.Nodes,
		GPUsPerNode:    o.Topo.GPUsPerNode,
		Assign:         pl.Assign,
		ProfiledTokens: tr.Tokens(),
		BaselineCross:  base.Crossings(counts),
		SolvedCross:    pl.Crossings(counts),
		Seed:           o.Seed,
	}
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("core: solver produced invalid plan: %w", err)
	}
	return plan, nil
}
