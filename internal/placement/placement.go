// Package placement computes and evaluates expert-to-GPU placements — the
// output of the ExFlow pipeline. A placement maps every (layer, expert)
// pair to a GPU subject to the paper's constraints: per-layer load balance
// (each GPU holds exactly E/P experts per layer, Formula 9) and exclusivity
// (each expert lives on exactly one GPU, Formula 10).
//
// Strategies provided:
//   - Contiguous: the Deepspeed-MoE default (expert i -> GPU i/(E/P)),
//     identical at every layer; the paper's baseline.
//   - Random: a per-layer random balanced assignment; control.
//   - Greedy: chain most-affiliated experts layer by layer (a Formula-2
//     style local optimum).
//   - LayerSweep: coordinate descent where each layer is re-placed optimally
//     (an exact balanced-transportation solve) against its fixed neighbors.
//   - Anneal: simulated-annealing refinement by intra-layer expert swaps.
//   - Solve: the production pipeline (sweep + anneal).
//   - Staged: the two-stage node-then-GPU hierarchy of Section IV-C.
package placement

import (
	"fmt"

	"repro/internal/topo"
	"repro/internal/trace"
)

// Placement assigns experts to GPUs: Assign[layer][expert] = gpu.
type Placement struct {
	Layers  int
	Experts int
	GPUs    int
	Assign  [][]int
}

// NewPlacement allocates an all-zero placement (valid only if GPUs == 1).
func NewPlacement(layers, experts, gpus int) *Placement {
	p := &Placement{Layers: layers, Experts: experts, GPUs: gpus}
	p.Assign = make([][]int, layers)
	for j := range p.Assign {
		p.Assign[j] = make([]int, experts)
	}
	return p
}

// Capacity returns the experts-per-GPU-per-layer count (the paper's C1).
func (p *Placement) Capacity() int { return p.Experts / p.GPUs }

// GPUOf returns the GPU holding expert e at layer j.
func (p *Placement) GPUOf(j, e int) int { return p.Assign[j][e] }

// Clone deep-copies the placement.
func (p *Placement) Clone() *Placement {
	c := NewPlacement(p.Layers, p.Experts, p.GPUs)
	for j := range p.Assign {
		copy(c.Assign[j], p.Assign[j])
	}
	return c
}

// Equal reports whether two placements have the same shape and agree on
// every (layer, expert) assignment.
func (p *Placement) Equal(o *Placement) bool {
	if p.Layers != o.Layers || p.Experts != o.Experts || p.GPUs != o.GPUs {
		return false
	}
	for j := range p.Assign {
		for e, g := range p.Assign[j] {
			if o.Assign[j][e] != g {
				return false
			}
		}
	}
	return true
}

// Validate checks the paper's Formulas 9 and 10: every expert on exactly one
// GPU (structurally true here) and every GPU holding exactly E/P experts at
// every layer.
func (p *Placement) Validate() error {
	if p.Experts%p.GPUs != 0 {
		return fmt.Errorf("placement: %d experts not divisible by %d gpus", p.Experts, p.GPUs)
	}
	cap := p.Capacity()
	for j := 0; j < p.Layers; j++ {
		counts := make([]int, p.GPUs)
		for e := 0; e < p.Experts; e++ {
			g := p.Assign[j][e]
			if g < 0 || g >= p.GPUs {
				return fmt.Errorf("placement: layer %d expert %d on invalid gpu %d", j, e, g)
			}
			counts[g]++
		}
		for g, c := range counts {
			if c != cap {
				return fmt.Errorf("placement: layer %d gpu %d holds %d experts, want %d", j, g, c, cap)
			}
		}
	}
	return nil
}

// ExpertsOn returns the experts placed on GPU g at layer j.
func (p *Placement) ExpertsOn(j, g int) []int {
	var out []int
	for e := 0; e < p.Experts; e++ {
		if p.Assign[j][e] == g {
			out = append(out, e)
		}
	}
	return out
}

// Crossings evaluates the paper's objective (Formula 8) on transition
// counts: the weighted number of consecutive-layer transitions whose two
// experts live on different GPUs.
func (p *Placement) Crossings(counts [][][]float64) float64 {
	total := 0.0
	for j := 0; j < p.Layers-1 && j < len(counts); j++ {
		for from := 0; from < p.Experts; from++ {
			gFrom := p.Assign[j][from]
			row := counts[j][from]
			for to, w := range row {
				if w != 0 && gFrom != p.Assign[j+1][to] {
					total += w
				}
			}
		}
	}
	return total
}

// NodeCrossings evaluates the staged objective: transitions whose experts
// live on different *nodes* under the given GPUs-per-node grouping.
func (p *Placement) NodeCrossings(counts [][][]float64, gpusPerNode int) float64 {
	total := 0.0
	for j := 0; j < p.Layers-1 && j < len(counts); j++ {
		for from := 0; from < p.Experts; from++ {
			nFrom := p.Assign[j][from] / gpusPerNode
			row := counts[j][from]
			for to, w := range row {
				if w != 0 && nFrom != p.Assign[j+1][to]/gpusPerNode {
					total += w
				}
			}
		}
	}
	return total
}

// LocalityReport summarizes where a trace's transitions land under a
// placement and topology: the fractions of token hops that stay on the same
// GPU, stay intra-node, or cross nodes (the quantities in the paper's
// Figs 7 and 8).
type LocalityReport struct {
	Transitions   float64
	SameGPU       float64
	SameNode      float64 // strictly: same node, different GPU
	CrossNode     float64
	FracSameGPU   float64
	FracIntraNode float64 // SameGPU + SameNode
	FracCrossNode float64
}

// Locality classifies every consecutive-layer transition of a trace.
func (p *Placement) Locality(tr *trace.Trace, tp *topo.Topology) LocalityReport {
	if tp.TotalGPUs() != p.GPUs {
		panic(fmt.Sprintf("placement: topology has %d gpus, placement %d", tp.TotalGPUs(), p.GPUs))
	}
	var rep LocalityReport
	for _, path := range tr.Paths {
		for j := 0; j+1 < len(path); j++ {
			src := p.Assign[j][path[j]]
			dst := p.Assign[j+1][path[j+1]]
			rep.Transitions++
			switch tp.Classify(src, dst) {
			case topo.SameGPU:
				rep.SameGPU++
			case topo.SameNode:
				rep.SameNode++
			default:
				rep.CrossNode++
			}
		}
	}
	if rep.Transitions > 0 {
		rep.FracSameGPU = rep.SameGPU / rep.Transitions
		rep.FracIntraNode = (rep.SameGPU + rep.SameNode) / rep.Transitions
		rep.FracCrossNode = rep.CrossNode / rep.Transitions
	}
	return rep
}
