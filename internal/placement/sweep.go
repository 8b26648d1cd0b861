package placement

import (
	"repro/internal/assign"
)

// LayerSweepOptions tunes the coordinate-descent solver.
type LayerSweepOptions struct {
	// MaxSweeps bounds the number of full forward+backward passes.
	// Zero means 8.
	MaxSweeps int
	// Init is the starting placement; nil means Contiguous.
	Init *Placement
}

// LayerSweep solves the placement problem by coordinate descent over
// layers: holding all other layers fixed, the assignment of one layer's
// experts to GPUs that minimizes crossings with both neighbors is an exact
// balanced-transportation problem (each expert's cost of living on GPU g is
// the transition weight it would *fail* to keep local), solved by min-cost
// max-flow. Sweeps alternate forward and backward until the objective stops
// improving.
//
// Each single-layer step is optimal, so the objective is monotonically
// non-increasing and the procedure converges; the final result is a strong
// local optimum that the exact ILP certifies as globally optimal on small
// instances (see tests).
func LayerSweep(counts [][][]float64, layers, experts, gpus int, opts LayerSweepOptions) *Placement {
	checkShape(experts, gpus)
	maxSweeps := opts.MaxSweeps
	if maxSweeps <= 0 {
		maxSweeps = 8
	}
	var p *Placement
	if opts.Init != nil {
		p = opts.Init.Clone()
	} else {
		p = Contiguous(layers, experts, gpus)
	}
	caps := balancedCaps(experts, gpus)
	// One flow workspace and one benefit matrix serve every layer of the
	// sweep; each layer's assignment is written straight into p.
	var solver assign.Solver
	benefit, cells := newBenefit(experts, gpus)

	resolveLayer := func(j int) {
		// benefit[e][g]: transition weight kept local if expert e of layer j
		// sits on GPU g, given the fixed neighbor layers.
		clear(cells)
		if j > 0 {
			for from := 0; from < experts; from++ {
				g := p.Assign[j-1][from]
				for to, w := range counts[j-1][from] {
					if w != 0 {
						benefit[to][g] += w
					}
				}
			}
		}
		if j < layers-1 {
			for from := 0; from < experts; from++ {
				for to, w := range counts[j][from] {
					if w != 0 {
						benefit[from][p.Assign[j+1][to]] += w
					}
				}
			}
		}
		if _, err := solver.MaximizeBalanced(p.Assign[j], benefit, caps); err != nil {
			// Capacities always suffice by construction; this is a bug trap.
			panic(err)
		}
	}

	prev := p.Crossings(counts)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		for j := 0; j < layers; j++ {
			resolveLayer(j)
		}
		for j := layers - 1; j >= 0; j-- {
			resolveLayer(j)
		}
		cur := p.Crossings(counts)
		if cur >= prev-1e-9 {
			break
		}
		prev = cur
	}
	return p
}

// balancedCaps returns the per-GPU capacities of one layer's balanced
// assignment: experts/gpus each.
func balancedCaps(experts, gpus int) []int {
	caps := make([]int, gpus)
	for g := range caps {
		caps[g] = experts / gpus
	}
	return caps
}

// newBenefit allocates a rows x cols benefit matrix whose rows share one
// backing array, returned as cells so a sweep can zero it in one call.
func newBenefit(rows, cols int) (m [][]float64, cells []float64) {
	cells = make([]float64, rows*cols)
	m = make([][]float64, rows)
	for r := range m {
		m[r] = cells[r*cols : (r+1)*cols : (r+1)*cols]
	}
	return m, cells
}
