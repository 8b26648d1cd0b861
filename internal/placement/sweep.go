package placement

import (
	"slices"

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
// improving; a layer whose neighbors have not changed since its last solve
// is skipped, since re-solving it would rewrite the same row (sweepLayers).
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
	fill := func(j int, benefit [][]float64) {
		// benefit[e][g]: transition weight kept local if expert e of layer j
		// sits on GPU g, given the fixed neighbor layers.
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
	}
	sweepLayers(p, maxSweeps, func() float64 { return p.Crossings(counts) }, fill)
	return p
}

// sweepLayers is the coordinate descent LayerSweep and WeightedSweep share:
// forward then backward passes over p's layers until objective stops
// improving or maxSweeps passes have run. A visit to layer j zeroes the
// benefit matrix, lets fill add the weight each expert of layer j keeps
// local on each GPU given rows j-1 and j+1 of p.Assign, and writes the
// balanced assignment that maximizes it into row j, with one flow
// workspace and one benefit matrix for the whole sweep.
//
// fill reads only the neighbouring rows and inputs that never change during
// the sweep, and the flow solver is a pure function of its inputs
// (assign.Solver). So a visit whose layer was solved after both neighbours
// last changed would rewrite the same row, and is skipped. The first pass
// solves every layer, and a layer counts as changed only when its solve
// rewrote its row with different values. Every pass therefore ends in the
// placement a sweep without skips reaches, and the convergence test reads
// the same objectives.
func sweepLayers(p *Placement, maxSweeps int, objective func() float64, fill func(j int, benefit [][]float64)) {
	layers, experts, gpus := p.Layers, p.Experts, p.GPUs
	var solver assign.Solver
	benefit, cells := newBenefit(experts, gpus)
	// caps holds each GPU's experts/gpus capacity. solvedAt[j] and
	// changedAt[j] are the visit numbers (from 1) of layer j's last solve
	// and of the last solve that changed its row, and old holds the row a
	// solve is about to replace.
	ints := make([]int, gpus+2*layers+experts)
	caps, ints := ints[:gpus], ints[gpus:]
	solvedAt, changedAt, old := ints[:layers], ints[layers:2*layers], ints[2*layers:]
	for g := range caps {
		caps[g] = experts / gpus
	}
	visit := 0
	step := func(j int) {
		visit++
		if solvedAt[j] > 0 &&
			(j == 0 || changedAt[j-1] < solvedAt[j]) &&
			(j == layers-1 || changedAt[j+1] < solvedAt[j]) {
			return
		}
		copy(old, p.Assign[j])
		clear(cells)
		fill(j, benefit)
		if _, err := solver.MaximizeBalanced(p.Assign[j], benefit, caps); err != nil {
			// Capacities always suffice by construction; this is a bug trap.
			panic(err)
		}
		solvedAt[j] = visit
		if !slices.Equal(old, p.Assign[j]) {
			changedAt[j] = visit
		}
	}
	prev := objective()
	for sweep := 0; sweep < maxSweeps; sweep++ {
		for j := 0; j < layers; j++ {
			step(j)
		}
		for j := layers - 1; j >= 0; j-- {
			step(j)
		}
		cur := objective()
		if cur >= prev-1e-9 {
			break
		}
		prev = cur
	}
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
