package placement

import (
	"testing"

	"repro/internal/assign"
	"repro/internal/rng"
	"repro/internal/topo"
)

// refLayerSweep is LayerSweep as it was before sweeps skipped clean layers,
// kept verbatim (its capacity helper now refCaps) as the reference the
// skipping sweep must match: every visit re-solves its layer.
func refLayerSweep(counts [][][]float64, layers, experts, gpus int, opts LayerSweepOptions) *Placement {
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
	caps := refCaps(experts, gpus)
	var solver assign.Solver
	benefit, cells := newBenefit(experts, gpus)

	resolveLayer := func(j int) {
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

// refWeightedSweep is WeightedSweep as it was before sweeps skipped clean
// layers, kept verbatim (its capacity helper now refCaps) as its reference.
func refWeightedSweep(counts [][][]float64, layers, experts int, tp *topo.Topology, nodePenalty float64, seed uint64) *Placement {
	gpus := tp.TotalGPUs()
	checkShape(experts, gpus)
	if nodePenalty < 0 {
		panic("placement: negative node penalty")
	}
	p := Contiguous(layers, experts, gpus)
	caps := refCaps(experts, gpus)
	benefitOf := func(a, b int) float64 {
		switch tp.Classify(a, b) {
		case topo.SameGPU:
			return 1 + nodePenalty
		case topo.SameNode:
			return nodePenalty
		default:
			return 0
		}
	}
	var solver assign.Solver
	benefit, cells := newBenefit(experts, gpus)
	resolveLayer := func(j int) {
		clear(cells)
		for g := 0; g < gpus; g++ {
			if j > 0 {
				for from := 0; from < experts; from++ {
					gFrom := p.Assign[j-1][from]
					w := benefitOf(gFrom, g)
					if w == 0 {
						continue
					}
					for to, c := range counts[j-1][from] {
						if c != 0 {
							benefit[to][g] += w * c
						}
					}
				}
			}
			if j < layers-1 {
				for from := 0; from < experts; from++ {
					row := counts[j][from]
					for to, c := range row {
						if c == 0 {
							continue
						}
						w := benefitOf(g, p.Assign[j+1][to])
						if w != 0 {
							benefit[from][g] += w * c
						}
					}
				}
			}
		}
		if _, err := solver.MaximizeBalanced(p.Assign[j], benefit, caps); err != nil {
			panic(err)
		}
	}
	blended := func() float64 {
		return p.Crossings(counts) + nodePenalty*p.NodeCrossings(counts, tp.GPUsPerNode)
	}
	prev := blended()
	for sweep := 0; sweep < 8; sweep++ {
		for j := 0; j < layers; j++ {
			resolveLayer(j)
		}
		for j := layers - 1; j >= 0; j-- {
			resolveLayer(j)
		}
		cur := blended()
		if cur >= prev-1e-9 {
			break
		}
		prev = cur
	}
	return Anneal(counts, p, AnnealOptions{Seed: seed})
}

// refCaps returns the per-GPU capacities of one layer's balanced
// assignment: experts/gpus each.
func refCaps(experts, gpus int) []int {
	caps := make([]int, gpus)
	for g := range caps {
		caps[g] = experts / gpus
	}
	return caps
}

// tieHeavyCounts draws transition counts from a handful of small integers,
// mostly zero, so many flow subproblems have tied optima.
func tieHeavyCounts(g *rng.RNG, layers, experts int) [][][]float64 {
	counts := make([][][]float64, layers-1)
	for j := range counts {
		counts[j] = make([][]float64, experts)
		for from := range counts[j] {
			counts[j][from] = make([]float64, experts)
			for to := range counts[j][from] {
				counts[j][from][to] = float64([]int{0, 0, 0, 0, 1, 1, 2, 3}[g.Intn(8)])
			}
		}
	}
	return counts
}

// randomBalanced draws a placement with experts/gpus experts of every layer
// on every GPU.
func randomBalanced(g *rng.RNG, layers, experts, gpus int) *Placement {
	p := NewPlacement(layers, experts, gpus)
	for j := range p.Assign {
		for slot, e := range g.Perm(experts) {
			p.Assign[j][e] = slot / (experts / gpus)
		}
	}
	return p
}

// TestSweepSkipMatchesFullSweep checks that skipping layers whose
// neighbours have not changed never changes a sweep's result: over random
// tie-heavy instances, LayerSweep (from Contiguous or a random Init, with
// several sweep bounds) and WeightedSweep (with a node penalty, on
// multi-node topologies) must return the placement their full-sweep
// references return.
func TestSweepSkipMatchesFullSweep(t *testing.T) {
	g := rng.New(23)
	for trial := 0; trial < 300; trial++ {
		layers := 1 + g.Intn(8)
		gpus := []int{1, 2, 3, 4}[g.Intn(4)]
		experts := gpus * (1 + g.Intn(4))
		counts := tieHeavyCounts(g, max(layers, 2), experts)[:max(layers-1, 0)]
		opts := LayerSweepOptions{MaxSweeps: g.Intn(4)}
		if g.Intn(2) == 0 {
			opts.Init = randomBalanced(g, layers, experts, gpus)
		}
		want := refLayerSweep(counts, layers, experts, gpus, opts)
		if got := LayerSweep(counts, layers, experts, gpus, opts); !got.Equal(want) {
			t.Fatalf("trial %d: LayerSweep (L=%d E=%d P=%d, %d sweeps, init %t) = %v, full sweep %v",
				trial, layers, experts, gpus, opts.MaxSweeps, opts.Init != nil, got.Assign, want.Assign)
		}
	}
	for trial := 0; trial < 60; trial++ {
		tp := topo.Wilkes3(1 + g.Intn(3))
		tp.GPUsPerNode = 1 + g.Intn(3)
		layers := 2 + g.Intn(5)
		experts := tp.TotalGPUs() * (1 + g.Intn(3))
		counts := tieHeavyCounts(g, layers, experts)
		penalty := float64(g.Intn(7))
		seed := uint64(trial)
		want := refWeightedSweep(counts, layers, experts, tp, penalty, seed)
		if got := WeightedSweep(counts, layers, experts, tp, penalty, seed); !got.Equal(want) {
			t.Fatalf("trial %d: WeightedSweep (L=%d E=%d %dx%d, penalty %v) = %v, full sweep %v",
				trial, layers, experts, tp.Nodes, tp.GPUsPerNode, penalty, got.Assign, want.Assign)
		}
	}
}
