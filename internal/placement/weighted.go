package placement

import (
	"repro/internal/topo"
)

// WeightedSweep is a single-shot alternative to the two-stage Staged solve:
// instead of optimizing inter-node crossings first and intra-node crossings
// second, it minimizes one blended objective
//
//	cost(transition) = 1                    same node, different GPU
//	                 = 1 + NodePenalty      different node
//
// directly over GPU-level assignments, using the same transportation
// coordinate descent as LayerSweep (sweepLayers) with a topology-aware
// benefit matrix.
// NodePenalty expresses how much worse an inter-node hop is than an
// intra-node hop (the NVLink/IB gap suggests ~5-6 on the paper's hardware).
//
// Staged vs WeightedSweep is a real design choice the paper leaves open:
// staged guarantees stage-1 optimality on the slow tier but cannot trade a
// node crossing for several GPU crossings; the weighted objective can, at
// the price of a harder landscape. The ablation compares them empirically.
func WeightedSweep(counts [][][]float64, layers, experts int, tp *topo.Topology, nodePenalty float64, seed uint64) *Placement {
	gpus := tp.TotalGPUs()
	checkShape(experts, gpus)
	if nodePenalty < 0 {
		panic("placement: negative node penalty")
	}
	p := Contiguous(layers, experts, gpus)

	// tierBenefit[gHere][gThere] is the benefit weight of keeping a unit of
	// transition between GPUs gHere and gThere: full (1 + nodePenalty) when
	// on the same GPU, nodePenalty when merely on the same node, 0 across
	// nodes. Maximizing total benefit == minimizing the blended cost.
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

	fill := func(j int, benefit [][]float64) {
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
	}
	sweepLayers(p, 8, func() float64 {
		return p.Crossings(counts) + nodePenalty*p.NodeCrossings(counts, tp.GPUsPerNode)
	}, fill)
	// Polish with annealing on the GPU-level objective (cheap, keeps the
	// comparison with Solve/Staged fair).
	return Anneal(counts, p, AnnealOptions{Seed: seed})
}
