package placement

import (
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/topo"
)

// SolveOptions tunes the single-level Solve pipeline.
type SolveOptions struct {
	// Seed feeds the annealer (and derives portfolio replica seeds).
	Seed uint64
	// Memory optionally folds expected expert-stall into the annealing
	// polish (the sweep stays crossing-only); nil or inactive reproduces
	// Solve bit-identically.
	Memory *MemoryObjective
	// Workers is the annealing portfolio width (see AnnealOptions.Workers);
	// zero or one is the single-replica solve, bit-identical to Solve.
	Workers int
	// Obs optionally receives solver metrics (proposal/acceptance counters,
	// stage wall times). Nil costs nothing; metrics never affect the solve.
	Obs *obs.Registry
}

// Solve runs the production single-level pipeline: LayerSweep coordinate
// descent refined by simulated annealing. seed feeds the annealer.
func Solve(counts [][][]float64, layers, experts, gpus int, seed uint64) *Placement {
	return SolveOpt(counts, layers, experts, gpus, SolveOptions{Seed: seed})
}

// SolveOpt is the fully-optioned single-level pipeline: LayerSweep followed
// by an annealing polish that can run as a parallel portfolio. Zero options
// (beyond Seed) reproduce Solve bit-identically.
func SolveOpt(counts [][][]float64, layers, experts, gpus int, opts SolveOptions) *Placement {
	p := LayerSweep(counts, layers, experts, gpus, LayerSweepOptions{})
	return Anneal(counts, p, AnnealOptions{Seed: opts.Seed, Memory: opts.Memory, Workers: opts.Workers, Obs: opts.Obs})
}

// StagedOptions tunes the two-stage hierarchical solve.
type StagedOptions struct {
	// Memory, when active, folds expected expert-stall cost into both
	// stages' annealing objective: the node stage sees each node as one
	// pooled HBM budget (GPUsPerNode * Slots), and each node's GPU stage
	// prices the real per-GPU budget over the node's residents.
	Memory *MemoryObjective
	// Workers is the annealing portfolio width applied to both stages (see
	// AnnealOptions.Workers), and additionally lets stage 2's independent
	// per-node subproblems run concurrently. Any fixed value is
	// deterministic; zero or one reproduces the serial solve bit-identically.
	Workers int
	// Obs optionally receives solver metrics: per-stage wall-time histograms
	// (solver_stage_node_seconds, solver_stage_gpu_seconds) and the annealer's
	// proposal/acceptance counters. Nil costs nothing; metrics never affect
	// the solve.
	Obs *obs.Registry
}

// Staged implements the paper's two-stage hierarchical optimization
// (Section IV-C / IV-D): because inter-node links are far slower than
// NVLink, stage 1 first minimizes *inter-node* transitions by solving the
// placement problem with one "GPU" per node (capacity C2 = E/nodes), and
// stage 2 then minimizes *intra-node* transitions by solving an independent
// subproblem inside each node, distributing that node's experts over its
// GPUs (capacity C1 = E/P). The objective function is identical in both
// stages — only what counts as a "crossing" changes — exactly as the paper
// applies Formula 8 top-down.
func Staged(counts [][][]float64, layers, experts int, tp *topo.Topology, seed uint64) *Placement {
	return StagedOpt(counts, layers, experts, tp, seed, StagedOptions{})
}

// StagedOpt is Staged with options (see StagedOptions). Zero options
// reproduce Staged bit-identically.
func StagedOpt(counts [][][]float64, layers, experts int, tp *topo.Topology, seed uint64, opts StagedOptions) *Placement {
	gpus := tp.TotalGPUs()
	checkShape(experts, gpus)
	if tp.Nodes == 1 {
		return SolveOpt(counts, layers, experts, gpus, SolveOptions{Seed: seed, Memory: opts.Memory, Workers: opts.Workers, Obs: opts.Obs})
	}
	if experts%tp.Nodes != 0 {
		panic(fmt.Sprintf("placement: experts %d not divisible by nodes %d", experts, tp.Nodes))
	}

	// Stage 1: place experts onto nodes, each node pooling its GPUs' HBM.
	reg := opts.Obs
	nodeStart := reg.Now()
	nodePl := SolveOpt(counts, layers, experts, tp.Nodes,
		SolveOptions{Seed: seed, Memory: opts.Memory.group(tp.GPUsPerNode), Workers: opts.Workers, Obs: opts.Obs})
	reg.Histogram("solver_stage_node_seconds", obs.SecondsBuckets()).Observe(reg.Now() - nodeStart)
	gpuStageSeconds := reg.Histogram("solver_stage_gpu_seconds", obs.SecondsBuckets())

	// Stage 2: within each node, place its residents onto the node's GPUs.
	// Each node's subproblem only sees transition weight between experts
	// resident on the node in adjacent layers — transitions entering or
	// leaving the node already pay the inter-node price regardless of the
	// local GPU chosen (stage 1 fixed that), so they do not constrain
	// stage 2. The subproblems are fully independent (disjoint experts,
	// disjoint GPU ranks), so with Workers > 1 they solve concurrently.
	final := NewPlacement(layers, experts, gpus)
	perGPU := experts / gpus
	solveNode := func(node int) {
		nodeT0 := reg.Now()
		defer func() { gpuStageSeconds.Observe(reg.Now() - nodeT0) }()
		// residents[j] = experts of layer j on this node (in index order).
		residents := make([][]int, layers)
		index := make([][]int, layers) // expert -> local slot, or -1
		for j := 0; j < layers; j++ {
			index[j] = make([]int, experts)
			for e := range index[j] {
				index[j][e] = -1
			}
			for e := 0; e < experts; e++ {
				if nodePl.Assign[j][e] == node {
					index[j][e] = len(residents[j])
					residents[j] = append(residents[j], e)
				}
			}
		}
		// Stage 1 is balanced, so every layer holds experts/nodes residents;
		// size by the widest layer anyway so a hypothetical ragged resident
		// list degrades into zero-padded columns (matching restrict's
		// phantom-slot handling) instead of an out-of-range write.
		perNode := 0
		for _, res := range residents {
			if len(res) > perNode {
				perNode = len(res)
			}
		}
		// Restricted counts between consecutive layers' residents.
		sub := make([][][]float64, layers-1)
		for j := 0; j < layers-1; j++ {
			sub[j] = make([][]float64, perNode)
			for a := range sub[j] {
				sub[j][a] = make([]float64, perNode)
			}
			for _, from := range residents[j] {
				for _, to := range residents[j+1] {
					sub[j][index[j][from]][index[j+1][to]] = counts[j][from][to]
				}
			}
		}
		var subMem *MemoryObjective
		if opts.Memory.Active() {
			subMem = opts.Memory.restrict(residents)
		}
		subPl := SolveOpt(sub, layers, perNode, tp.GPUsPerNode,
			SolveOptions{Seed: seed + uint64(node) + 1, Memory: subMem, Workers: opts.Workers, Obs: opts.Obs})
		for j := 0; j < layers; j++ {
			for slot, e := range residents[j] {
				final.Assign[j][e] = tp.Rank(node, subPl.Assign[j][slot])
			}
		}
	}
	if opts.Workers > 1 {
		var wg sync.WaitGroup
		for node := 0; node < tp.Nodes; node++ {
			wg.Add(1)
			go func(node int) {
				defer wg.Done()
				solveNode(node)
			}(node)
		}
		wg.Wait()
	} else {
		for node := 0; node < tp.Nodes; node++ {
			solveNode(node)
		}
	}
	// The construction guarantees balance: each node holds E/nodes experts
	// per layer and distributes them E/P per GPU.
	if perGPU*gpus != experts {
		panic("placement: internal balance accounting error")
	}
	return final
}
