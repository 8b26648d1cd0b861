package placement

import (
	"math"
	"sync"

	"repro/internal/obs"
	"repro/internal/rng"
)

// AnnealOptions tunes the simulated-annealing refinement.
type AnnealOptions struct {
	// Iterations is the number of proposed swaps; zero means 20000.
	Iterations int
	// StartTemp and EndTemp bound the geometric cooling schedule, expressed
	// as a fraction of the initial objective; zeros mean 0.02 and 1e-5.
	StartTemp, EndTemp float64
	Seed               uint64
	// Memory, when active (a binding HBM slot budget), folds the expected
	// expert-stall cost into the objective: the annealer prices both the
	// crossing change and the hot-set concentration change of every proposed
	// swap under the warm-set residency model. Nil or inactive leaves the
	// crossing-only path bit-identical.
	Memory *MemoryObjective
	// Workers runs a portfolio of independent annealing replicas across
	// goroutines and returns the best result by blended objective. Replica 0
	// uses Seed itself and replicas i>0 use seeds derived from it, with ties
	// broken by replica order — so any fixed Workers value is reproducible,
	// Workers<=1 is bit-identical to the single-replica anneal, and
	// Workers=N can never return a worse objective than Workers=1 (replica 0
	// IS the Workers=1 run). Zero means 1.
	Workers int
	// Dense selects the dense reference move-pricing path: an O(E) scan of
	// the transition matrices per proposal instead of the sparse
	// TransIndex's O(degree) walk. The two paths accumulate floats in the
	// same order and produce bit-identical placements; Dense exists for the
	// equivalence tests and the sparse-vs-dense benchmarks.
	Dense bool
	// Index optionally supplies a prebuilt sparse transition index over
	// counts (see NewTransIndex); nil builds one per replica run. Portfolio
	// solves build it once and share it across replicas.
	Index *TransIndex
	// Obs optionally receives the annealer's proposal and acceptance
	// counters (solver_swaps_proposed_total, solver_swaps_accepted_total).
	// Portfolio replicas update the shared counters concurrently; the
	// registry is race-safe and the metrics never affect the solve.
	Obs *obs.Registry
}

// Anneal refines a placement by intra-layer expert swaps under a
// Metropolis acceptance rule. Swapping two experts within one layer
// preserves the balance constraint by construction, so every visited state
// is feasible. The returned placement is the best state encountered.
//
// The move delta is evaluated incrementally and sparsely: swapping experts
// a and b at layer j only changes crossings on transitions incident to a or
// b at layers j-1->j and j->j+1, and the TransIndex walks only the nonzero
// ones — O(degree) per proposal rather than O(E). With an active memory
// objective the stall delta is likewise incremental: only the two affected
// GPUs' residency sets are re-priced, without re-sorting (sortedMemState).
//
// With Workers > 1 the anneal becomes a parallel portfolio; see
// AnnealOptions.Workers for the determinism contract.
func Anneal(counts [][][]float64, init *Placement, opts AnnealOptions) *Placement {
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	if workers == 1 {
		pl, _ := annealRun(counts, init, opts, opts.Seed)
		return pl
	}
	if opts.Index == nil && !opts.Dense {
		opts.Index = NewTransIndex(counts, init.Layers, init.Experts)
	}
	type result struct {
		pl  *Placement
		obj float64
	}
	results := make([]result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seed := opts.Seed
			if w > 0 {
				seed = rng.Mix64(opts.Seed, 0xA11EA1, uint64(w))
			}
			pl, obj := annealRun(counts, init, opts, seed)
			results[w] = result{pl, obj}
		}(w)
	}
	wg.Wait()
	best := 0
	for w := 1; w < workers; w++ {
		// Strict < breaks ties in replica (seed) order: the portfolio is a
		// pure function of (Seed, Workers).
		if results[w].obj < results[best].obj {
			best = w
		}
	}
	return results[best].pl
}

// memPricer is the annealer's incremental view of the memory term: per-GPU
// cached stall costs re-priced two GPUs at a time per proposal. Two
// implementations exist — sortedMemState (production: sorted residency
// lists, no per-proposal sort) and memState (dense reference: scratch copy +
// sort per proposal; bit-identical to sortedMemState). The annealer always
// calls apply immediately after the swapCost that priced the same proposal.
type memPricer interface {
	total() float64
	gpuCost(g int) float64
	swapCost(j, a, b, ga, gb int) (newGa, newGb float64)
	apply(j, a, b, ga, gb int, newGa, newGb float64)
}

// annealRun is one annealing replica: the Metropolis loop under a given
// seed, returning the best placement and its blended objective.
func annealRun(counts [][][]float64, init *Placement, opts AnnealOptions, seed uint64) (*Placement, float64) {
	iters := opts.Iterations
	if iters <= 0 {
		iters = 20000
	}
	startT, endT := opts.StartTemp, opts.EndTemp
	if startT <= 0 {
		startT = 0.02
	}
	if endT <= 0 {
		endT = 1e-5
	}
	p := init.Clone()
	cur := p.Crossings(counts)
	var proposed, accepted uint64
	defer func() {
		opts.Obs.Counter("solver_swaps_proposed_total").Add(float64(proposed))
		opts.Obs.Counter("solver_swaps_accepted_total").Add(float64(accepted))
	}()
	memActive := opts.Memory.Active()
	var ms memPricer
	var invHop float64
	if memActive {
		if opts.Dense {
			ms = newMemState(opts.Memory, p)
		} else {
			ms = newSortedMemState(opts.Memory, p)
		}
		invHop = 1 / opts.Memory.HopSeconds
		cur += ms.total() * invHop
	}
	best := p.Clone()
	bestObj := cur
	if p.GPUs == 1 {
		return best, bestObj // single GPU: every placement is equivalent
	}
	scale := cur
	if scale == 0 {
		scale = 1
	}
	r := rng.New(seed)
	cool := math.Pow(endT/startT, 1/float64(iters))
	temp := startT * scale

	// The change in crossings if experts a and b of layer j swapped GPUs is
	// priced by idx.swapDelta, or by the dense reference closure.
	var idx *TransIndex
	var denseDelta func(j, a, b int) float64
	if opts.Dense {
		denseDelta = denseLayerDelta(counts, p)
	} else if idx = opts.Index; idx == nil {
		idx = NewTransIndex(counts, p.Layers, p.Experts)
	}

	for it := 0; it < iters; it++ {
		j := r.Intn(p.Layers)
		a := r.Intn(p.Experts)
		b := r.Intn(p.Experts)
		if a == b || p.Assign[j][a] == p.Assign[j][b] {
			temp *= cool
			continue
		}
		proposed++
		var delta float64
		if idx != nil {
			delta = idx.swapDelta(p, j, a, b)
		} else {
			delta = denseDelta(j, a, b)
		}
		ga, gb := p.Assign[j][a], p.Assign[j][b]
		var memGa, memGb float64
		if memActive {
			memGa, memGb = ms.swapCost(j, a, b, ga, gb)
			delta += (memGa + memGb - ms.gpuCost(ga) - ms.gpuCost(gb)) * invHop
		}
		if delta <= 0 || r.Float64() < math.Exp(-delta/temp) {
			accepted++
			p.Assign[j][a], p.Assign[j][b] = p.Assign[j][b], p.Assign[j][a]
			if memActive {
				ms.apply(j, a, b, ga, gb, memGa, memGb)
			}
			cur += delta
			if cur < bestObj {
				bestObj = cur
				for l, row := range p.Assign {
					copy(best.Assign[l], row)
				}
			}
		}
		temp *= cool
	}
	return best, bestObj
}

// denseLayerDelta is the reference O(E)-per-proposal move pricer: a full
// column scan over the predecessor layer and a full row scan over the
// successor layer, skipping zeros. Kept (behind AnnealOptions.Dense) as the
// ground truth the sparse path is tested bit-identical against, and as the
// baseline the solver benchmarks measure speedup from.
func denseLayerDelta(counts [][][]float64, p *Placement) func(j, a, b int) float64 {
	return func(j, a, b int) float64 {
		ga, gb := p.Assign[j][a], p.Assign[j][b]
		if ga == gb {
			return 0
		}
		delta := 0.0
		contrib := func(e, gOld, gNew int) {
			if j > 0 {
				for from := 0; from < p.Experts; from++ {
					w := counts[j-1][from][e]
					if w == 0 {
						continue
					}
					gFrom := p.Assign[j-1][from]
					if gFrom != gOld {
						delta -= w
					}
					if gFrom != gNew {
						delta += w
					}
				}
			}
			if j < p.Layers-1 {
				for to, w := range counts[j][e] {
					if w == 0 {
						continue
					}
					gTo := p.Assign[j+1][to]
					if gOld != gTo {
						delta -= w
					}
					if gNew != gTo {
						delta += w
					}
				}
			}
		}
		// Every transition touches at most one of {a, b}: both live at
		// layer j while transition endpoints sit in adjacent layers, whose
		// placements are unchanged. So the two contributions are disjoint
		// and can simply be summed.
		contrib(a, ga, gb)
		contrib(b, gb, ga)
		return delta
	}
}
