package placement

import "math"

// TransIndex is a CSR/CSC view of the nonzero inter-layer expert
// transitions of a counts tensor. At realistic top-k routing the dense
// [E][E] transition matrices are overwhelmingly zero (each expert hands
// tokens to a handful of affine successors), so the annealer's per-proposal
// re-pricing — which only ever needs the actual successors and predecessors
// of the two swapped experts — wastes almost all of its time skipping
// zeros. The index stores, per adjacent layer pair, both orientations:
//
//   - succ (CSR): for each `from` expert, its nonzero (to, weight) entries
//     in ascending `to` order — the row counts[j][from].
//   - pred (CSC): for each `to` expert, its nonzero (from, weight) entries
//     in ascending `from` order — the column counts[j][·][to].
//
// Entry order matters beyond cache friendliness: it is exactly the order
// the dense scans visit nonzeros, so every floating-point accumulation the
// index drives (Crossings, the annealer's swapDelta) reproduces the dense
// result bit for bit — sparse and dense solves walk identical trajectories.
//
// The index is immutable after construction and safe for concurrent use by
// portfolio replicas.
type TransIndex struct {
	Layers, Experts int
	pairs           []transPair // one per adjacent layer pair present in counts
}

// transPair indexes one layer pair's nonzero transitions both ways.
type transPair struct {
	succStart []int32 // len Experts+1; row e spans succ[succStart[e]:succStart[e+1]]
	succTo    []int32
	succW     []float64
	predStart []int32 // len Experts+1; column e spans pred[predStart[e]:predStart[e+1]]
	predFrom  []int32
	predW     []float64
}

// NewTransIndex builds the sparse index for a counts tensor, shaped for a
// (layers, experts) placement problem. Cost is O(nnz + L*E) — one pass to
// size the offset arrays and one to fill them — amortized over the tens of
// thousands of proposals a solve prices against it.
func NewTransIndex(counts [][][]float64, layers, experts int) *TransIndex {
	npairs := layers - 1
	if len(counts) < npairs {
		npairs = len(counts)
	}
	if npairs < 0 {
		npairs = 0
	}
	ix := &TransIndex{Layers: layers, Experts: experts, pairs: make([]transPair, npairs)}
	for j := 0; j < npairs; j++ {
		pair := &ix.pairs[j]
		pair.succStart = make([]int32, experts+1)
		pair.predStart = make([]int32, experts+1)
		rows := len(counts[j])
		if rows > experts {
			rows = experts
		}
		nnz := 0
		for from := 0; from < rows; from++ {
			for to, w := range counts[j][from] {
				if w != 0 {
					nnz++
					pair.succStart[from+1]++
					pair.predStart[to+1]++
				}
			}
		}
		for e := 0; e < experts; e++ {
			pair.succStart[e+1] += pair.succStart[e]
			pair.predStart[e+1] += pair.predStart[e]
		}
		pair.succTo = make([]int32, nnz)
		pair.succW = make([]float64, nnz)
		pair.predFrom = make([]int32, nnz)
		pair.predW = make([]float64, nnz)
		succFill := make([]int32, experts)
		predFill := make([]int32, experts)
		// Filling in (from asc, to asc) scan order leaves every CSR row in
		// ascending `to` order and every CSC column in ascending `from`
		// order — the dense scan order the bit-identity guarantee needs.
		for from := 0; from < rows; from++ {
			for to, w := range counts[j][from] {
				if w == 0 {
					continue
				}
				si := pair.succStart[from] + succFill[from]
				pair.succTo[si], pair.succW[si] = int32(to), w
				succFill[from]++
				pi := pair.predStart[to] + predFill[to]
				pair.predFrom[pi], pair.predW[pi] = int32(from), w
				predFill[to]++
			}
		}
	}
	return ix
}

// NNZ returns the total nonzero transition count across all layer pairs.
func (ix *TransIndex) NNZ() int {
	n := 0
	for j := range ix.pairs {
		n += len(ix.pairs[j].succW)
	}
	return n
}

// Crossings evaluates the paper's objective (Formula 8) over the index:
// identical to Placement.Crossings on the counts the index was built from
// — bit for bit, because the nonzeros are visited in the same order — but
// touching only nonzero entries.
func (ix *TransIndex) Crossings(p *Placement) float64 {
	total := 0.0
	npairs := len(ix.pairs)
	if p.Layers-1 < npairs {
		npairs = p.Layers - 1
	}
	for j := 0; j < npairs; j++ {
		pair := &ix.pairs[j]
		next := p.Assign[j+1]
		for from := 0; from < ix.Experts; from++ {
			gFrom := p.Assign[j][from]
			for i := pair.succStart[from]; i < pair.succStart[from+1]; i++ {
				if gFrom != next[pair.succTo[i]] {
					total += pair.succW[i]
				}
			}
		}
	}
	return total
}

// swapDelta is the annealer's incremental move pricer over the index: the
// change in crossings if experts a and b of layer j swapped GPUs under p.
// Each call is O(deg(a) + deg(b)) — the two experts' actual predecessor and
// successor counts — instead of the dense O(E) column scan. The
// accumulation order matches the dense reference exactly (predecessors in
// ascending `from`, successors in ascending `to`, a before b), so sparse and
// dense anneals accept identical move sequences.
func (ix *TransIndex) swapDelta(p *Placement, j, a, b int) float64 {
	ga, gb := p.Assign[j][a], p.Assign[j][b]
	if ga == gb {
		return 0
	}
	delta := ix.moveDelta(p, 0, j, a, ga, gb)
	return ix.moveDelta(p, delta, j, b, gb, ga)
}

// moveDelta adds to delta the change in crossings on the transitions
// incident to expert e of layer j if it moved from GPU gOld to gNew, with
// every other expert held in place.
func (ix *TransIndex) moveDelta(p *Placement, delta float64, j, e, gOld, gNew int) float64 {
	if j > 0 && j-1 < len(ix.pairs) {
		pair := &ix.pairs[j-1]
		prev := p.Assign[j-1]
		for i := pair.predStart[e]; i < pair.predStart[e+1]; i++ {
			delta = crossStep(delta, pair.predW[i], prev[pair.predFrom[i]], gOld, gNew)
		}
	}
	if j < p.Layers-1 && j < len(ix.pairs) {
		pair := &ix.pairs[j]
		next := p.Assign[j+1]
		for i := pair.succStart[e]; i < pair.succStart[e+1]; i++ {
			delta = crossStep(delta, pair.succW[i], next[pair.succTo[i]], gOld, gNew)
		}
	}
	return delta
}

// crossStep prices one transition of weight w whose other end sits on GPU
// g: it subtracts w unless g is gOld (the transition crossed before the
// move), then adds w unless g is gNew (it crosses after). The dense
// reference branches on both tests; crossStep selects w or +0 on the
// weight's bits instead, because the tests are unpredictable and the
// mispredictions cost more than the float operations. The result is the
// same bits: subtracting +0 changes no value, and adding +0 changes only
// -0, which a delta that starts at +0 and moves by nonzero weights (the
// index stores no zeros) never reaches.
func crossStep(delta, w float64, g, gOld, gNew int) float64 {
	bits := math.Float64bits(w)
	sub, add := bits, bits
	if g == gOld {
		sub = 0
	}
	if g == gNew {
		add = 0
	}
	return delta - math.Float64frombits(sub) + math.Float64frombits(add)
}
