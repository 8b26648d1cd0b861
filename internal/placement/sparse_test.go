package placement

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/topo"
)

// The sparse TransIndex is the annealer's production move pricer; these
// tests pin its two contracts: exact (bitwise) agreement with the dense
// objective, and exact agreement of whole solve trajectories — the sparse
// path must be a pure speedup, never a different solver.

func TestPropertySparseCrossingsMatchesDense(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		tr, layers, experts, gpus := randomInstance(seed)
		counts := tr.AllTransitionCounts()
		ix := NewTransIndex(counts, layers, experts)
		for _, pl := range []*Placement{
			Random(layers, experts, gpus, seed^0x0F),
			Contiguous(layers, experts, gpus),
		} {
			// Bitwise equality, not tolerance: the index visits nonzeros in
			// dense scan order, so the accumulation is the same float
			// sequence.
			if ix.Crossings(pl) != pl.Crossings(counts) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSparseCrossingsEdgeShapes(t *testing.T) {
	// All-zero counts: no transitions, objective identically zero.
	layers, experts, gpus := 4, 8, 2
	zero := make([][][]float64, layers-1)
	for j := range zero {
		zero[j] = make([][]float64, experts)
		for e := range zero[j] {
			zero[j][e] = make([]float64, experts)
		}
	}
	ix := NewTransIndex(zero, layers, experts)
	if ix.NNZ() != 0 {
		t.Fatalf("all-zero counts produced %d nonzeros", ix.NNZ())
	}
	pl := Random(layers, experts, gpus, 3)
	if got, want := ix.Crossings(pl), pl.Crossings(zero); got != want || got != 0 {
		t.Fatalf("zero-counts crossings sparse %v dense %v", got, want)
	}
	// Anneal on the zero instance must still be feasible on both paths.
	for _, dense := range []bool{false, true} {
		out := Anneal(zero, pl, AnnealOptions{Iterations: 500, Seed: 1, Dense: dense})
		if err := out.Validate(); err != nil {
			t.Fatalf("dense=%v: %v", dense, err)
		}
	}

	// Single-expert layers: E=1 forces GPUs=1; the index degenerates to one
	// self-transition chain and the objective must still agree.
	one := make([][][]float64, 2)
	for j := range one {
		one[j] = [][]float64{{float64(3 + j)}}
	}
	ixOne := NewTransIndex(one, 3, 1)
	plOne := NewPlacement(3, 1, 1)
	if got, want := ixOne.Crossings(plOne), plOne.Crossings(one); got != want {
		t.Fatalf("single-expert crossings sparse %v dense %v", got, want)
	}
}

func TestPropertySparseAnnealBitIdenticalToDense(t *testing.T) {
	// The acceptance pin: for the same seed, the sparse (production) anneal
	// and the dense reference anneal walk identical trajectories — same RNG
	// draws, same accepts — and return bit-identical placements, with the
	// memory term both inactive and active.
	if err := quick.Check(func(seed uint64) bool {
		tr, layers, experts, gpus := randomInstance(seed)
		counts := tr.AllTransitionCounts()
		init := Contiguous(layers, experts, gpus)
		for _, mem := range []*MemoryObjective{nil, memObjectiveFor(counts, layers, experts, gpus, 2)} {
			sparse := Anneal(counts, init, AnnealOptions{Iterations: 1500, Seed: seed, Memory: mem})
			dense := Anneal(counts, init, AnnealOptions{Iterations: 1500, Seed: seed, Memory: mem, Dense: true})
			if !sparse.Equal(dense) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPortfolioDeterministicAndNonWorsening(t *testing.T) {
	// A fixed (Seed, Workers) portfolio is reproducible, and adding workers
	// can never return a worse blended objective than Workers=1 — replica 0
	// IS the Workers=1 run and the winner is chosen by objective.
	if err := quick.Check(func(seed uint64) bool {
		tr, layers, experts, gpus := randomInstance(seed)
		counts := tr.AllTransitionCounts()
		mo := memObjectiveFor(counts, layers, experts, gpus, 2)
		init := Contiguous(layers, experts, gpus)
		opts := AnnealOptions{Iterations: 1200, Seed: seed, Memory: mo}

		single := Anneal(counts, init, opts)
		opts.Workers = 4
		a := Anneal(counts, init, opts)
		b := Anneal(counts, init, opts)
		if !a.Equal(b) {
			return false // portfolio not deterministic
		}
		if a.Validate() != nil {
			return false
		}
		return mo.Objective(a, counts) <= mo.Objective(single, counts)+1e-9
	}, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestStagedPortfolioDeterministicAndValid(t *testing.T) {
	// The staged solve with Workers>1 parallelizes both the annealing
	// portfolio and the per-node stage-2 subproblems; the result must be
	// reproducible and feasible, and Workers=1 must match Staged exactly.
	r := rng.New(0xC0FFEE)
	tp := topo.Wilkes3(2 + r.Intn(2))
	layers := 4
	experts := tp.TotalGPUs() * 2
	counts := make([][][]float64, layers-1)
	rr := rng.New(7)
	for j := range counts {
		counts[j] = make([][]float64, experts)
		for e := range counts[j] {
			counts[j][e] = make([]float64, experts)
			for k := 0; k < 3; k++ {
				counts[j][e][rr.Intn(experts)] += float64(1 + rr.Intn(9))
			}
		}
	}
	serial := Staged(counts, layers, experts, tp, 42)
	w1 := StagedOpt(counts, layers, experts, tp, 42, StagedOptions{Workers: 1})
	if !serial.Equal(w1) {
		t.Fatal("Workers=1 staged solve diverged from Staged")
	}
	p1 := StagedOpt(counts, layers, experts, tp, 42, StagedOptions{Workers: 4})
	p2 := StagedOpt(counts, layers, experts, tp, 42, StagedOptions{Workers: 4})
	if !p1.Equal(p2) {
		t.Fatal("Workers=4 staged solve not deterministic")
	}
	if err := p1.Validate(); err != nil {
		t.Fatal(err)
	}
	// The portfolio guarantee is per stage (each annealed subproblem's
	// objective can only improve); the *hierarchical* global objective is
	// checked at the stage level where it holds: the node stage's inter-node
	// crossings never worsen.
	if p1.NodeCrossings(counts, tp.GPUsPerNode) > serial.NodeCrossings(counts, tp.GPUsPerNode)+1e-9 {
		t.Fatalf("portfolio staged solve worse at the node stage: %v vs %v",
			p1.NodeCrossings(counts, tp.GPUsPerNode), serial.NodeCrossings(counts, tp.GPUsPerNode))
	}
}

func TestSwapDeltaMatchesDenseBitsOnFractionalWeights(t *testing.T) {
	// Profiled counts are whole numbers, whose sums are exact in any order;
	// fractional weights round, so only the dense accumulation order gives
	// the dense pricer's bits. The sparse pricer must give them on every
	// proposal along a random walk of swaps.
	const layers, experts, gpus = 5, 12, 4
	r := rng.New(77)
	counts := make([][][]float64, layers-1)
	for j := range counts {
		counts[j] = make([][]float64, experts)
		for e := range counts[j] {
			counts[j][e] = make([]float64, experts)
			for k := range counts[j][e] {
				if r.Intn(2) == 0 {
					counts[j][e][k] = r.Float64() * 10
				}
			}
		}
	}
	p := Random(layers, experts, gpus, 5)
	ix := NewTransIndex(counts, layers, experts)
	dense := denseLayerDelta(counts, p)
	for step := 0; step < 20000; step++ {
		j, a, b := r.Intn(layers), r.Intn(experts), r.Intn(experts)
		sparse, ref := ix.swapDelta(p, j, a, b), dense(j, a, b)
		if math.Float64bits(sparse) != math.Float64bits(ref) {
			t.Fatalf("step %d: swap (%d, %d, %d) sparse delta %v, dense %v", step, j, a, b, sparse, ref)
		}
		p.Assign[j][a], p.Assign[j][b] = p.Assign[j][b], p.Assign[j][a]
	}
}

// BenchmarkAnnealSwapDelta prices one annealing proposal with the sparse
// index: the crossing delta of swapping two experts of one layer, at the
// solver benchmarks' shape (16 layers, 32 experts, 8 GPUs, 3,000 profiled
// tokens) on a swept placement. Proposals are drawn the way the annealer
// draws them, skipping same-GPU pairs.
func BenchmarkAnnealSwapDelta(b *testing.B) {
	const layers, experts, gpus = 16, 32, 8
	counts := makeTrace(1, layers, experts, 3000, 0.85).AllTransitionCounts()
	p := LayerSweep(counts, layers, experts, gpus, LayerSweepOptions{})
	ix := NewTransIndex(counts, layers, experts)
	type proposal struct{ j, a, b int }
	props := make([]proposal, 0, 4096)
	r := rng.New(2)
	for len(props) < cap(props) {
		j, a, b := r.Intn(layers), r.Intn(experts), r.Intn(experts)
		if p.Assign[j][a] != p.Assign[j][b] {
			props = append(props, proposal{j, a, b})
		}
	}
	sink := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := props[i%len(props)]
		sink += ix.swapDelta(p, pr.j, pr.a, pr.b)
	}
	if math.IsNaN(sink) {
		b.Fatal("NaN crossing delta")
	}
}
