// Package trace captures, stores, samples and aggregates expert-routing
// traces: for each profiled token, the expert chosen at every MoE layer.
//
// Traces are the input to the whole ExFlow pipeline — the paper profiles a
// pre-trained model on sampled Pile tokens, records routing decisions at
// every layer, and solves the placement ILP from the resulting counts
// (Section IV-B, Section V-A).
package trace

import (
	"fmt"

	"repro/internal/moe"
	"repro/internal/rng"
)

// Trace holds the routing paths of a set of profiled tokens. Paths[t][j] is
// the (primary) expert chosen by token t at layer j.
type Trace struct {
	Layers  int
	Experts int
	Paths   [][]uint16
}

// New creates an empty trace for a model shape.
func New(layers, experts int) *Trace {
	if layers <= 0 || experts <= 0 || experts > 1<<16 {
		panic(fmt.Sprintf("trace: invalid shape %dx%d", layers, experts))
	}
	return &Trace{Layers: layers, Experts: experts}
}

// Tokens returns the number of recorded token paths.
func (t *Trace) Tokens() int { return len(t.Paths) }

// Append records one token's path. The path length must equal Layers and
// every expert must be in range.
func (t *Trace) Append(path []int) {
	t.appendRow(make([]uint16, t.Layers), path)
}

// appendRow is Append storing the path in row, which holds Layers entries.
func (t *Trace) appendRow(row []uint16, path []int) {
	if len(path) != t.Layers {
		panic(fmt.Sprintf("trace: path length %d, want %d", len(path), t.Layers))
	}
	for j, e := range path {
		if e < 0 || e >= t.Experts {
			panic(fmt.Sprintf("trace: expert %d out of range at layer %d", e, j))
		}
		row[j] = uint16(e)
	}
	t.Paths = append(t.Paths, row)
}

// Merge appends all paths of o (which must share the shape) into t.
func (t *Trace) Merge(o *Trace) {
	if o.Layers != t.Layers || o.Experts != t.Experts {
		panic("trace: merge shape mismatch")
	}
	t.Paths = append(t.Paths, o.Paths...)
}

// Sample returns a new trace containing n paths drawn uniformly without
// replacement (or all paths if n >= Tokens()).
func (t *Trace) Sample(n int, seed uint64) *Trace {
	out := New(t.Layers, t.Experts)
	if n >= t.Tokens() {
		out.Paths = append(out.Paths, t.Paths...)
		return out
	}
	perm := rng.New(seed).Perm(t.Tokens())
	for _, idx := range perm[:n] {
		out.Paths = append(out.Paths, t.Paths[idx])
	}
	return out
}

// Head returns a trace with the first n paths (or all if fewer).
func (t *Trace) Head(n int) *Trace {
	if n > t.Tokens() {
		n = t.Tokens()
	}
	out := New(t.Layers, t.Experts)
	out.Paths = append(out.Paths, t.Paths[:n]...)
	return out
}

// TransitionCounts returns the E x E matrix of transition counts between
// layer j and layer j+1: counts[from][to] is the number of profiled tokens
// routed to expert `from` at layer j and `to` at layer j+1.
func (t *Trace) TransitionCounts(j int) [][]float64 {
	return t.PairCounts(j, j+1)
}

// PairCounts returns the E x E count matrix between two arbitrary layers
// i < j (used for the appendix Figs 14-16 grids).
func (t *Trace) PairCounts(i, j int) [][]float64 {
	if i < 0 || j >= t.Layers || i >= j {
		panic(fmt.Sprintf("trace: invalid layer pair (%d,%d)", i, j))
	}
	// One backing array; each row is capped at its end so an append to it
	// cannot spill into the next.
	n := t.Experts
	cells := make([]float64, n*n)
	counts := make([][]float64, n)
	for e := range counts {
		counts[e] = cells[e*n : (e+1)*n : (e+1)*n]
	}
	for _, path := range t.Paths {
		counts[path[i]][path[j]]++
	}
	return counts
}

// AllTransitionCounts returns TransitionCounts for every consecutive layer
// pair, indexed by the earlier layer. This is the placement solvers' input.
func (t *Trace) AllTransitionCounts() [][][]float64 {
	out := make([][][]float64, t.Layers-1)
	for j := range out {
		out[j] = t.TransitionCounts(j)
	}
	return out
}

// LayerLoad returns the per-expert token counts at one layer.
func (t *Trace) LayerLoad(j int) []float64 {
	if j < 0 || j >= t.Layers {
		panic("trace: layer out of range")
	}
	load := make([]float64, t.Experts)
	for _, path := range t.Paths {
		load[path[j]]++
	}
	return load
}

// PathWalker is a router that can walk a token's whole primary-expert path
// in one call. PathInto must write into path (one entry per layer) exactly
// the experts Route puts first, layer after layer with each passed on as
// prev; Collect uses it when a router implements it.
type PathWalker interface {
	PathInto(tokenID uint64, path []int)
}

// Collect routes `tokens` token ids through a router and records the primary
// expert path of each. ids[i] must be globally unique token identities;
// prev expert state is threaded across layers exactly as the engine does it,
// through Route one layer at a time unless the router is a PathWalker.
func Collect(router moe.Router, layers int, ids []uint64) *Trace {
	t := New(layers, router.Experts())
	t.Paths = make([][]uint16, 0, len(ids))
	// Every token's row is a window of one slab, capped at its length.
	rows := make([]uint16, len(ids)*layers)
	path := make([]int, layers)
	walker, walks := router.(PathWalker)
	for _, id := range ids {
		if walks {
			walker.PathInto(id, path)
		} else {
			prev := -1
			for j := 0; j < layers; j++ {
				prev = router.Route(j, id, prev, nil)[0]
				path[j] = prev
			}
		}
		t.appendRow(rows[:layers:layers], path)
		rows = rows[layers:]
	}
	return t
}

// SequentialIDs is a convenience producing ids [start, start+n) mapped
// through a per-dataset namespace function.
func SequentialIDs(n int, mapID func(uint64) uint64) []uint64 {
	ids := make([]uint64, n)
	for i := range ids {
		if mapID != nil {
			ids[i] = mapID(uint64(i))
		} else {
			ids[i] = uint64(i)
		}
	}
	return ids
}
