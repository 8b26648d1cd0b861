package serve

import (
	"fmt"
)

// TraceWindow is a ring buffer over the most recent token routing paths,
// maintaining the per-layer-pair transition-count tensor incrementally: when
// a path is pushed the counts along it are incremented, and when it evicts
// the oldest path those counts are decremented. This gives the serving layer
// an O(L) per-token view of the *live* routing distribution — the online
// analogue of the offline profiling trace.
type TraceWindow struct {
	layers, experts int
	buf             [][]uint16
	head            int
	size            int
	counts          [][][]float64 // [layer][from][to], layer in [0, layers-2]
	pushed          int           // lifetime pushes, for diagnostics
}

// NewTraceWindow allocates a window holding up to capacity paths.
func NewTraceWindow(layers, experts, capacity int) *TraceWindow {
	if layers < 2 || experts <= 0 || capacity <= 0 {
		panic(fmt.Sprintf("serve: invalid window shape %dx%d cap %d", layers, experts, capacity))
	}
	w := &TraceWindow{
		layers:  layers,
		experts: experts,
		buf:     make([][]uint16, capacity),
		counts:  make([][][]float64, layers-1),
	}
	for j := range w.counts {
		w.counts[j] = make([][]float64, experts)
		for e := range w.counts[j] {
			w.counts[j][e] = make([]float64, experts)
		}
	}
	return w
}

// Size returns the number of paths currently held.
func (w *TraceWindow) Size() int { return w.size }

// Capacity returns the ring size.
func (w *TraceWindow) Capacity() int { return len(w.buf) }

// Fill returns Size/Capacity in [0,1].
func (w *TraceWindow) Fill() float64 { return float64(w.size) / float64(len(w.buf)) }

// Pushed returns the lifetime number of pushed paths.
func (w *TraceWindow) Pushed() int { return w.pushed }

// Push records one token's per-layer expert path, evicting the oldest path
// if the window is full. The path length must equal the layer count.
func (w *TraceWindow) Push(path []int) {
	if len(path) != w.layers {
		panic(fmt.Sprintf("serve: path length %d, want %d", len(path), w.layers))
	}
	// Reuse the evicted row's buffer when the ring is full: Push runs once
	// per active request per decode iteration, the simulation's hottest loop.
	row := w.buf[w.head]
	if row != nil {
		w.apply(row, -1)
		w.size--
	} else {
		row = make([]uint16, w.layers)
	}
	for j, e := range path {
		if e < 0 || e >= w.experts {
			panic(fmt.Sprintf("serve: expert %d out of range at layer %d", e, j))
		}
		row[j] = uint16(e)
	}
	w.buf[w.head] = row
	w.apply(row, +1)
	w.size++
	w.head = (w.head + 1) % len(w.buf)
	w.pushed++
}

// apply adds delta to the transition counts along a path.
func (w *TraceWindow) apply(path []uint16, delta float64) {
	for j := 0; j+1 < w.layers; j++ {
		w.counts[j][path[j]][path[j+1]] += delta
	}
}

// Counts returns the live transition tensor. The returned slices are the
// window's internal state: callers must treat them as read-only and must not
// retain them across Push calls.
func (w *TraceWindow) Counts() [][][]float64 { return w.counts }

// Snapshot deep-copies the transition tensor, safe to hand to a background
// placement solve while the window keeps accumulating.
func (w *TraceWindow) Snapshot() [][][]float64 {
	out := make([][][]float64, len(w.counts))
	for j := range w.counts {
		out[j] = make([][]float64, w.experts)
		for e := range w.counts[j] {
			out[j][e] = append([]float64(nil), w.counts[j][e]...)
		}
	}
	return out
}

// Pooled sums the window's transition counts over all layer pairs into one
// fresh E x E matrix. Pooling multiplies the per-row sample mass by
// (layers-1), which is what makes the drift detector's divergence estimate
// low-variance enough to separate real distribution shift from sampling
// noise.
func (w *TraceWindow) Pooled() [][]float64 {
	return poolCounts(nil, w.counts, w.experts)
}

// PooledInto is Pooled into a caller's buffer: it overwrites dst with the
// pooled matrix and returns it, allocating only when dst is not E x E. A
// drift check that keeps one buffer across checks allocates nothing.
func (w *TraceWindow) PooledInto(dst [][]float64) [][]float64 {
	return poolCounts(dst, w.counts, w.experts)
}

// Pool sums an arbitrary transition tensor across layers — the form the
// drift Detector consumes (see TraceWindow.Pooled).
func Pool(counts [][][]float64, experts int) [][]float64 {
	return poolCounts(nil, counts, experts)
}

// poolCounts sums a transition tensor across layers into dst, zeroed first,
// or into a fresh matrix when dst is not experts x experts.
func poolCounts(dst [][]float64, counts [][][]float64, experts int) [][]float64 {
	if len(dst) != experts {
		dst = make([][]float64, experts)
	}
	for e, row := range dst {
		if len(row) != experts {
			dst[e] = make([]float64, experts)
		} else {
			clear(row)
		}
	}
	for j := range counts {
		for from := range counts[j] {
			row := counts[j][from]
			out := dst[from]
			for to, v := range row {
				if v != 0 {
					out[to] += v
				}
			}
		}
	}
	return dst
}
