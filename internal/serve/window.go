package serve

import (
	"fmt"
)

// TraceWindow is a ring buffer over the most recent token routing paths:
// the online analogue of the offline profiling trace. Push copies a path
// into the ring, overwriting the oldest when the ring is full, and does
// nothing else. The per-layer-pair transition counts are derived when they
// are read: Pooled and PooledInto tally the held paths straight into one
// E x E matrix, and Counts and Snapshot rebuild the per-layer tensor. Every
// count is an integer far below 2^53, so the tally gives exactly the float64
// values an incrementally maintained tensor would hold, whatever the order
// of its additions.
//
// The serve loop pushes one path per decoded token and reads the counts
// once per drift check, thousands of pushes apart, so counting at read time
// is the cheaper side of the trade (see DESIGN.md, "Serve hot loop").
type TraceWindow struct {
	layers, experts int
	// rows holds capacity paths of layers entries each, path i at
	// rows[i*layers:(i+1)*layers]. The ring fills from slot 0, so the held
	// paths are always the first size slots.
	rows     []uint16
	capacity int
	head     int
	size     int
	pushed   int // lifetime pushes, for diagnostics
}

// NewTraceWindow allocates a window holding up to capacity paths.
func NewTraceWindow(layers, experts, capacity int) *TraceWindow {
	if layers < 2 || experts <= 0 || experts > 1<<16 || capacity <= 0 {
		panic(fmt.Sprintf("serve: invalid window shape %dx%d cap %d", layers, experts, capacity))
	}
	return &TraceWindow{
		layers:   layers,
		experts:  experts,
		rows:     make([]uint16, capacity*layers),
		capacity: capacity,
	}
}

// Size returns the number of paths currently held.
func (w *TraceWindow) Size() int { return w.size }

// Capacity returns the ring size.
func (w *TraceWindow) Capacity() int { return w.capacity }

// Fill returns Size/Capacity in [0,1].
func (w *TraceWindow) Fill() float64 { return float64(w.size) / float64(w.capacity) }

// Pushed returns the lifetime number of pushed paths.
func (w *TraceWindow) Pushed() int { return w.pushed }

// Push records one token's per-layer expert path, evicting the oldest path
// if the window is full. The path length must equal the layer count, and
// every expert must lie in [0, experts); a path that fails the check panics
// and may leave the slot it was copying into, the oldest path of a full
// window, partly overwritten. Push runs once per active request per decode
// iteration, the simulation's hottest loop, so it only checks the path and
// copies it into its slot.
func (w *TraceWindow) Push(path []int) {
	if len(path) != w.layers {
		panic(fmt.Sprintf("serve: path length %d, want %d", len(path), w.layers))
	}
	row := w.rows[w.head*w.layers:][:len(path)]
	for j, e := range path {
		if uint(e) >= uint(w.experts) { // a negative e reads as a huge uint
			panic(fmt.Sprintf("serve: expert %d out of range at layer %d", e, j))
		}
		row[j] = uint16(e)
	}
	if w.size < w.capacity {
		w.size++
	}
	if w.head++; w.head == w.capacity {
		w.head = 0
	}
	w.pushed++
}

// held returns the held paths, layers entries each.
func (w *TraceWindow) held() []uint16 { return w.rows[:w.size*w.layers] }

// Counts returns the live transition tensor, [layer][from][to] for layer in
// [0, layers-2], built from the held paths into fresh memory (as Snapshot).
func (w *TraceWindow) Counts() [][][]float64 { return w.Snapshot() }

// Snapshot returns the transition tensor in fresh memory, safe to hand to a
// background placement solve while the window keeps accumulating.
func (w *TraceWindow) Snapshot() [][][]float64 {
	counts := newTensor(w.layers-1, w.experts)
	held := w.held()
	for off := 0; off < len(held); off += w.layers {
		path := held[off : off+w.layers]
		for j, m := range counts {
			m[path[j]][path[j+1]]++
		}
	}
	return counts
}

// newTensor returns a zeroed pairs x experts x experts tensor on one backing
// array, each row capped at its end so an append cannot spill into the next.
func newTensor(pairs, experts int) [][][]float64 {
	cells := make([]float64, pairs*experts*experts)
	rows := make([][]float64, pairs*experts)
	out := make([][][]float64, pairs)
	for i := range rows {
		rows[i] = cells[i*experts : (i+1)*experts : (i+1)*experts]
	}
	for j := range out {
		out[j] = rows[j*experts : (j+1)*experts : (j+1)*experts]
	}
	return out
}

// Pooled sums the window's transition counts over all layer pairs into one
// fresh E x E matrix. Pooling multiplies the per-row sample mass by
// (layers-1), which is what makes the drift detector's divergence estimate
// low-variance enough to separate real distribution shift from sampling
// noise.
func (w *TraceWindow) Pooled() [][]float64 {
	return w.PooledInto(nil)
}

// PooledInto is Pooled into a caller's buffer: it overwrites dst with the
// pooled matrix and returns it, allocating only when dst is not E x E. A
// drift check that keeps one buffer across checks allocates nothing.
func (w *TraceWindow) PooledInto(dst [][]float64) [][]float64 {
	dst = zeroSquare(dst, w.experts)
	held := w.held()
	for off := 0; off < len(held); off += w.layers {
		path := held[off : off+w.layers]
		for j := 0; j+1 < len(path); j++ {
			dst[path[j]][path[j+1]]++
		}
	}
	return dst
}

// Pool sums an arbitrary transition tensor across layers — the form the
// drift Detector consumes (see TraceWindow.Pooled).
func Pool(counts [][][]float64, experts int) [][]float64 {
	dst := zeroSquare(nil, experts)
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

// zeroSquare returns dst zeroed, or a fresh zeroed matrix (rows replaced
// where needed) when dst is not experts x experts.
func zeroSquare(dst [][]float64, experts int) [][]float64 {
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
	return dst
}
