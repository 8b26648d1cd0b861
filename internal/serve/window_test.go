package serve

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/synth"
)

func TestWindowCountsIncremental(t *testing.T) {
	w := NewTraceWindow(3, 4, 2)
	w.Push([]int{0, 1, 2})
	w.Push([]int{1, 1, 3})
	if w.Size() != 2 || w.Fill() != 1 {
		t.Fatalf("size %d fill %v", w.Size(), w.Fill())
	}
	c := w.Counts()
	if c[0][0][1] != 1 || c[1][1][2] != 1 || c[0][1][1] != 1 || c[1][1][3] != 1 {
		t.Fatalf("counts wrong: %v", c)
	}
	// Third push evicts the first path: its transitions must vanish.
	w.Push([]int{2, 0, 0})
	c = w.Counts()
	if c[0][0][1] != 0 || c[1][1][2] != 0 {
		t.Fatal("evicted path's counts not removed")
	}
	if c[0][2][0] != 1 || c[1][0][0] != 1 {
		t.Fatal("new path's counts missing")
	}
	if w.Size() != 2 || w.Pushed() != 3 {
		t.Fatalf("size %d pushed %d", w.Size(), w.Pushed())
	}
}

func TestWindowCountsTotalInvariant(t *testing.T) {
	// After arbitrary churn, total transition mass must equal
	// size * (layers-1) and every count must be non-negative.
	const layers, experts, capacity = 5, 8, 16
	w := NewTraceWindow(layers, experts, capacity)
	r := rng.New(11)
	for i := 0; i < 200; i++ {
		path := make([]int, layers)
		for j := range path {
			path[j] = r.Intn(experts)
		}
		w.Push(path)
	}
	total := 0.0
	for _, m := range w.Counts() {
		for _, row := range m {
			for _, v := range row {
				if v < 0 {
					t.Fatalf("negative count %v", v)
				}
				total += v
			}
		}
	}
	if want := float64(capacity * (layers - 1)); total != want {
		t.Fatalf("total mass %v, want %v", total, want)
	}
	pooledTotal := 0.0
	for _, row := range w.Pooled() {
		for _, v := range row {
			pooledTotal += v
		}
	}
	if pooledTotal != total {
		t.Fatalf("pooled mass %v != %v", pooledTotal, total)
	}
	// PooledInto must overwrite a reused buffer's stale values and replace a
	// buffer or row of the wrong shape.
	want := w.Pooled()
	stale := w.Pooled()
	for _, row := range stale {
		for i := range row {
			row[i] = -1
		}
	}
	for _, buf := range [][][]float64{stale, nil, make([][]float64, experts-1), make([][]float64, experts)} {
		got := w.PooledInto(buf)
		for e := range want {
			for k := range want[e] {
				if got[e][k] != want[e][k] {
					t.Fatalf("PooledInto[%d][%d] = %v, Pooled %v", e, k, got[e][k], want[e][k])
				}
			}
		}
	}
}

func TestWindowSnapshotIsolated(t *testing.T) {
	w := NewTraceWindow(3, 4, 4)
	w.Push([]int{0, 1, 2})
	snap := w.Snapshot()
	w.Push([]int{0, 1, 2})
	if snap[0][0][1] != 1 {
		t.Fatal("snapshot mutated by later push")
	}
	// Nor by pushes that wrap the ring, nor by later reads.
	snap = w.Snapshot()
	want := make([][][]float64, len(snap))
	for j := range snap {
		for _, row := range snap[j] {
			want[j] = append(want[j], append([]float64(nil), row...))
		}
	}
	r := rng.New(3)
	for i := 0; i < 3*w.Capacity()+1; i++ {
		w.Push([]int{r.Intn(4), r.Intn(4), r.Intn(4)})
		w.Counts()
		w.Pooled()
	}
	if err := sameTensor(want, snap); err != nil {
		t.Fatalf("snapshot mutated after wrapping: %v", err)
	}
}

func TestNewTraceWindowRejectsBadShapes(t *testing.T) {
	for _, c := range [][3]int{{1, 4, 2}, {3, 0, 2}, {3, 1<<16 + 1, 2}, {3, 4, 0}} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "invalid window shape") {
					t.Errorf("NewTraceWindow(%d, %d, %d) panicked with %q, want an invalid shape", c[0], c[1], c[2], msg)
				}
			}()
			NewTraceWindow(c[0], c[1], c[2])
		}()
	}
	NewTraceWindow(2, 1<<16, 1) // every expert id still fits a uint16
}

func TestTraceWindowPushPanics(t *testing.T) {
	for _, c := range []struct {
		name string
		path []int
		want string
	}{
		{"short", []int{0, 1}, "path length 2, want 3"},
		{"long", []int{0, 1, 2, 3}, "path length 4, want 3"},
		{"negative", []int{0, -1, 2}, "expert -1 out of range at layer 1"},
		{"too large", []int{0, 1, 4}, "expert 4 out of range at layer 2"},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := NewTraceWindow(3, 4, 2)
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, c.want) {
					t.Fatalf("Push(%v) panicked with %q, want %q", c.path, msg, c.want)
				}
				if w.Size() != 0 || w.Pushed() != 0 {
					t.Fatalf("a rejected path was counted: size %d pushed %d", w.Size(), w.Pushed())
				}
			}()
			w.Push(c.path)
		})
	}
}

// incrementalWindow is TraceWindow as it was when Push maintained the count
// tensor incrementally, kept verbatim as the reference for the window that
// counts at read time.
type incrementalWindow struct {
	layers, experts int
	buf             [][]uint16
	head            int
	size            int
	counts          [][][]float64 // [layer][from][to], layer in [0, layers-2]
	pushed          int           // lifetime pushes, for diagnostics
}

func newIncrementalWindow(layers, experts, capacity int) *incrementalWindow {
	if layers < 2 || experts <= 0 || capacity <= 0 {
		panic(fmt.Sprintf("serve: invalid window shape %dx%d cap %d", layers, experts, capacity))
	}
	w := &incrementalWindow{
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

func (w *incrementalWindow) Size() int             { return w.size }
func (w *incrementalWindow) Capacity() int         { return len(w.buf) }
func (w *incrementalWindow) Fill() float64         { return float64(w.size) / float64(len(w.buf)) }
func (w *incrementalWindow) Pushed() int           { return w.pushed }
func (w *incrementalWindow) Counts() [][][]float64 { return w.counts }

func (w *incrementalWindow) Push(path []int) {
	if len(path) != w.layers {
		panic(fmt.Sprintf("serve: path length %d, want %d", len(path), w.layers))
	}
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

func (w *incrementalWindow) apply(path []uint16, delta float64) {
	for j := 0; j+1 < w.layers; j++ {
		w.counts[j][path[j]][path[j+1]] += delta
	}
}

func (w *incrementalWindow) Snapshot() [][][]float64 {
	out := make([][][]float64, len(w.counts))
	for j := range w.counts {
		out[j] = make([][]float64, w.experts)
		for e := range w.counts[j] {
			out[j][e] = append([]float64(nil), w.counts[j][e]...)
		}
	}
	return out
}

func (w *incrementalWindow) Pooled() [][]float64 {
	return refPoolCounts(nil, w.counts, w.experts)
}

func refPoolCounts(dst [][]float64, counts [][][]float64, experts int) [][]float64 {
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

// sameMatrix compares two matrices cell by cell, bit for bit.
func sameMatrix(want, got [][]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d has %d cells, want %d", i, len(got[i]), len(want[i]))
		}
		for k := range want[i] {
			if math.Float64bits(got[i][k]) != math.Float64bits(want[i][k]) {
				return fmt.Errorf("[%d][%d] = %v, want %v", i, k, got[i][k], want[i][k])
			}
		}
	}
	return nil
}

// sameTensor is sameMatrix over every layer pair.
func sameTensor(want, got [][][]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d layer pairs, want %d", len(got), len(want))
	}
	for j := range want {
		if err := sameMatrix(want[j], got[j]); err != nil {
			return fmt.Errorf("layer pair %d: %v", j, err)
		}
	}
	return nil
}

func TestTraceWindowMatchesIncremental(t *testing.T) {
	// Random push/read interleavings against the incremental reference:
	// reads on an empty window, before fill, at fill and after many wraps,
	// with PooledInto fed nil, stale and mis-shaped buffers.
	for _, capacity := range []int{1, 2, 7, 4096} {
		for _, layers := range []int{2, 3, 16} {
			for _, experts := range []int{1, 5, 32} {
				name := fmt.Sprintf("cap%d-L%d-E%d", capacity, layers, experts)
				t.Run(name, func(t *testing.T) {
					r := rng.New(uint64(capacity*1000 + layers*100 + experts))
					w := NewTraceWindow(layers, experts, capacity)
					ref := newIncrementalWindow(layers, experts, capacity)
					if w.Capacity() != ref.Capacity() {
						t.Fatalf("capacity %d, want %d", w.Capacity(), ref.Capacity())
					}
					// Reads land on the marked push counts, plus at random.
					total := 5*capacity + 12
					marks := map[int]bool{0: true, 1: true, capacity - 1: true, capacity: true,
						capacity + 1: true, 2*capacity - 1: true, 3 * capacity: true,
						total / 2: true, total: true}
					reads := 0
					path := make([]int, layers)
					var stale [][]float64
					for pushed := 0; pushed <= total; pushed++ {
						if marks[pushed] || r.Intn(2*capacity+4) == 0 {
							reads++
							stale = checkWindow(t, w, ref, r, stale)
						}
						if pushed == total {
							break
						}
						// Few distinct hot experts make repeated transitions
						// common, so cells count well past 1.
						hot := 1 + r.Intn(experts)
						for j := range path {
							path[j] = r.Intn(hot)
						}
						w.Push(path)
						ref.Push(path)
					}
					if reads < 5 {
						t.Fatalf("only %d reads", reads)
					}
				})
			}
		}
	}
}

// checkWindow compares every read of w against ref, and returns the pooled
// buffer it reused, poisoned so the next check sees stale values.
func checkWindow(t *testing.T, w *TraceWindow, ref *incrementalWindow, r *rng.RNG, stale [][]float64) [][]float64 {
	t.Helper()
	at := fmt.Sprintf("after %d pushes", ref.Pushed())
	if w.Size() != ref.Size() || w.Pushed() != ref.Pushed() ||
		math.Float64bits(w.Fill()) != math.Float64bits(ref.Fill()) {
		t.Fatalf("%s: size %d pushed %d fill %v, want %d %d %v", at,
			w.Size(), w.Pushed(), w.Fill(), ref.Size(), ref.Pushed(), ref.Fill())
	}
	want := ref.Counts()
	if err := sameTensor(want, w.Counts()); err != nil {
		t.Fatalf("%s: Counts: %v", at, err)
	}
	if err := sameTensor(want, w.Snapshot()); err != nil {
		t.Fatalf("%s: Snapshot: %v", at, err)
	}
	pooled := ref.Pooled()
	if err := sameMatrix(pooled, w.Pooled()); err != nil {
		t.Fatalf("%s: Pooled: %v", at, err)
	}
	e := len(pooled)
	short := make([][]float64, e)
	for i := range short {
		short[i] = make([]float64, r.Intn(e+2)) // some rows the wrong length
	}
	for _, c := range []struct {
		name string
		buf  [][]float64
	}{
		{"nil", nil},
		{"stale", stale},
		{"too few rows", make([][]float64, e-1)},
		{"too many rows", make([][]float64, e+1)},
		{"nil rows", make([][]float64, e)},
		{"mis-shaped rows", short},
	} {
		got := w.PooledInto(c.buf)
		if err := sameMatrix(pooled, got); err != nil {
			t.Fatalf("%s: PooledInto(%s): %v", at, c.name, err)
		}
		if c.name == "stale" && c.buf != nil && &got[0][0] != &c.buf[0][0] {
			t.Fatalf("%s: PooledInto reallocated a well-shaped buffer", at)
		}
	}
	// Hand back a well-shaped buffer full of garbage for the next check.
	stale = w.PooledInto(stale)
	for _, row := range stale {
		for k := range row {
			row[k] = math.NaN()
		}
	}
	return stale
}

// fillFromDataset routes n fresh tokens of a dataset through the kernel and
// pushes their paths, mirroring what the server does per decode iteration.
func fillFromDataset(w *TraceWindow, k *synth.Kernel, ds *synth.DatasetProfile, n, offset int) {
	r := synth.NewKernelRouter(k, ds, 1)
	for i := 0; i < n; i++ {
		id := ds.TokenID(uint64(offset + i))
		prev := -1
		path := make([]int, k.Layers)
		for j := 0; j < k.Layers; j++ {
			es := r.Route(j, id, prev, nil)
			path[j] = es[0]
			prev = es[0]
		}
		w.Push(path)
	}
}
