package serve

import (
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
