package collective

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/topo"
)

func TestHierarchicalAlltoallMatchesFlat(t *testing.T) {
	for _, nodes := range []int{1, 2, 4} {
		tp := topo.Wilkes3(nodes)
		p := tp.TotalGPUs()
		var mu sync.Mutex
		got := make(map[[2]int]string)
		run(tp, func(r *cluster.Rank) {
			send := make([][]string, p)
			for d := 0; d < p; d++ {
				send[d] = []string{fmt.Sprintf("%d->%d", r.ID, d)}
			}
			recv := HierarchicalAlltoall(r, send, 16, "ha2a")
			mu.Lock()
			defer mu.Unlock()
			for s := 0; s < p; s++ {
				if len(recv[s]) == 1 {
					got[[2]int{s, r.ID}] = recv[s][0]
				}
			}
		})
		for s := 0; s < p; s++ {
			for d := 0; d < p; d++ {
				want := fmt.Sprintf("%d->%d", s, d)
				if got[[2]int{s, d}] != want {
					t.Fatalf("nodes=%d: chunk (%d,%d) = %q, want %q", nodes, s, d, got[[2]int{s, d}], want)
				}
			}
		}
	}
}

func TestHierarchicalAlltoallIrregular(t *testing.T) {
	tp := topo.Wilkes3(2)
	p := tp.TotalGPUs()
	run(tp, func(r *cluster.Rank) {
		send := make([][]int, p)
		for d := 0; d < p; d++ {
			for k := 0; k < (r.ID+d)%3; k++ {
				send[d] = append(send[d], r.ID*100+d)
			}
		}
		recv := HierarchicalAlltoall(r, send, 8, "ha2a")
		for s := 0; s < p; s++ {
			wantLen := (s + r.ID) % 3
			if len(recv[s]) != wantLen {
				t.Errorf("rank %d: chunk from %d has %d elems, want %d", r.ID, s, len(recv[s]), wantLen)
				return
			}
			for _, v := range recv[s] {
				if v != s*100+r.ID {
					t.Errorf("rank %d: wrong payload from %d", r.ID, s)
					return
				}
			}
		}
	})
}

func TestHierarchicalFewerInterNodeMessagesAtSmallChunks(t *testing.T) {
	// With tiny per-pair chunks the flat Alltoall pays the IB latency
	// GPUsPerNode^2 times per node pair; the hierarchical schedule pays it
	// once (plus NVLink staging). The simulated time must reflect that.
	tp := topo.Wilkes3(4) // 16 ranks
	p := tp.TotalGPUs()
	timeOf := func(hier bool) float64 {
		ranks := run(tp, func(r *cluster.Rank) {
			send := make([][]byte, p)
			for d := range send {
				send[d] = make([]byte, 128) // latency-dominated
			}
			if hier {
				HierarchicalAlltoall(r, send, 1, "x")
			} else {
				Alltoall(r, send, 1, "x")
			}
			r.Barrier()
		})
		return cluster.MaxClock(ranks)
	}
	flat, hier := timeOf(false), timeOf(true)
	if hier >= flat {
		t.Fatalf("hierarchical (%v) should beat flat (%v) on latency-bound chunks", hier, flat)
	}
}

func TestHierarchicalSingleNodeDelegates(t *testing.T) {
	tp := topo.SingleNode(4)
	p := tp.TotalGPUs()
	run(tp, func(r *cluster.Rank) {
		send := make([][]int, p)
		for d := range send {
			send[d] = []int{r.ID}
		}
		recv := HierarchicalAlltoall(r, send, 8, "x")
		for s := 0; s < p; s++ {
			if len(recv[s]) != 1 || recv[s][0] != s {
				t.Errorf("rank %d: wrong delivery from %d", r.ID, s)
			}
		}
	})
}

func TestHierarchicalWrongChunkCountPanics(t *testing.T) {
	defer func() {
		if s, _ := recover().(string); !strings.Contains(s, "needs 8 chunks, got 3") {
			t.Fatalf("panic %q does not give the chunk counts", s)
		}
	}()
	run(topo.Wilkes3(2), func(r *cluster.Rank) {
		HierarchicalAlltoall(r, make([][]int, 3), 8, "x")
	})
}
