package collective

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/rng"
	"repro/internal/topo"
)

func run(t *topo.Topology, fn func(r *cluster.Rank)) []*cluster.Rank {
	return cluster.New(t).Run(fn)
}

func TestAlltoallPermutesData(t *testing.T) {
	tp := topo.Wilkes3(2)
	p := tp.TotalGPUs()
	var mu sync.Mutex
	got := make(map[[2]int]string) // (src,dst) -> payload received at dst
	run(tp, func(r *cluster.Rank) {
		send := make([][]string, p)
		for d := 0; d < p; d++ {
			send[d] = []string{fmt.Sprintf("%d->%d", r.ID, d)}
		}
		recv := Alltoall(r, send, 16, "a2a")
		mu.Lock()
		defer mu.Unlock()
		for s := 0; s < p; s++ {
			got[[2]int{s, r.ID}] = recv[s][0]
		}
	})
	for s := 0; s < p; s++ {
		for d := 0; d < p; d++ {
			want := fmt.Sprintf("%d->%d", s, d)
			if got[[2]int{s, d}] != want {
				t.Fatalf("chunk (%d,%d) = %q, want %q", s, d, got[[2]int{s, d}], want)
			}
		}
	}
}

func TestAlltoallIrregularChunks(t *testing.T) {
	tp := topo.SingleNode(4)
	p := tp.TotalGPUs()
	run(tp, func(r *cluster.Rank) {
		send := make([][]int, p)
		for d := 0; d < p; d++ {
			// Rank r sends d copies of r to rank d (possibly empty chunk).
			for k := 0; k < d; k++ {
				send[d] = append(send[d], r.ID)
			}
		}
		recv := Alltoall(r, send, 8, "a2a")
		for s := 0; s < p; s++ {
			if len(recv[s]) != r.ID {
				t.Errorf("rank %d: chunk from %d has len %d, want %d", r.ID, s, len(recv[s]), r.ID)
				return
			}
			for _, v := range recv[s] {
				if v != s {
					t.Errorf("rank %d: wrong payload from %d", r.ID, s)
					return
				}
			}
		}
	})
}

func TestAlltoallWrongChunkCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	run(topo.SingleNode(2), func(r *cluster.Rank) {
		Alltoall(r, make([][]int, 3), 8, "x")
	})
}

func TestAlltoallCostGrowsWithBytes(t *testing.T) {
	cost := func(chunk int) float64 {
		tp := topo.Wilkes3(2)
		p := tp.TotalGPUs()
		ranks := run(tp, func(r *cluster.Rank) {
			send := make([][]byte, p)
			for d := range send {
				send[d] = make([]byte, chunk)
			}
			Alltoall(r, send, 1, "a2a")
			r.Barrier()
		})
		return cluster.MaxClock(ranks)
	}
	small, large := cost(1<<10), cost(1<<20)
	if large <= small {
		t.Fatalf("Alltoall cost not monotone: %v vs %v", small, large)
	}
}

func TestAllgatherIdenticalEverywhere(t *testing.T) {
	tp := topo.Wilkes3(2)
	p := tp.TotalGPUs()
	var mu sync.Mutex
	views := make([][][]int, p)
	run(tp, func(r *cluster.Rank) {
		mine := []int{r.ID * 10, r.ID*10 + 1}
		all := Allgather(r, mine, 8, "ag")
		mu.Lock()
		views[r.ID] = all
		mu.Unlock()
	})
	for rank, view := range views {
		if len(view) != p {
			t.Fatalf("rank %d view has %d chunks", rank, len(view))
		}
		for src, chunk := range view {
			if len(chunk) != 2 || chunk[0] != src*10 || chunk[1] != src*10+1 {
				t.Fatalf("rank %d: chunk from %d wrong: %v", rank, src, chunk)
			}
		}
	}
}

func TestAllgatherEmptyChunks(t *testing.T) {
	tp := topo.SingleNode(3)
	run(tp, func(r *cluster.Rank) {
		var mine []int
		if r.ID == 1 {
			mine = []int{42}
		}
		all := Allgather(r, mine, 8, "ag")
		if len(all[0]) != 0 || len(all[2]) != 0 || len(all[1]) != 1 || all[1][0] != 42 {
			t.Errorf("rank %d: wrong gather result %v", r.ID, all)
		}
	})
}

func TestTotalBytes(t *testing.T) {
	chunks := [][]int{{1, 2}, nil, {3}}
	if TotalBytes(chunks, 8) != 24 {
		t.Fatalf("TotalBytes = %d", TotalBytes(chunks, 8))
	}
}

func TestAlltoallTimeScalesWithClusterSize(t *testing.T) {
	cost := func(gpus int) float64 {
		tp := topo.ForGPUs(gpus)
		p := tp.TotalGPUs()
		ranks := run(tp, func(r *cluster.Rank) {
			send := make([][]byte, p)
			for d := range send {
				send[d] = make([]byte, 64<<10)
			}
			Alltoall(r, send, 1, "a2a")
			r.Barrier()
		})
		return cluster.MaxClock(ranks)
	}
	// More GPUs (and especially more nodes) must make the same per-pair
	// chunk Alltoall slower — the premise of the paper's Fig 9.
	c4, c16, c32 := cost(4), cost(16), cost(32)
	if !(c4 < c16 && c16 < c32) {
		t.Fatalf("Alltoall scaling broken: 4gpu=%v 16gpu=%v 32gpu=%v", c4, c16, c32)
	}
}

// TestCollectivePanicReportsRootCause panics one rank just before a
// collective its peers have entered or are about to enter. Run must release
// the peers and re-raise the root cause, not a peer's abort, within 10 s.
func TestCollectivePanicReportsRootCause(t *testing.T) {
	ops := map[string]func(r *cluster.Rank){
		"alltoall":     func(r *cluster.Rank) { Alltoall(r, make([][]int, r.Cluster.Size()), 8, "a2a") },
		"hierarchical": func(r *cluster.Rank) { HierarchicalAlltoall(r, make([][]int, r.Cluster.Size()), 8, "ha2a") },
		"allgather":    func(r *cluster.Rank) { Allgather(r, []int{r.ID}, 8, "ag") },
		"barrier":      func(r *cluster.Rank) { r.Barrier() },
	}
	for name, op := range ops {
		for _, culprit := range []int{0, 5, 15} {
			done := make(chan any, 1)
			go func() {
				defer func() { done <- recover() }()
				cluster.New(topo.ForGPUs(16)).Run(func(r *cluster.Rank) {
					op(r) // one round completes first
					if r.ID == culprit {
						panic("root-cause-boom")
					}
					op(r)
					op(r)
				})
			}()
			select {
			case p := <-done:
				if s, ok := p.(string); !ok || !strings.Contains(s, "root-cause-boom") {
					t.Fatalf("%s, rank %d panicking: Run re-raised %v, want the root cause", name, culprit, p)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s, rank %d panicking: peers still blocked after 10 s", name, culprit)
			}
		}
	}
}

// BenchmarkAlltoall16GPU times back-to-back engine-sized Alltoalls on one
// 16-GPU cluster (4 nodes of 4), flat and on the node-leader schedule: each
// rank sends zero to three tokens to every peer, cycling through eight
// irregular tables built up front. One op is one collective on every rank.
func BenchmarkAlltoall16GPU(b *testing.B) {
	c := cluster.New(topo.ForGPUs(16))
	p := c.Size()
	tables := make([][][][]int, p) // tables[rank][variant][dst]
	for r := range tables {
		g := rng.New(rng.Mix64(16, uint64(r)))
		tables[r] = make([][][]int, 8)
		for v := range tables[r] {
			tables[r][v] = make([][]int, p)
			for d := range tables[r][v] {
				if n := g.Intn(4); n > 0 {
					tables[r][v][d] = make([]int, n)
				}
			}
		}
	}
	for _, bc := range []struct {
		name string
		a2a  func(*cluster.Rank, [][]int, int, string) [][]int
	}{{"flat", Alltoall[int]}, {"hierarchical", HierarchicalAlltoall[int]}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			c.Run(func(r *cluster.Rank) {
				mine := tables[r.ID]
				for i := 0; i < b.N; i++ {
					bc.a2a(r, mine[i%len(mine)], 4096, "alltoall")
				}
			})
		})
	}
}
