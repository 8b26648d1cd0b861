package collective

import (
	"fmt"
	"math"
	"sync"
	"testing"

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

func TestAllReduceSumCorrect(t *testing.T) {
	for _, gpus := range []int{1, 2, 3, 4, 8} {
		tp := topo.ForGPUs(gpus)
		p := tp.TotalGPUs()
		const n = 17 // deliberately not divisible by p
		run(tp, func(r *cluster.Rank) {
			mine := make([]float64, n)
			for i := range mine {
				mine[i] = float64(r.ID*100 + i)
			}
			got := AllReduceSum(r, mine, "ar")
			for i := range got {
				want := 0.0
				for s := 0; s < p; s++ {
					want += float64(s*100 + i)
				}
				if math.Abs(got[i]-want) > 1e-9 {
					t.Errorf("gpus=%d rank=%d elem %d: got %v want %v", gpus, r.ID, i, got[i], want)
					return
				}
			}
		})
	}
}

func TestAllReduceDoesNotMutateInput(t *testing.T) {
	tp := topo.SingleNode(2)
	run(tp, func(r *cluster.Rank) {
		mine := []float64{1, 2, 3}
		AllReduceSum(r, mine, "ar")
		if mine[0] != 1 || mine[1] != 2 || mine[2] != 3 {
			t.Errorf("input mutated: %v", mine)
		}
	})
}

func TestBroadcastFromEveryRoot(t *testing.T) {
	tp := topo.Wilkes3(2)
	p := tp.TotalGPUs()
	for root := 0; root < p; root++ {
		var mu sync.Mutex
		got := make([]int, p)
		run(tp, func(r *cluster.Rank) {
			val := -1
			if r.ID == root {
				val = 4242
			}
			out := Broadcast(r, root, val, 8, "bc")
			mu.Lock()
			got[r.ID] = out
			mu.Unlock()
		})
		for rank, v := range got {
			if v != 4242 {
				t.Fatalf("root=%d rank=%d got %d", root, rank, v)
			}
		}
	}
}

func TestBroadcastInvalidRootPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	run(topo.SingleNode(2), func(r *cluster.Rank) {
		Broadcast(r, 5, 1, 8, "bc")
	})
}

func TestBroadcastSingleRank(t *testing.T) {
	run(topo.SingleNode(1), func(r *cluster.Rank) {
		if Broadcast(r, 0, 7, 8, "bc") != 7 {
			t.Error("single-rank broadcast wrong")
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

// BenchmarkAlltoall16GPU times back-to-back engine-sized Alltoalls on one
// 16-GPU cluster: each rank sends zero to three tokens to every peer,
// cycling through eight irregular tables built up front. One op is one
// collective on every rank.
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
	b.ReportAllocs()
	b.ResetTimer()
	c.Run(func(r *cluster.Rank) {
		mine := tables[r.ID]
		for i := 0; i < b.N; i++ {
			Alltoall(r, mine[i%len(mine)], 4096, "alltoall")
		}
	})
}
