package cluster

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/topo"
)

func smallTopo() *topo.Topology { return topo.Wilkes3(2) } // 8 ranks

func TestRunExecutesAllRanks(t *testing.T) {
	c := New(smallTopo())
	var count int64
	c.Run(func(r *Rank) {
		atomic.AddInt64(&count, 1)
	})
	if count != int64(c.Size()) {
		t.Fatalf("ran %d ranks, want %d", count, c.Size())
	}
}

// sendOne runs one Pairwise exchange round in which only rank from sends:
// n bytes, at step s, to rank from+s.
func sendOne(r *Rank, category string, from, s, n int) {
	r.Exchange(Pairwise, category, r, func(_ []any, bytes [][]int) {
		for _, row := range bytes {
			clear(row)
		}
		bytes[from][s] = n
	})
}

func TestSendChargesSenderByTier(t *testing.T) {
	c := New(smallTopo())
	ranks := c.Run(func(r *Rank) {
		const bytes = 1 << 20
		sendOne(r, "intra", 0, 1, bytes) // to rank 1, same node
		sendOne(r, "inter", 0, 4, bytes) // to rank 4, other node
	})
	bd := ranks[0].Breakdown()
	if bd["intra"] <= 0 || bd["inter"] <= 0 {
		t.Fatalf("missing charges: %v", bd)
	}
	if bd["inter"] <= bd["intra"] {
		t.Fatalf("inter-node send (%v) should cost more than intra-node (%v)", bd["inter"], bd["intra"])
	}
}

func TestRecvAdvancesToArrival(t *testing.T) {
	c := New(smallTopo())
	ranks := c.Run(func(r *Rank) {
		if r.ID == 0 {
			r.Advance("compute", 1.0) // sender is busy for 1s first
		}
		// Rank 1 receives from rank 0 at step 1 and sends nothing; its
		// clock must jump past 1s.
		sendOne(r, "comm", 0, 1, 1000)
	})
	if ranks[1].Now() < 1.0 {
		t.Fatalf("receiver clock %v did not advance to message arrival", ranks[1].Now())
	}
	// Idle waiting is not attributed to any category.
	if got := ranks[1].Breakdown()["comm"]; got != 0 {
		t.Fatalf("receiver should not be charged comm time, got %v", got)
	}
}

func TestAdvanceAccumulatesCategories(t *testing.T) {
	c := New(smallTopo())
	ranks := c.Run(func(r *Rank) {
		r.Advance("a", 1)
		r.Advance("b", 2)
		r.Advance("a", 3)
	})
	bd := ranks[0].Breakdown()
	if bd["a"] != 4 || bd["b"] != 2 {
		t.Fatalf("breakdown wrong: %v", bd)
	}
	if ranks[0].Now() != 6 {
		t.Fatalf("clock %v, want 6", ranks[0].Now())
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("expected panic to propagate from Run")
		}
		if !strings.Contains(p.(string), "negative") {
			t.Fatalf("unexpected panic: %v", p)
		}
	}()
	c := New(topo.SingleNode(1))
	c.Run(func(r *Rank) {
		r.Advance("x", -1)
	})
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	c := New(smallTopo())
	ranks := c.Run(func(r *Rank) {
		r.Advance("compute", float64(r.ID)) // rank i busy for i seconds
		r.Barrier()
	})
	want := float64(c.Size() - 1)
	for _, r := range ranks {
		if math.Abs(r.Now()-want) > 1e-12 {
			t.Fatalf("rank %d clock %v after barrier, want %v", r.ID, r.Now(), want)
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	c := New(smallTopo())
	ranks := c.Run(func(r *Rank) {
		for i := 0; i < 5; i++ {
			r.Advance("w", 1)
			r.Barrier()
		}
	})
	for _, r := range ranks {
		if r.Now() != 5 {
			t.Fatalf("rank %d clock %v, want 5", r.ID, r.Now())
		}
	}
}

func TestMaxClockAndMergedBreakdown(t *testing.T) {
	c := New(smallTopo())
	ranks := c.Run(func(r *Rank) {
		r.Advance("op", float64(r.ID+1))
	})
	if MaxClock(ranks) != float64(c.Size()) {
		t.Fatalf("MaxClock = %v", MaxClock(ranks))
	}
	avg := MergedBreakdown(ranks)["op"]
	want := float64(c.Size()+1) / 2
	if math.Abs(avg-want) > 1e-12 {
		t.Fatalf("merged avg %v, want %v", avg, want)
	}
}

func TestLocalCopyCheaperThanNetwork(t *testing.T) {
	c := New(smallTopo())
	ranks := c.Run(func(r *Rank) {
		if r.ID == 0 {
			r.LocalCopy(1<<20, "local")
		}
		sendOne(r, "net", 0, 1, 1<<20)
	})
	bd := ranks[0].Breakdown()
	if bd["local"] >= bd["net"] {
		t.Fatalf("local copy (%v) should be cheaper than network (%v)", bd["local"], bd["net"])
	}
}

func TestRankPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected rank panic to propagate")
		}
	}()
	c := New(smallTopo())
	c.Run(func(r *Rank) {
		if r.ID == 3 {
			panic("boom")
		}
		r.Barrier() // would deadlock without barrier poisoning
	})
}

func TestDeterministicClocks(t *testing.T) {
	run := func() []float64 {
		c := New(smallTopo())
		ranks := c.Run(func(r *Rank) {
			for i := 0; i < 12; i++ {
				r.Advance("compute", float64(r.ID)*1e-6)
				r.Exchange(Pattern(i%int(numPatterns)), "comm", r, func(_ []any, bytes [][]int) {
					for src, row := range bytes {
						for s := range row {
							row[s] = 1000 * (src + s)
						}
					}
				})
			}
			r.Barrier()
		})
		out := make([]float64, len(ranks))
		for i, r := range ranks {
			out[i] = r.Now()
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic clock at rank %d: %v vs %v", i, a[i], b[i])
		}
	}
}
