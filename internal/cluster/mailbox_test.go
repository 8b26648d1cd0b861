package cluster_test

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/topo"
)

// TestLaggingRankDoesNotDeadlock runs far more collectives than a mailbox
// holds while rank 0 lags: its peers push Gathers into full mailboxes and
// must wait on back-pressure, never deadlock. Gather is what exercises the
// back-pressure: the interleaved Alltoalls are lockstep exchanges, which
// hold every rank until the slowest arrives. The lag is host time only, so
// the simulated clocks must match a run without it.
func TestLaggingRankDoesNotDeadlock(t *testing.T) {
	rounds := 4*cluster.MailboxDepth + 1
	run := func(lag time.Duration) []float64 {
		c := cluster.New(topo.Wilkes3(2))
		p := c.Size()
		ranks := c.Run(func(r *cluster.Rank) {
			if r.ID == 0 {
				time.Sleep(lag)
			}
			for i := 0; i < rounds; i++ {
				if got := collective.Gather(r, 0, []int{i, r.ID}, 8, "gather"); r.ID == 0 {
					for src, chunk := range got {
						if chunk[0] != i || chunk[1] != src {
							t.Errorf("gather %d from rank %d delivered %v", i, src, chunk)
						}
					}
				}
			}
			for i := 0; i < rounds; i++ {
				send := make([][]int, p)
				for dst := range send {
					send[dst] = []int{i, r.ID, dst}
				}
				for src, chunk := range collective.Alltoall(r, send, 8, "alltoall") {
					if chunk[0] != i || chunk[1] != src || chunk[2] != r.ID {
						t.Errorf("alltoall %d on rank %d: rank %d delivered %v", i, r.ID, src, chunk)
					}
				}
				collective.Gather(r, 0, []int{i}, 8, "gather")
			}
		})
		clocks := make([]float64, len(ranks))
		for i, r := range ranks {
			clocks[i] = r.Now()
		}
		return clocks
	}
	done := make(chan [2][]float64, 1)
	go func() { done <- [2][]float64{run(0), run(20 * time.Millisecond)} }()
	select {
	case got := <-done:
		for i := range got[0] {
			if got[0][i] != got[1][i] {
				t.Fatalf("rank %d: clock %v without lag, %v with it", i, got[0][i], got[1][i])
			}
		}
	case <-time.After(time.Minute):
		t.Fatal("collectives deadlocked behind a lagging rank")
	}
}
