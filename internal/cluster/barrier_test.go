package cluster

import (
	"math"
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/topo"
)

// refTimeBarrier is the mutex-and-cond barrier Barrier used before it became
// a lockstep exchange round, kept verbatim (less its poisoning) as the
// reference Barrier must match.
type refTimeBarrier struct {
	mu       sync.Mutex
	cond     *sync.Cond
	n        int
	arrived  int
	gen      int
	maxTime  float64
	result   float64
	poisoned bool
}

func newRefTimeBarrier(n int) *refTimeBarrier {
	b := &refTimeBarrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until n participants have called it, then releases everyone
// with the maximum submitted time. It is reusable across generations.
func (b *refTimeBarrier) wait(t float64) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.poisoned {
		panic("cluster: barrier poisoned by a peer rank panic")
	}
	gen := b.gen
	if t > b.maxTime {
		b.maxTime = t
	}
	b.arrived++
	if b.arrived == b.n {
		b.result = b.maxTime
		b.arrived = 0
		b.maxTime = 0
		b.gen++
		b.cond.Broadcast()
		return b.result
	}
	for gen == b.gen && !b.poisoned {
		b.cond.Wait()
	}
	if b.poisoned {
		panic("cluster: barrier poisoned by a peer rank panic")
	}
	return b.result
}

// TestBarrierMatchesTimeBarrier runs rounds of rank-dependent compute, each
// closed by a barrier, through Barrier and through the reference barrier:
// every rank's clock and per-category totals must agree bit for bit.
func TestBarrierMatchesTimeBarrier(t *testing.T) {
	run := func(tp *topo.Topology, seed uint64, barrier func(r *Rank, ref *refTimeBarrier)) [][]uint64 {
		c := New(tp)
		ref := newRefTimeBarrier(c.Size())
		ranks := c.Run(func(r *Rank) {
			g := rng.New(rng.Mix64(seed, uint64(r.ID)))
			for round := 0; round < 50; round++ {
				for k := g.Intn(3); k >= 0; k-- {
					r.Advance([]string{"attention", "expert", "gating"}[g.Intn(3)], g.Float64()*1e-4)
				}
				barrier(r, ref)
			}
		})
		out := make([][]uint64, len(ranks))
		for i, r := range ranks {
			out[i] = []uint64{math.Float64bits(r.Now())}
			for _, c := range r.categories {
				out[i] = append(out[i], math.Float64bits(c.total))
			}
		}
		return out
	}
	for _, gpus := range []int{1, 4, 8, 16} {
		for seed := uint64(1); seed <= 3; seed++ {
			want := run(topo.ForGPUs(gpus), seed, func(r *Rank, ref *refTimeBarrier) { r.advanceTo(ref.wait(r.clock)) })
			got := run(topo.ForGPUs(gpus), seed, func(r *Rank, _ *refTimeBarrier) { r.Barrier() })
			for i := range want {
				if len(got[i]) != len(want[i]) {
					t.Fatalf("%d gpus seed %d: rank %d has %d categories, reference %d", gpus, seed, i, len(got[i])-1, len(want[i])-1)
				}
				for k := range want[i] {
					if got[i][k] != want[i][k] {
						t.Fatalf("%d gpus seed %d: rank %d clock/category bits %v, reference %v", gpus, seed, i, got[i], want[i])
					}
				}
			}
		}
	}
}
