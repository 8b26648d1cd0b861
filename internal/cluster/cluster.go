// Package cluster implements the simulated distributed runtime the ExFlow
// engine executes on: every simulated GPU ("rank") is a goroutine, ranks
// exchange real data over per-pair channels, and each rank carries a
// deterministic simulated clock advanced by an alpha-beta network cost model
// (from package topo) and by modeled compute costs.
//
// The design follows the LogP tradition: a send charges the sender the full
// transfer time, the message is stamped with the sender's clock at
// completion, and a receive completes at max(receiver clock, message stamp).
// Synchronizing operations (Barrier, and the collectives built in package
// collective) therefore propagate the critical path exactly the way a real
// bulk-synchronous MoE inference step does.
package cluster

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/topo"
)

// message is a stamped payload traveling between ranks.
type message struct {
	data    any
	arrival float64 // sender clock when the transfer completes
	poison  bool    // set when a peer rank panicked; Recv re-panics
}

// mailboxDepth bounds the per-(src,dst) channel. The collectives run in
// lockstep (every rank issues the same sequence, and each send to a peer is
// matched by that peer's receive in the same collective), so at most 2
// messages are outstanding per pair: one from the current collective and one
// from a sender already in the next. A sender further ahead only blocks
// until the receiver catches up, which it does in order, so a full mailbox
// is back-pressure, never a deadlock. Each slot holds a pointer the GC must
// zero and scan, and a 16-GPU cluster has 256 mailboxes, so the depth stays
// small.
const mailboxDepth = 16

// Cluster owns the topology, the mailboxes, and the shared barrier.
type Cluster struct {
	Topo  *topo.Topology
	n     int
	boxes [][]chan message // boxes[src][dst]
	bar   *timeBarrier
}

// New creates a cluster with one rank per GPU in the topology.
func New(t *topo.Topology) *Cluster {
	if err := t.Validate(); err != nil {
		panic(err)
	}
	n := t.TotalGPUs()
	boxes := make([][]chan message, n)
	for s := range boxes {
		boxes[s] = make([]chan message, n)
		for d := range boxes[s] {
			boxes[s][d] = make(chan message, mailboxDepth)
		}
	}
	return &Cluster{Topo: t, n: n, boxes: boxes, bar: newTimeBarrier(n)}
}

// Size returns the number of ranks.
func (c *Cluster) Size() int { return c.n }

// Rank is the per-goroutine handle a rank uses to communicate and to account
// simulated time. It is not safe for concurrent use by multiple goroutines.
type Rank struct {
	ID      int
	Cluster *Cluster

	clock float64
	// categories holds the per-category time totals in first-use order. A
	// rank charges a handful of categories, so Advance finds one by a short
	// linear scan instead of hashing its name into a map.
	categories []categoryTotal
}

// categoryTotal is one accounting category's running total.
type categoryTotal struct {
	name  string
	total float64
}

// Now returns the rank's current simulated time in seconds.
func (r *Rank) Now() float64 { return r.clock }

// Advance moves the simulated clock forward by dt seconds, attributing the
// interval to the named category (e.g. "attention", "alltoall").
func (r *Rank) Advance(category string, dt float64) {
	if dt < 0 {
		panic(fmt.Sprintf("cluster: negative time advance %v", dt))
	}
	r.clock += dt
	i := 0
	for i < len(r.categories) && r.categories[i].name != category {
		i++
	}
	if i == len(r.categories) {
		r.categories = append(r.categories, categoryTotal{name: category})
	}
	r.categories[i].total += dt
}

// advanceTo moves the clock to at least t without attributing the waiting
// time to any category (idle waiting).
func (r *Rank) advanceTo(t float64) {
	if t > r.clock {
		r.clock = t
	}
}

// Breakdown returns a copy of the per-category time totals.
func (r *Rank) Breakdown() map[string]float64 {
	out := make(map[string]float64, len(r.categories))
	for _, c := range r.categories {
		out[c.name] = c.total
	}
	return out
}

// Send transfers data to rank dst, charging the sender the modeled transfer
// time for bytes payload bytes under the given accounting category. The data
// value itself is passed by reference; callers must not mutate shared
// payloads after sending.
func (r *Rank) Send(dst int, data any, bytes int, category string) {
	if dst == r.ID {
		panic("cluster: self-send; use local state instead")
	}
	cost := r.Cluster.Topo.TransferTime(r.ID, dst, bytes)
	r.Advance(category, cost)
	r.Cluster.boxes[r.ID][dst] <- message{data: data, arrival: r.clock}
}

// Recv blocks until a message from src arrives and returns its payload,
// advancing the receiver's clock to the message arrival time.
func (r *Rank) Recv(src int) any {
	if src == r.ID {
		panic("cluster: self-recv")
	}
	m := <-r.Cluster.boxes[src][r.ID]
	if m.poison {
		panic("cluster: recv aborted by a peer rank panic")
	}
	r.advanceTo(m.arrival)
	return m.data
}

// LocalCopy charges the rank for moving bytes within its own memory.
func (r *Rank) LocalCopy(bytes int, category string) {
	r.Advance(category, r.Cluster.Topo.TransferTime(r.ID, r.ID, bytes))
}

// Barrier blocks until all ranks reach it; every rank leaves with its clock
// advanced to the maximum clock over all participants (the defining property
// of a synchronizing collective).
func (r *Rank) Barrier() {
	t := r.Cluster.bar.wait(r.clock)
	r.advanceTo(t)
}

// Node returns the node index hosting this rank.
func (r *Rank) Node() int { return r.Cluster.Topo.NodeOf(r.ID) }

// Run launches fn on every rank concurrently and returns the per-rank
// handles (with their final clocks and breakdowns) once all have finished.
// Any rank panic is re-raised on the caller after all goroutines stop.
func (c *Cluster) Run(fn func(r *Rank)) []*Rank {
	ranks := make([]*Rank, c.n)
	panics := make([]any, c.n)
	var wg sync.WaitGroup
	for i := 0; i < c.n; i++ {
		ranks[i] = &Rank{ID: i, Cluster: c}
		wg.Add(1)
		go func(r *Rank, slot *any) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					*slot = p
					// Release peers stuck in the barrier or in Recv so Run
					// can return and re-raise the original panic.
					c.poison()
				}
			}()
			fn(r)
		}(ranks[i], &panics[i])
	}
	wg.Wait()
	// Prefer reporting a root-cause panic over the poison-abort panics it
	// triggered on peer ranks.
	abortIdx := -1
	for i, p := range panics {
		if p == nil {
			continue
		}
		if s, ok := p.(string); ok && strings.Contains(s, "aborted by a peer rank panic") {
			if abortIdx == -1 {
				abortIdx = i
			}
			continue
		}
		panic(fmt.Sprintf("cluster: rank %d panicked: %v", i, p))
	}
	if abortIdx != -1 {
		panic(fmt.Sprintf("cluster: rank %d panicked: %v", abortIdx, panics[abortIdx]))
	}
	return ranks
}

// poison tears the cluster down after a rank panic: it releases barrier
// waiters and floods every mailbox with poison sentinels so blocked Recv
// calls wake up and re-panic. Sends are non-blocking — a full mailbox means
// the receiver has plenty to read before it could block again on this pair.
func (c *Cluster) poison() {
	c.bar.poison()
	for src := range c.boxes {
		for dst := range c.boxes[src] {
			select {
			case c.boxes[src][dst] <- message{poison: true}:
			default:
			}
		}
	}
}

// MaxClock returns the largest simulated clock across ranks — the modeled
// wall-clock time of the whole run.
func MaxClock(ranks []*Rank) float64 {
	m := 0.0
	for _, r := range ranks {
		if r.clock > m {
			m = r.clock
		}
	}
	return m
}

// MergedBreakdown sums each category across ranks and divides by the rank
// count, yielding the average per-rank time spent per category.
func MergedBreakdown(ranks []*Rank) map[string]float64 {
	out := map[string]float64{}
	for _, r := range ranks {
		for _, c := range r.categories {
			out[c.name] += c.total
		}
	}
	for k := range out {
		out[k] /= float64(len(ranks))
	}
	return out
}

// timeBarrier is a reusable barrier that additionally computes the max of
// the participants' clocks per generation.
type timeBarrier struct {
	mu       sync.Mutex
	cond     *sync.Cond
	n        int
	arrived  int
	gen      int
	maxTime  float64
	result   float64
	poisoned bool
}

func newTimeBarrier(n int) *timeBarrier {
	b := &timeBarrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until n participants have called it, then releases everyone
// with the maximum submitted time. It is reusable across generations.
func (b *timeBarrier) wait(t float64) float64 {
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

// poison permanently releases all current and future waiters with a panic,
// used to tear down the barrier when some rank has already panicked.
func (b *timeBarrier) poison() {
	b.mu.Lock()
	b.poisoned = true
	b.cond.Broadcast()
	b.mu.Unlock()
}
