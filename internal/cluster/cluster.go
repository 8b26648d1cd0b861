// Package cluster implements the simulated distributed runtime the ExFlow
// engine executes on: every simulated GPU ("rank") is a goroutine, ranks
// exchange real data, and each rank carries a deterministic simulated clock
// advanced by an alpha-beta network cost model (from package topo) and by
// modeled compute costs.
//
// The design follows the LogP tradition: a send charges the sender the full
// transfer time, the message is stamped with the sender's clock at
// completion, and a receive completes at max(receiver clock, message stamp).
// Synchronizing operations (Barrier, and the collectives built in package
// collective) therefore propagate the critical path exactly the way a real
// bulk-synchronous MoE inference step does.
//
// Ranks move data in two ways. Barrier and the flat collectives (package
// collective's Alltoall and Allgather) each run as one lockstep exchange
// (Rank.Exchange): every rank deposits its clock and its tables, the last
// rank to arrive delivers the data and computes every message stamp of the
// schedule, and each rank then replays its own sends and receives on its
// clock. Point-to-point Send and Recv go through per-pair mailboxes, which
// serve only the rooted and hierarchical collectives and are built when the
// first of them runs.
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

// mailboxDepth bounds the per-(src,dst) channel. The point-to-point
// collectives run in lockstep (every rank issues the same sequence, and
// each send to a peer is matched by that peer's receive in the same
// collective), so at most 2 messages are outstanding per pair: one from the
// current collective and one from a sender already in the next. A sender
// further ahead only blocks until the receiver catches up, which it does in
// order, so a full mailbox is back-pressure, never a deadlock. Each slot
// holds a pointer the GC must zero and scan, and a 16-GPU cluster has 256
// mailboxes, so the depth stays small.
const mailboxDepth = 16

// abortedByPeer marks the panics a poisoned cluster raises in ranks that
// were blocked when a peer panicked; Run reports the root cause instead.
const abortedByPeer = "aborted by a peer rank panic"

// Cluster owns the topology, the lockstep exchange and the mailboxes.
type Cluster struct {
	Topo *topo.Topology
	n    int
	ex   exchange
	// links[src*n+dst] is Topo.Link(src, dst), built once so the exchange's
	// schedule prices a step without classifying the hop.
	links []topo.LinkCost

	boxOnce sync.Once
	boxes   [][]chan message // boxes[src][dst]; see mailboxes
}

// New creates a cluster with one rank per GPU in the topology.
func New(t *topo.Topology) *Cluster {
	if err := t.Validate(); err != nil {
		panic(err)
	}
	n := t.TotalGPUs()
	c := &Cluster{Topo: t, n: n, links: make([]topo.LinkCost, n*n)}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			c.links[src*n+dst] = t.Link(src, dst)
		}
	}
	c.ex.init(n)
	return c
}

// mailboxes returns the per-pair channels, building them on first use: a
// run whose collectives are all lockstep exchanges never pays for them.
func (c *Cluster) mailboxes() [][]chan message {
	c.boxOnce.Do(func() {
		c.boxes = make([][]chan message, c.n)
		for s := range c.boxes {
			c.boxes[s] = make([]chan message, c.n)
			for d := range c.boxes[s] {
				c.boxes[s][d] = make(chan message, mailboxDepth)
			}
		}
	})
	return c.boxes
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
	// scratch holds the rank's collective state, one value per type (see
	// Scratch).
	scratch []any
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
	r.charge(r.slot(category), dt)
}

// slot returns the index of a category's total, adding the category on
// first use.
func (r *Rank) slot(category string) int {
	for i := range r.categories {
		if r.categories[i].name == category {
			return i
		}
	}
	r.categories = append(r.categories, categoryTotal{name: category})
	return len(r.categories) - 1
}

// charge is Advance with the category's slot already found.
func (r *Rank) charge(slot int, dt float64) {
	if dt < 0 {
		panic(fmt.Sprintf("cluster: negative time advance %v", dt))
	}
	r.clock += dt
	r.categories[slot].total += dt
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

// Scratch returns the rank's reusable value of type S, zero on first use. A
// collective built on Exchange keeps its per-rank tables there, one value
// per type, so repeating the collective allocates nothing. The value is the
// rank's own: only the round's last arriver touches it from another
// goroutine, inside Exchange, while the rank waits there.
func Scratch[S any](r *Rank) *S {
	for _, v := range r.scratch {
		if s, ok := v.(*S); ok {
			return s
		}
	}
	s := new(S)
	r.scratch = append(r.scratch, s)
	return s
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
	r.Cluster.mailboxes()[r.ID][dst] <- message{data: data, arrival: r.clock}
}

// Recv blocks until a message from src arrives and returns its payload,
// advancing the receiver's clock to the message arrival time.
func (r *Rank) Recv(src int) any {
	if src == r.ID {
		panic("cluster: self-recv")
	}
	m := <-r.Cluster.mailboxes()[src][r.ID]
	if m.poison {
		panic("cluster: recv " + abortedByPeer)
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
	b := r.Cluster.ex.round(r.ID, r.clock, nil, func(b *board) {
		b.max = 0
		for i, t := range b.clock {
			if b.payload[i] != nil {
				panic("cluster: ranks disagree on the collective: a Barrier met an Exchange")
			}
			if t > b.max {
				b.max = t
			}
		}
	})
	r.advanceTo(b.max)
}

// Pattern is the peer order of a lockstep collective's P-1 steps.
type Pattern int

const (
	// Pairwise sends to rank r+s and receives from rank r-s (mod P) at step
	// s: the Alltoall schedule.
	Pairwise Pattern = iota
	// Ring sends to rank r+1 and receives from rank r-1 (mod P) at every
	// step: the Allgather schedule.
	Ring
)

// peers returns whom rank r of p sends to and receives from at step s.
func (pt Pattern) peers(r, s, p int) (dst, src int) {
	if pt == Ring {
		s = 1
	}
	return (r + s) % p, (r - s + p) % p
}

// Exchange runs one collective as a single lockstep round and charges this
// rank its part of the pattern's P-1-step schedule, exactly as if each step
// were a Send to the step's destination followed by a Recv from its source.
// Every rank calls it with the same pattern and a non-nil payload of the
// same type.
//
// The last rank to arrive calls its deliver once, holding the round's lock,
// with every rank's payload in rank order. deliver moves the data between
// the payloads and sets bytes[r][s], the wire size rank r sends at step s,
// for every rank r and step 1 <= s < P. It copies everything a receiver
// needs while every rank is still inside Exchange, so a rank may refill its
// tables as soon as Exchange returns. Since it runs under the lock, deliver
// must not block or call back into the cluster.
func (r *Rank) Exchange(pattern Pattern, category string, payload any, deliver func(payloads []any, bytes [][]int)) {
	if payload == nil {
		panic("cluster: Exchange needs a payload")
	}
	c := r.Cluster
	b := c.ex.round(r.ID, r.clock, payload, func(b *board) {
		for _, x := range b.payload {
			if x == nil {
				panic("cluster: ranks disagree on the collective: an Exchange met a Barrier")
			}
		}
		deliver(b.payload, b.bytes)
		c.ex.schedule(c.links, pattern, b)
	})
	if c.n == 1 {
		return // a one-rank exchange has no steps: it charges no category
	}
	cost, arrive := b.cost[r.ID], b.arrive[r.ID]
	slot := r.slot(category)
	for s := 1; s < c.n; s++ {
		r.charge(slot, cost[s])
		r.advanceTo(arrive[s])
	}
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
					// Release peers stuck in an exchange or in Recv so Run
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
		if s, ok := p.(string); ok && strings.Contains(s, abortedByPeer) {
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

// poison tears the cluster down after a rank panic: it releases exchange
// waiters and floods every mailbox with poison sentinels so blocked Recv
// calls wake up and re-panic. Sends are non-blocking — a full mailbox means
// the receiver has plenty to read before it could block again on this pair.
func (c *Cluster) poison() {
	c.ex.poison()
	boxes := c.mailboxes()
	for src := range boxes {
		for dst := range boxes[src] {
			select {
			case boxes[src][dst] <- message{poison: true}:
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

// exchange is the lockstep rendezvous behind Barrier and Exchange. Each
// round is one generation, and its deposits and results live on the board
// of the generation's parity. A rank reads its results after the round
// releases it, outside the lock, and no rank can deposit into that board
// again before every rank has joined the next round, the one that uses the
// other board; so a rank can never be two rounds ahead of the slowest
// reader.
type exchange struct {
	mu       sync.Mutex
	cond     sync.Cond
	n        int
	arrived  int
	gen      uint64
	poisoned bool
	boards   [2]board
	// sent and cur are the last arriver's scratch for schedule.
	sent, cur []float64
}

// board holds one round's deposits and results.
type board struct {
	clock   []float64   // clock[r]: rank r's clock when it arrived
	payload []any       // payload[r]: rank r's deposit, nil for a Barrier
	bytes   [][]int     // bytes[r][s]: the wire size rank r sends at step s
	cost    [][]float64 // cost[r][s]: rank r's transfer time at step s
	arrive  [][]float64 // arrive[r][s]: the stamp of what rank r receives at step s
	max     float64     // a Barrier's result: the largest arrival clock
}

func (ex *exchange) init(n int) {
	ex.n = n
	ex.cond.L = &ex.mu
	for i := range ex.boards {
		ex.boards[i] = board{
			clock:   make([]float64, n),
			payload: make([]any, n),
			bytes:   square[int](n),
			cost:    square[float64](n),
			arrive:  square[float64](n),
		}
	}
	ex.sent = make([]float64, n)
	ex.cur = make([]float64, n)
}

// square returns an n x n matrix whose rows share one backing array.
func square[T any](n int) [][]T {
	cells := make([]T, n*n)
	rows := make([][]T, n)
	for i := range rows {
		rows[i] = cells[i*n : (i+1)*n : (i+1)*n]
	}
	return rows
}

// round deposits one rank's clock and payload and blocks until every rank
// has deposited; the last to arrive runs complete on the round's board
// while holding the lock, then releases the others. It returns the board,
// which the rank may read until it joins the next round.
func (ex *exchange) round(id int, clock float64, payload any, complete func(*board)) *board {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if ex.poisoned {
		panic("cluster: collective " + abortedByPeer)
	}
	gen := ex.gen
	b := &ex.boards[gen&1]
	b.clock[id] = clock
	b.payload[id] = payload
	if ex.arrived++; ex.arrived < ex.n {
		for gen == ex.gen && !ex.poisoned {
			ex.cond.Wait()
		}
		if gen == ex.gen {
			panic("cluster: collective " + abortedByPeer)
		}
		return b
	}
	complete(b)
	ex.arrived = 0
	ex.gen++
	ex.cond.Broadcast()
	return b
}

// schedule runs every rank's schedule from the deposited clocks, one step
// at a time: each rank's send advances its clock by the transfer time and
// stamps its message with the result, and each rank then advances to the
// stamp of the message it receives. These are the same additions and
// comparisons each rank's Advance and advanceTo make when it replays its
// row, so the stamps are bit for bit the ones per-pair messages carried.
func (ex *exchange) schedule(links []topo.LinkCost, pattern Pattern, b *board) {
	p := ex.n
	copy(ex.cur, b.clock)
	for s := 1; s < p; s++ {
		for r := 0; r < p; r++ {
			dst, _ := pattern.peers(r, s, p)
			b.cost[r][s] = links[r*p+dst].Time(b.bytes[r][s])
			ex.sent[r] = ex.cur[r] + b.cost[r][s]
		}
		for r := 0; r < p; r++ {
			_, src := pattern.peers(r, s, p)
			b.arrive[r][s] = ex.sent[src]
			ex.cur[r] = ex.sent[r]
			if ex.sent[src] > ex.cur[r] {
				ex.cur[r] = ex.sent[src]
			}
		}
	}
}

// poison permanently releases all current and future waiters with a panic,
// used to tear down the exchange when some rank has already panicked.
func (ex *exchange) poison() {
	ex.mu.Lock()
	ex.poisoned = true
	ex.cond.Broadcast()
	ex.mu.Unlock()
}
