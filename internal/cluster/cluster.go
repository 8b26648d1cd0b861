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
// Ranks move data one way: Barrier and every collective in package
// collective run as one lockstep exchange round (Rank.Exchange). Every rank
// deposits its clock and its tables, the last rank to arrive delivers the
// data and computes every message stamp of the collective's step plan, and
// each rank then replays its own sends and receives on its clock.
package cluster

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/topo"
)

// abortedByPeer marks the panics a poisoned cluster raises in ranks that
// were blocked when a peer panicked; Run reports the root cause instead.
const abortedByPeer = "aborted by a peer rank panic"

// Cluster owns the topology and the lockstep exchange.
type Cluster struct {
	Topo *topo.Topology
	n    int
	ex   exchange
	// links[src*n+dst] is Topo.Link(src, dst), built once so the exchange's
	// schedule prices a step without classifying the hop.
	links []topo.LinkCost
	// plans[pt] is pattern pt's step plan, built once so the schedule reads
	// each step's peers instead of computing them.
	plans [numPatterns]plan
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
	c.plans = buildPlans(t)
	steps := 0
	for _, pl := range c.plans {
		steps = max(steps, pl.steps)
	}
	c.ex.init(n, steps)
	return c
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

// Pattern names a lockstep collective's step plan: at each step every rank
// sends to at most one peer and receives from at most one.
type Pattern int

const (
	// Pairwise runs P-1 steps; at step s rank r sends to rank r+s and
	// receives from rank r-s (mod P). The Alltoall schedule.
	Pairwise Pattern = iota
	// Ring runs P-1 steps; at every step rank r sends to rank r+1 and
	// receives from rank r-1 (mod P). The Allgather schedule.
	Ring
	// NodeLeader is the hierarchical Alltoall schedule for N nodes of G GPUs,
	// each node led by its local rank 0. Its 3G+N-4 steps run in four
	// phases:
	//   - steps 1 to G-1, node-local pairwise: at step s local rank k sends
	//     to local rank k+s and receives from local rank k-s (mod G);
	//   - steps G to 2G-2, gather: local rank k > 0 sends to its leader at
	//     step G-1+k;
	//   - steps 2G-1 to 2G+N-3, leader pairwise: at step 2G-2+j node n's
	//     leader sends to node n+j's and receives from node n-j's (mod N);
	//   - steps 2G+N-2 to 3G+N-4, scatter: the leader sends to local rank
	//     k > 0 at step 2G+N-3+k.
	NodeLeader
	numPatterns
)

// plan is a pattern's schedule on one cluster: at step s, for 1 <= s <=
// steps, rank r sends to dst[s*n+r] and receives from src[s*n+r], where -1
// means none.
type plan struct {
	steps    int
	dst, src []int
}

// buildPlans lays out every pattern's plan for the topology.
func buildPlans(t *topo.Topology) [numPatterns]plan {
	n, g, nodes := t.TotalGPUs(), t.GPUsPerNode, t.Nodes
	var pls [numPatterns]plan
	pw, ring, nl := &pls[Pairwise], &pls[Ring], &pls[NodeLeader]
	pw.init(n, n-1)
	ring.init(n, n-1)
	for s := 1; s < n; s++ {
		for r := 0; r < n; r++ {
			pw.link(s, r, (r+s)%n)
			ring.link(s, r, (r+1)%n)
		}
	}
	// Each phase's steps follow the previous phase's last.
	gather, leaders, scatter := g-1, 2*g-2, 2*g+nodes-3
	nl.init(n, scatter+g-1)
	for node := 0; node < nodes; node++ {
		leader := t.Rank(node, 0)
		for k := 0; k < g; k++ {
			r := t.Rank(node, k)
			for s := 1; s < g; s++ {
				nl.link(s, r, t.Rank(node, (k+s)%g))
			}
			if k > 0 {
				nl.link(gather+k, r, leader)
				nl.link(scatter+k, leader, r)
			}
		}
		for j := 1; j < nodes; j++ {
			nl.link(leaders+j, leader, t.Rank((node+j)%nodes, 0))
		}
	}
	return pls
}

// init sizes the plan for n ranks and the given steps, every rank idle.
func (pl *plan) init(n, steps int) {
	pl.steps = steps
	pl.dst = make([]int, (steps+1)*n)
	pl.src = make([]int, (steps+1)*n)
	for i := range pl.dst {
		pl.dst[i], pl.src[i] = -1, -1
	}
}

// link makes rank from send to rank to at step s.
func (pl *plan) link(s, from, to int) {
	n := len(pl.dst) / (pl.steps + 1)
	pl.dst[s*n+from] = to
	pl.src[s*n+to] = from
}

// Exchange runs one collective as a single lockstep round and charges this
// rank its part of the pattern's step plan, exactly as if each step were a
// point-to-point send to the step's destination followed by a receive from
// its source; a step at which the rank sends nothing charges 0, and one at
// which it receives nothing waits for nothing. Every rank calls it with the same pattern and
// a non-nil payload of the same type.
//
// The last rank to arrive calls its deliver once, holding the round's lock,
// with every rank's payload in rank order. deliver moves the data between
// the payloads and sets bytes[r][s], the wire size rank r sends at step s,
// for every step s at which the plan has rank r send. It copies everything
// a receiver needs while every rank is still inside Exchange, so a rank may
// refill its tables as soon as Exchange returns. Since it runs under the
// lock, deliver must not block or call back into the cluster.
func (r *Rank) Exchange(pattern Pattern, category string, payload any, deliver func(payloads []any, bytes [][]int)) {
	if payload == nil {
		panic("cluster: Exchange needs a payload")
	}
	c := r.Cluster
	pl := &c.plans[pattern]
	b := c.ex.round(r.ID, r.clock, payload, func(b *board) {
		for _, x := range b.payload {
			if x == nil {
				panic("cluster: ranks disagree on the collective: an Exchange met a Barrier")
			}
		}
		deliver(b.payload, b.bytes)
		c.ex.schedule(c.links, pl, b)
	})
	if pl.steps == 0 {
		return // a one-rank exchange has no steps: it charges no category
	}
	cost, arrive := b.cost[r.ID], b.arrive[r.ID]
	slot := r.slot(category)
	for s := 1; s <= pl.steps; s++ {
		r.charge(slot, cost[s])
		r.advanceTo(arrive[s])
	}
}

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
					// Release peers stuck in an exchange round so Run can
					// return and re-raise the original panic.
					c.ex.poison()
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

// board holds one round's deposits and results. Its step columns run from 1
// to the longest plan's step count; column 0 is unused.
type board struct {
	clock   []float64   // clock[r]: rank r's clock when it arrived
	payload []any       // payload[r]: rank r's deposit, nil for a Barrier
	bytes   [][]int     // bytes[r][s]: the wire size rank r sends at step s
	cost    [][]float64 // cost[r][s]: rank r's transfer time at step s
	arrive  [][]float64 // arrive[r][s]: the stamp of what rank r receives at step s
	max     float64     // a Barrier's result: the largest arrival clock
}

// init sizes the exchange for n ranks and plans of at most steps steps.
func (ex *exchange) init(n, steps int) {
	ex.n = n
	ex.cond.L = &ex.mu
	for i := range ex.boards {
		ex.boards[i] = board{
			clock:   make([]float64, n),
			payload: make([]any, n),
			bytes:   grid[int](n, steps+1),
			cost:    grid[float64](n, steps+1),
			arrive:  grid[float64](n, steps+1),
		}
	}
	ex.sent = make([]float64, n)
	ex.cur = make([]float64, n)
}

// grid returns an n x cols matrix whose rows share one backing array.
func grid[T any](n, cols int) [][]T {
	cells := make([]T, n*cols)
	rows := make([][]T, n)
	for i := range rows {
		rows[i] = cells[i*cols : (i+1)*cols : (i+1)*cols]
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

// schedule runs every rank's plan from the deposited clocks, one step at a
// time: each rank's send advances its clock by the transfer time (0 when
// it sends nothing) and stamps its message with the result, and each rank
// then advances to the stamp of the message it receives. A rank that
// receives nothing gets stamp 0, which no clock is below. These are the
// same additions and comparisons each rank's Advance and advanceTo make
// when it replays its row, so the stamps are bit for bit the ones per-pair
// messages carried.
func (ex *exchange) schedule(links []topo.LinkCost, pl *plan, b *board) {
	n := ex.n
	copy(ex.cur, b.clock)
	for s := 1; s <= pl.steps; s++ {
		dst, src := pl.dst[s*n:(s+1)*n], pl.src[s*n:(s+1)*n]
		for r, to := range dst {
			cost := 0.0
			if to >= 0 {
				cost = links[r*n+to].Time(b.bytes[r][s])
			}
			b.cost[r][s] = cost
			ex.sent[r] = ex.cur[r] + cost
		}
		for r, from := range src {
			ex.cur[r] = ex.sent[r]
			if from < 0 {
				b.arrive[r][s] = 0
				continue
			}
			b.arrive[r][s] = ex.sent[from]
			if ex.sent[from] > ex.cur[r] {
				ex.cur[r] = ex.sent[from]
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
