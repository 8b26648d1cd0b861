// Package assign solves the balanced assignment (transportation)
// subproblems the placement layer-sweep produces: distribute E experts into
// P groups of fixed capacity, minimizing a per-(expert, group) cost. It is
// an exact solver built on min-cost max-flow with successive shortest paths.
package assign

import (
	"fmt"
	"math"
)

// edge is one directed arc of the flow network (paired with its reverse).
type edge struct {
	to   int
	cap  int
	cost float64
	rev  int // index of reverse edge in adj[to]
}

// Solver is a reusable workspace for the balanced assignment: the flow
// network's arc lists, the shortest-path labels, the FIFO queue and the
// per-node enqueue counts. A sweep that solves one transportation problem
// per layer keeps one Solver and allocates nothing after the first solve at
// its largest shape. A Solver reused on a smaller instance truncates its arc
// lists and re-initialises every label before each augmentation, so each
// solve is a pure function of its inputs. A Solver must not be used by two
// goroutines at once; the zero value is ready to use.
type Solver struct {
	arcs    []edge   // backing store of every node's arc list
	adj     [][]edge // adj[v] is node v's arc list, carved from arcs
	dist    []float64
	inQueue []bool
	prevV   []int
	prevE   []int
	queue   []int // FIFO ring; the inQueue guard bounds it to one slot per node
	// enqueued counts each node's enqueues in one shortest-path search. FIFO
	// Bellman-Ford enqueues a node at most once per pass and needs at most
	// |V| passes, so a count past |V| means a negative cycle.
	enqueued []int
}

// reset sizes the workspace for the items x groups network and gives every
// node an empty arc list with room for exactly its degree, so building the
// network never reallocates.
func (s *Solver) reset(items, groups int) {
	n := items + groups + 2
	if arcs := 2 * (items + items*groups + groups); cap(s.arcs) < arcs {
		s.arcs = make([]edge, arcs)
	}
	if cap(s.adj) < n {
		s.adj = make([][]edge, n)
		s.dist = make([]float64, n)
		s.inQueue = make([]bool, n)
		s.prevV = make([]int, n)
		s.prevE = make([]int, n)
		s.queue = make([]int, n)
		s.enqueued = make([]int, n)
	}
	s.adj = s.adj[:n]
	off := 0
	for v := range s.adj {
		deg := groups // the sink: one reverse arc per group
		switch {
		case v == 0:
			deg = items // the source: one arc per item
		case v <= items:
			deg = 1 + groups // an item: its source arc's reverse, then its groups
		case v <= items+groups:
			deg = items + 1 // a group: one reverse arc per item, then the sink
		}
		s.adj[v] = s.arcs[off : off : off+deg]
		off += deg
	}
	s.dist = s.dist[:n]
	s.inQueue = s.inQueue[:n]
	s.prevV = s.prevV[:n]
	s.prevE = s.prevE[:n]
	s.queue = s.queue[:n]
	s.enqueued = s.enqueued[:n]
}

func (s *Solver) addEdge(from, to, capacity int, cost float64) {
	s.adj[from] = append(s.adj[from], edge{to: to, cap: capacity, cost: cost, rev: len(s.adj[to])})
	s.adj[to] = append(s.adj[to], edge{to: from, cap: 0, cost: -cost, rev: len(s.adj[from]) - 1})
}

// minCostFlow pushes up to maxFlow units from src to sink using successive
// shortest paths (SPFA, a FIFO Bellman-Ford, which tolerates the negative
// reverse arcs). It returns the flow achieved and its total cost.
//
// A relaxation must improve a label by more than 1e-12, so an augmenting
// path may be up to that much per arc longer than the shortest one. When arc
// costs differ by less than the tolerance, the residual network it leaves
// can hold a negative cycle, around which the search would relax forever; a
// node enqueued more than |V| times in one search panics instead.
func (s *Solver) minCostFlow(src, sink, maxFlow int) (int, float64) {
	n := len(s.adj)
	dist, inQueue, prevV, prevE, queue, enqueued := s.dist, s.inQueue, s.prevV, s.prevE, s.queue, s.enqueued
	totalFlow := 0
	totalCost := 0.0
	for totalFlow < maxFlow {
		for i := range dist {
			dist[i] = math.Inf(1)
			inQueue[i] = false
			prevV[i] = -1
			prevE[i] = 0
			enqueued[i] = 0
		}
		dist[src] = 0
		queue[0] = src
		head, size := 0, 1
		inQueue[src] = true
		enqueued[src] = 1
		for size > 0 {
			v := queue[head]
			head++
			if head == n {
				head = 0
			}
			size--
			inQueue[v] = false
			for ei, e := range s.adj[v] {
				if e.cap > 0 && dist[v]+e.cost < dist[e.to]-1e-12 {
					dist[e.to] = dist[v] + e.cost
					prevV[e.to] = v
					prevE[e.to] = ei
					if !inQueue[e.to] {
						if enqueued[e.to]++; enqueued[e.to] > n {
							panic(fmt.Sprintf("assign: shortest-path search enqueued node %d more than |V| = %d times: "+
								"arc costs closer than the 1e-12 relaxation tolerance left a negative cycle", e.to, n))
						}
						tail := head + size
						if tail >= n {
							tail -= n
						}
						queue[tail] = e.to
						size++
						inQueue[e.to] = true
					}
				}
			}
		}
		if math.IsInf(dist[sink], 1) {
			break // no augmenting path
		}
		// Find bottleneck along the path.
		push := maxFlow - totalFlow
		for v := sink; v != src; v = prevV[v] {
			if c := s.adj[prevV[v]][prevE[v]].cap; c < push {
				push = c
			}
		}
		// Apply.
		for v := sink; v != src; v = prevV[v] {
			e := &s.adj[prevV[v]][prevE[v]]
			e.cap -= push
			s.adj[e.to][e.rev].cap += push
		}
		totalFlow += push
		totalCost += float64(push) * dist[sink]
	}
	return totalFlow, totalCost
}

// Balanced assigns each of len(cost) items to one of len(caps) groups,
// minimizing the total cost[item][group], subject to group g receiving at
// most caps[g] items. It writes the group of item i to dst[i] (dst must hold
// at least len(cost) entries) and returns the optimal total cost. It returns
// an error if the capacities cannot hold all items, leaving dst unspecified.
func (s *Solver) Balanced(dst []int, cost [][]float64, caps []int) (float64, error) {
	return s.solve(dst, cost, caps, false)
}

// MaximizeBalanced is Balanced over a *benefit* matrix: it maximizes total
// benefit[item][group] under the same capacity constraints and returns the
// optimal total benefit.
func (s *Solver) MaximizeBalanced(dst []int, benefit [][]float64, caps []int) (float64, error) {
	total, err := s.solve(dst, benefit, caps, true)
	return -total, err
}

// solve runs Balanced on cost, or on -cost when negate is set. Negating
// while building the arcs gives the same arc costs, bit for bit, as negating
// into a separate matrix first.
func (s *Solver) solve(dst []int, cost [][]float64, caps []int, negate bool) (float64, error) {
	items := len(cost)
	groups := len(caps)
	if items == 0 {
		return 0, nil
	}
	if groups == 0 {
		return 0, fmt.Errorf("assign: no groups")
	}
	totalCap := 0
	for g, c := range caps {
		if c < 0 {
			return 0, fmt.Errorf("assign: negative capacity for group %d", g)
		}
		totalCap += c
	}
	if totalCap < items {
		return 0, fmt.Errorf("assign: capacity %d < items %d", totalCap, items)
	}
	for i, row := range cost {
		if len(row) != groups {
			return 0, fmt.Errorf("assign: cost row %d has %d entries, want %d", i, len(row), groups)
		}
	}
	if len(dst) < items {
		return 0, fmt.Errorf("assign: destination holds %d entries, want %d", len(dst), items)
	}

	// Node layout: 0 = source, 1..items = items, items+1..items+groups =
	// groups, last = sink.
	n := items + groups + 2
	src, sink := 0, n-1
	s.reset(items, groups)
	for i := 0; i < items; i++ {
		s.addEdge(src, 1+i, 1, 0)
		for p := 0; p < groups; p++ {
			c := cost[i][p]
			if negate {
				c = -c
			}
			s.addEdge(1+i, 1+items+p, 1, c)
		}
	}
	for p := 0; p < groups; p++ {
		s.addEdge(1+items+p, sink, caps[p], 0)
	}
	flow, total := s.minCostFlow(src, sink, items)
	if flow < items {
		return 0, fmt.Errorf("assign: only placed %d of %d items", flow, items)
	}
	// Read the assignment off the saturated item->group arcs.
	for i := 0; i < items; i++ {
		dst[i] = -1
		for _, e := range s.adj[1+i] {
			if e.to >= 1+items && e.to < 1+items+groups && e.cap == 0 {
				dst[i] = e.to - 1 - items
				break
			}
		}
		if dst[i] == -1 {
			return 0, fmt.Errorf("assign: item %d unassigned after flow", i)
		}
	}
	return total, nil
}

// Balanced is Solver.Balanced on a fresh workspace, returning a newly
// allocated assignment (nil for no items).
func Balanced(cost [][]float64, caps []int) ([]int, float64, error) {
	return fresh(cost, caps, (*Solver).Balanced)
}

// MaximizeBalanced is Solver.MaximizeBalanced on a fresh workspace,
// returning a newly allocated assignment (nil for no items).
func MaximizeBalanced(benefit [][]float64, caps []int) ([]int, float64, error) {
	return fresh(benefit, caps, (*Solver).MaximizeBalanced)
}

func fresh(m [][]float64, caps []int, solve func(*Solver, []int, [][]float64, []int) (float64, error)) ([]int, float64, error) {
	var out []int
	if len(m) > 0 {
		out = make([]int, len(m))
	}
	total, err := solve(new(Solver), out, m, caps)
	if err != nil {
		return nil, 0, err
	}
	return out, total, nil
}
