package placement

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/topo"
)

// This file supports online re-placement, a natural extension of the
// paper's offline pipeline ("paving the way for future research"): when the
// serving workload drifts, the affinity counts change and a better
// placement may exist — but moving an expert means copying its parameters
// across the cluster, which stalls serving. Diff and MigrationPlan quantify
// that trade so a server can decide whether a re-solve pays for itself.

// Move describes relocating one expert's parameters.
type Move struct {
	Layer, Expert int
	From, To      int
	Tier          topo.HopClass
}

// Diff lists the expert moves required to turn placement a into b. The two
// placements must share shape.
func Diff(a, b *Placement) []Move {
	if a.Layers != b.Layers || a.Experts != b.Experts || a.GPUs != b.GPUs {
		panic("placement: Diff shape mismatch")
	}
	var moves []Move
	for j := 0; j < a.Layers; j++ {
		for e := 0; e < a.Experts; e++ {
			if a.Assign[j][e] != b.Assign[j][e] {
				moves = append(moves, Move{Layer: j, Expert: e, From: a.Assign[j][e], To: b.Assign[j][e]})
			}
		}
	}
	return moves
}

// Canonicalize relabels placement b's GPUs (with one global permutation,
// which never changes b's crossings) to minimize the number of moves from
// a. Without this, a re-solve that found an equivalent-up-to-relabeling
// placement would look like a full-cluster migration.
//
// The permutation is chosen greedily: GPU labels are matched in decreasing
// order of how many (layer, expert) slots they share between a and b.
// Greedy matching is within a factor of optimal for this assignment and is
// exact in the common near-identical case.
//
// On a multi-node topology use CanonicalizeTopo instead: an unconstrained
// global permutation preserves GPU-level crossings but can move GPU labels
// between nodes, scrambling which experts share a node and thereby
// destroying the staged solver's inter-node optimization.
func Canonicalize(a, b *Placement) *Placement {
	if a.Layers != b.Layers || a.Experts != b.Experts || a.GPUs != b.GPUs {
		panic("placement: Canonicalize shape mismatch")
	}
	// overlap[p][q]: slots where a uses p and b uses q.
	overlap := make([][]int, a.GPUs)
	for p := range overlap {
		overlap[p] = make([]int, a.GPUs)
	}
	for j := 0; j < a.Layers; j++ {
		for e := 0; e < a.Experts; e++ {
			overlap[a.Assign[j][e]][b.Assign[j][e]]++
		}
	}
	permTo := greedyMatch(overlap)
	out := b.Clone()
	for j := 0; j < b.Layers; j++ {
		for e := 0; e < b.Experts; e++ {
			out.Assign[j][e] = permTo[b.Assign[j][e]]
		}
	}
	return fewerMoves(a, out, b)
}

// fewerMoves returns whichever candidate relabeling of b needs fewer moves
// from a. Greedy matching is near-optimal but not optimal; without this
// guard a canonicalization could occasionally cost more moves than using b
// unrelabeled.
func fewerMoves(a, canon, b *Placement) *Placement {
	if len(Diff(a, canon)) <= len(Diff(a, b)) {
		return canon
	}
	return b.Clone()
}

// greedyMatch matches columns (b-labels) to rows (a-labels) in decreasing
// overlap order, returning permTo[q] = p.
func greedyMatch(overlap [][]int) []int {
	n := len(overlap)
	type pair struct{ p, q, n int }
	var pairs []pair
	for p := 0; p < n; p++ {
		for q := 0; q < n; q++ {
			pairs = append(pairs, pair{p, q, overlap[p][q]})
		}
	}
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].n > pairs[j].n })
	permTo := make([]int, n)
	usedP := make([]bool, n)
	usedQ := make([]bool, n)
	for i := range permTo {
		permTo[i] = -1
	}
	for _, pr := range pairs {
		if usedP[pr.p] || usedQ[pr.q] {
			continue
		}
		permTo[pr.q] = pr.p
		usedP[pr.p] = true
		usedQ[pr.q] = true
	}
	return permTo
}

// CanonicalizeTopo relabels b's GPUs to minimize moves from a while
// preserving b's node structure: the permutation factors into a node
// permutation composed with per-node GPU permutations, which (on a
// homogeneous topology) leaves both b's GPU-level and node-level crossings
// unchanged. This is the correct canonicalization for placements produced by
// the staged solver.
func CanonicalizeTopo(a, b *Placement, gpusPerNode int) *Placement {
	if a.Layers != b.Layers || a.Experts != b.Experts || a.GPUs != b.GPUs {
		panic("placement: CanonicalizeTopo shape mismatch")
	}
	if gpusPerNode <= 0 || a.GPUs%gpusPerNode != 0 {
		panic(fmt.Sprintf("placement: %d gpus not divisible into nodes of %d", a.GPUs, gpusPerNode))
	}
	nodes := a.GPUs / gpusPerNode
	if nodes == 1 {
		return Canonicalize(a, b)
	}
	// Stage 1: match b's nodes to a's nodes by slot overlap.
	overlapN := make([][]int, nodes)
	for p := range overlapN {
		overlapN[p] = make([]int, nodes)
	}
	for j := 0; j < a.Layers; j++ {
		for e := 0; e < a.Experts; e++ {
			overlapN[a.Assign[j][e]/gpusPerNode][b.Assign[j][e]/gpusPerNode]++
		}
	}
	nodePerm := greedyMatch(overlapN) // b-node -> a-node
	// Stage 2: inside each matched node pair, match GPU labels.
	permTo := make([]int, a.GPUs) // b-gpu -> new label
	for qb := 0; qb < nodes; qb++ {
		pa := nodePerm[qb]
		overlapG := make([][]int, gpusPerNode)
		for p := range overlapG {
			overlapG[p] = make([]int, gpusPerNode)
		}
		for j := 0; j < a.Layers; j++ {
			for e := 0; e < a.Experts; e++ {
				ag, bg := a.Assign[j][e], b.Assign[j][e]
				if ag/gpusPerNode == pa && bg/gpusPerNode == qb {
					overlapG[ag%gpusPerNode][bg%gpusPerNode]++
				}
			}
		}
		local := greedyMatch(overlapG)
		for ql := 0; ql < gpusPerNode; ql++ {
			permTo[qb*gpusPerNode+ql] = pa*gpusPerNode + local[ql]
		}
	}
	out := b.Clone()
	for j := 0; j < b.Layers; j++ {
		for e := 0; e < b.Experts; e++ {
			out.Assign[j][e] = permTo[b.Assign[j][e]]
		}
	}
	return fewerMoves(a, out, b)
}

// MigrationPlan prices a set of moves on a topology.
type MigrationPlan struct {
	Moves []Move
	// Bytes is the total parameter traffic (expertBytes per move).
	Bytes int
	// Seconds is the copy phase's makespan when every GPU migrates at once:
	// each GPU sends one expert at a time on its own port and receives one
	// at a time, so the exchange finishes when the busiest port does — the
	// max over GPUs of max(Σ send times, Σ receive times). This is the
	// optimal makespan of the chunked (preemptive open-shop) schedule, and
	// any greedy schedule that never idles a free sender/receiver pair
	// finishes within twice it.
	Seconds float64
	// CrossNodeMoves counts moves over the inter-node fabric.
	CrossNodeMoves int
}

// PriceMigration computes the cost of migrating from a to b (after
// topology-aware canonicalization) with the given per-expert parameter size.
// Callers that intend to *install* the canonicalized placement should
// canonicalize themselves and use PriceMoves, so the plan prices exactly the
// placement being adopted.
func PriceMigration(a, b *Placement, tp *topo.Topology, expertBytes int) *MigrationPlan {
	if tp.TotalGPUs() != a.GPUs {
		panic(fmt.Sprintf("placement: topology %d gpus, placement %d", tp.TotalGPUs(), a.GPUs))
	}
	canon := CanonicalizeTopo(a, b, tp.GPUsPerNode)
	return PriceMoves(Diff(a, canon), tp, expertBytes)
}

// PriceMoves prices an explicit move set on a topology as one concurrent
// exchange (see MigrationPlan.Seconds).
func PriceMoves(moves []Move, tp *topo.Topology, expertBytes int) *MigrationPlan {
	plan := &MigrationPlan{Moves: moves}
	send := make([]float64, tp.TotalGPUs())
	recv := make([]float64, tp.TotalGPUs())
	for i := range plan.Moves {
		m := &plan.Moves[i]
		m.Tier = tp.Classify(m.From, m.To)
		plan.Bytes += expertBytes
		t := tp.TransferTime(m.From, m.To, expertBytes)
		send[m.From] += t
		recv[m.To] += t
		if m.Tier == topo.CrossNode {
			plan.CrossNodeMoves++
		}
	}
	plan.Seconds = max(slices.Max(send), slices.Max(recv))
	return plan
}
