package placement

import (
	"math"
	"slices"
	"testing"

	"repro/internal/moe"
	"repro/internal/rng"
	"repro/internal/topo"
)

func TestDiffEmptyForIdentical(t *testing.T) {
	a := Contiguous(3, 8, 4)
	if moves := Diff(a, a.Clone()); len(moves) != 0 {
		t.Fatalf("identical placements should need no moves, got %d", len(moves))
	}
}

func TestDiffCountsChangedSlots(t *testing.T) {
	a := Contiguous(3, 8, 4)
	b := a.Clone()
	b.Assign[1][0], b.Assign[1][2] = b.Assign[1][2], b.Assign[1][0] // swap two experts
	moves := Diff(a, b)
	if len(moves) != 2 {
		t.Fatalf("swap should be 2 moves, got %d", len(moves))
	}
	for _, m := range moves {
		if m.Layer != 1 {
			t.Fatalf("unexpected move %+v", m)
		}
	}
}

func TestDiffShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Diff(Contiguous(3, 8, 4), Contiguous(3, 8, 2))
}

func TestCanonicalizeRemovesPureRelabeling(t *testing.T) {
	a := Random(4, 16, 4, 1)
	// b = a with GPUs globally relabeled (0<->3, 1<->2).
	perm := []int{3, 2, 1, 0}
	b := a.Clone()
	for j := range b.Assign {
		for e := range b.Assign[j] {
			b.Assign[j][e] = perm[a.Assign[j][e]]
		}
	}
	canon := Canonicalize(a, b)
	if moves := Diff(a, canon); len(moves) != 0 {
		t.Fatalf("pure relabeling should canonicalize to zero moves, got %d", len(moves))
	}
}

func TestCanonicalizePreservesCrossings(t *testing.T) {
	tr := makeTrace(31, 5, 16, 1000, 0.8)
	counts := tr.AllTransitionCounts()
	a := Contiguous(5, 16, 4)
	b := Random(5, 16, 4, 9)
	canon := Canonicalize(a, b)
	if err := canon.Validate(); err != nil {
		t.Fatal(err)
	}
	if canon.Crossings(counts) != b.Crossings(counts) {
		t.Fatalf("global relabeling must not change crossings: %v vs %v",
			canon.Crossings(counts), b.Crossings(counts))
	}
	if len(Diff(a, canon)) > len(Diff(a, b)) {
		t.Fatal("canonicalization increased the move count")
	}
}

func TestCanonicalizeTopoPreservesNodeStructure(t *testing.T) {
	// An unconstrained global permutation can relabel GPUs across node
	// boundaries, silently destroying the staged solver's inter-node
	// optimization; the topology-aware canonicalization must not.
	tp := topo.Wilkes3(4)
	tr := makeTrace(17, 6, 32, 3000, 0.85)
	counts := tr.AllTransitionCounts()
	a := Staged(counts, 6, 32, tp, 1)
	b := Staged(counts, 6, 32, tp, 99) // independent solve, same problem
	canon := CanonicalizeTopo(a, b, tp.GPUsPerNode)
	if err := canon.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := canon.Crossings(counts), b.Crossings(counts); got != want {
		t.Fatalf("GPU crossings changed: %v vs %v", got, want)
	}
	if got, want := canon.NodeCrossings(counts, tp.GPUsPerNode), b.NodeCrossings(counts, tp.GPUsPerNode); got != want {
		t.Fatalf("node crossings changed: %v vs %v", got, want)
	}
	if len(Diff(a, canon)) > len(Diff(a, b)) {
		t.Fatal("canonicalization increased the move count")
	}
}

func TestCanonicalizeTopoRemovesHierarchicalRelabeling(t *testing.T) {
	// b = a with nodes swapped and GPUs reversed inside each node: a pure
	// hierarchical relabeling must cost zero moves.
	a := Random(4, 16, 8, 3)
	perm := []int{7, 6, 5, 4, 3, 2, 1, 0}
	b := a.Clone()
	for j := range b.Assign {
		for e := range b.Assign[j] {
			b.Assign[j][e] = perm[a.Assign[j][e]]
		}
	}
	canon := CanonicalizeTopo(a, b, 4)
	if moves := Diff(a, canon); len(moves) != 0 {
		t.Fatalf("hierarchical relabeling should canonicalize to zero moves, got %d", len(moves))
	}
}

func TestPriceMigration(t *testing.T) {
	tp := topo.Wilkes3(2)
	a := Contiguous(4, 16, 8)
	b := a.Clone()
	b.Assign[0][0], b.Assign[0][2] = b.Assign[0][2], b.Assign[0][0] // intra-node-ish swap
	b.Assign[2][0], b.Assign[2][8] = b.Assign[2][8], b.Assign[2][0] // cross-node swap
	expertBytes := int(moe.GPTM(16).ExpertParams()) * 2             // fp16
	plan := PriceMigration(a, b, tp, expertBytes)
	if len(plan.Moves) != 4 {
		t.Fatalf("expected 4 moves, got %d", len(plan.Moves))
	}
	if plan.Bytes != 4*expertBytes {
		t.Fatalf("bytes %d", plan.Bytes)
	}
	if plan.Seconds <= 0 {
		t.Fatal("migration must take time")
	}
	if plan.CrossNodeMoves != 2 {
		t.Fatalf("cross-node moves %d, want 2", plan.CrossNodeMoves)
	}
}

func TestPriceMigrationZeroForRelabeling(t *testing.T) {
	tp := topo.Wilkes3(2)
	a := Random(3, 16, 8, 5)
	perm := []int{7, 6, 5, 4, 3, 2, 1, 0}
	b := a.Clone()
	for j := range b.Assign {
		for e := range b.Assign[j] {
			b.Assign[j][e] = perm[a.Assign[j][e]]
		}
	}
	plan := PriceMigration(a, b, tp, 1000)
	if len(plan.Moves) != 0 || plan.Seconds != 0 {
		t.Fatalf("relabeling-only migration should be free, got %d moves", len(plan.Moves))
	}
}

func TestMigrationRealisticDriftScenario(t *testing.T) {
	// Drift: placement solved on one workload, re-solved on a shifted one.
	// The migration should touch only part of the cluster, not everything.
	tp := topo.Wilkes3(2)
	trA := makeTrace(41, 5, 16, 2000, 0.85)
	trB := makeTrace(41, 5, 16, 2000, 0.85) // same kernel -> similar counts
	pa := Staged(trA.AllTransitionCounts(), 5, 16, tp, 1)
	pb := Staged(trB.Sample(1500, 3).AllTransitionCounts(), 5, 16, tp, 2)
	plan := PriceMigration(pa, pb, tp, 1<<20)
	total := 5 * 16
	if len(plan.Moves) == total {
		t.Fatal("similar workloads should not require moving every expert")
	}
}

// randomMoves draws a plan of 1-200 moves between distinct GPUs of a
// gpus-GPU cluster.
func randomMoves(r *rng.RNG, gpus int) []Move {
	moves := make([]Move, 1+r.Intn(200))
	for i := range moves {
		from, to := r.Intn(gpus), r.Intn(gpus-1)
		if to >= from {
			to++
		}
		moves[i] = Move{Layer: r.Intn(16), Expert: r.Intn(64), From: from, To: to}
	}
	return moves
}

// busiestPort is the reference for MigrationPlan.Seconds: the largest
// per-GPU send or receive load, each summed in plan order.
func busiestPort(moves []Move, tp *topo.Topology, expertBytes int) float64 {
	type port struct{ gpu, dir int }
	load := map[port]float64{}
	for _, m := range moves {
		t := tp.TransferTime(m.From, m.To, expertBytes)
		load[port{m.From, 0}] += t
		load[port{m.To, 1}] += t
	}
	busiest := 0.0
	for _, l := range load {
		busiest = math.Max(busiest, l)
	}
	return busiest
}

func serialSeconds(moves []Move, tp *topo.Topology, expertBytes int) float64 {
	sum := 0.0
	for _, m := range moves {
		sum += tp.TransferTime(m.From, m.To, expertBytes)
	}
	return sum
}

// greedyMakespan simulates a list schedule of the plan: at every port
// release, each pending move whose sender port and receiver port are both
// idle starts, in plan order, and holds both ports for its transfer time. It
// returns when the last move finishes.
func greedyMakespan(moves []Move, tp *topo.Topology, expertBytes int) float64 {
	gpus := tp.TotalGPUs()
	sendFree := make([]float64, gpus) // when each port is next idle
	recvFree := make([]float64, gpus)
	pending := slices.Clone(moves)
	now, end := 0.0, 0.0
	for len(pending) > 0 {
		waiting := pending[:0]
		for _, m := range pending {
			if sendFree[m.From] > now || recvFree[m.To] > now {
				waiting = append(waiting, m)
				continue
			}
			done := now + tp.TransferTime(m.From, m.To, expertBytes)
			sendFree[m.From], recvFree[m.To] = done, done
			end = max(end, done)
		}
		pending = waiting
		next := math.Inf(1)
		for _, free := range slices.Concat(sendFree, recvFree) {
			if free > now {
				next = min(next, free)
			}
		}
		now = next
	}
	return end
}

func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// TestPriceMovesIsBusiestPort prices random plans on a four-node cluster:
// the plan costs its busiest port's load, never more than the serial sum,
// independent of plan order, and a greedy schedule that never idles a free
// sender/receiver pair achieves it within a factor of two.
func TestPriceMovesIsBusiestPort(t *testing.T) {
	tp := topo.Wilkes3(4)
	r := rng.New(0x9017)
	for trial := 0; trial < 600; trial++ {
		moves := randomMoves(r, tp.TotalGPUs())
		expertBytes := 1 + r.Intn(64<<20)
		plan := PriceMoves(slices.Clone(moves), tp, expertBytes)
		if want := busiestPort(moves, tp, expertBytes); plan.Seconds != want {
			t.Fatalf("trial %d: %d moves cost %v, busiest port %v", trial, len(moves), plan.Seconds, want)
		}
		if serial := serialSeconds(moves, tp, expertBytes); plan.Seconds > serial {
			t.Fatalf("trial %d: %v exceeds the serial sum %v", trial, plan.Seconds, serial)
		}
		shuffled := make([]Move, len(moves))
		for i, j := range r.Perm(len(moves)) {
			shuffled[i] = moves[j]
		}
		if got := PriceMoves(shuffled, tp, expertBytes).Seconds; !relClose(got, plan.Seconds, 1e-12) {
			t.Fatalf("trial %d: shuffled plan costs %v, original %v", trial, got, plan.Seconds)
		}
		greedy := greedyMakespan(moves, tp, expertBytes)
		if greedy < plan.Seconds*(1-1e-12) || greedy > 2*plan.Seconds*(1+1e-12) {
			t.Fatalf("trial %d: greedy schedule takes %v, outside [%v, 2x]", trial, greedy, plan.Seconds)
		}
		if plan.Bytes != len(moves)*expertBytes {
			t.Fatalf("trial %d: %d bytes for %d moves", trial, plan.Bytes, len(moves))
		}
	}
}

// TestPriceMovesSingleSenderIsSerial: when every move leaves one GPU, its
// send port carries the whole plan, so the price is the serial sum, bit for
// bit.
func TestPriceMovesSingleSenderIsSerial(t *testing.T) {
	tp := topo.Wilkes3(4)
	r := rng.New(0x51)
	for trial := 0; trial < 200; trial++ {
		moves := randomMoves(r, tp.TotalGPUs())
		from := r.Intn(tp.TotalGPUs())
		for i := range moves {
			moves[i].From = from
			for moves[i].To == from {
				moves[i].To = r.Intn(tp.TotalGPUs())
			}
		}
		expertBytes := 1 + r.Intn(64<<20)
		got := PriceMoves(moves, tp, expertBytes).Seconds
		if want := serialSeconds(moves, tp, expertBytes); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: one sender's %d moves cost %v, serial sum %v", trial, len(moves), got, want)
		}
	}
}

// TestPriceMovesMatchingIsOneCopy: moves with distinct senders and distinct
// receivers all run at once, so the plan costs its slowest single copy.
func TestPriceMovesMatchingIsOneCopy(t *testing.T) {
	tp := topo.Wilkes3(4)
	gpus := tp.TotalGPUs()
	r := rng.New(0x3A7)
	for trial := 0; trial < 200; trial++ {
		expertBytes := 1 + r.Intn(64<<20)
		var moves []Move
		slowest := 0.0
		for from, to := range r.Perm(gpus) {
			if from == to || r.Intn(3) == 0 {
				continue
			}
			moves = append(moves, Move{Layer: r.Intn(16), Expert: r.Intn(64), From: from, To: to})
			slowest = math.Max(slowest, tp.TransferTime(from, to, expertBytes))
		}
		if got := PriceMoves(moves, tp, expertBytes).Seconds; got != slowest {
			t.Fatalf("trial %d: matching of %d moves costs %v, slowest copy %v", trial, len(moves), got, slowest)
		}
	}
}

func TestPriceMovesEmptyPlanIsFree(t *testing.T) {
	plan := PriceMoves(nil, topo.Wilkes3(4), 1<<20)
	if plan.Seconds != 0 || plan.Bytes != 0 || plan.CrossNodeMoves != 0 {
		t.Fatalf("empty plan priced %+v", plan)
	}
}
