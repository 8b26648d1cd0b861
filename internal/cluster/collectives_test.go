package cluster_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/rng"
	"repro/internal/topo"
)

// refAlltoall is the channel-based Alltoall the lockstep exchange replaced,
// kept verbatim as the reference its data and clocks must match: P-1
// point-to-point sends and receives in the pairwise order.
func refAlltoall[T any](r *cluster.Rank, send [][]T, elemBytes int, category string) [][]T {
	p := r.Cluster.Size()
	if len(send) != p {
		panic(fmt.Sprintf("collective: Alltoall needs %d chunks, got %d", p, len(send)))
	}
	recv := make([][]T, p)
	// Local chunk: an on-GPU copy, not a network transfer.
	recv[r.ID] = send[r.ID]
	r.LocalCopy(len(send[r.ID])*elemBytes, category)
	for step := 1; step < p; step++ {
		dst := (r.ID + step) % p
		src := (r.ID - step + p) % p
		r.Send(dst, send[dst], len(send[dst])*elemBytes, category)
		recv[src] = r.Recv(src).([]T)
	}
	return recv
}

// refAllgather is the channel-based ring Allgather the lockstep exchange
// replaced, kept verbatim as its reference.
func refAllgather[T any](r *cluster.Rank, mine []T, elemBytes int, category string) [][]T {
	p := r.Cluster.Size()
	out := make([][]T, p)
	out[r.ID] = mine
	next := (r.ID + 1) % p
	prev := (r.ID - 1 + p) % p
	carry := mine
	carryOwner := r.ID
	for step := 1; step < p; step++ {
		r.Send(next, refRingPacket[T]{owner: carryOwner, data: carry}, len(carry)*elemBytes, category)
		pkt := r.Recv(prev).(refRingPacket[T])
		out[pkt.owner] = pkt.data
		carry = pkt.data
		carryOwner = pkt.owner
	}
	return out
}

// refRingPacket carries a chunk plus its originating rank around the ring.
type refRingPacket[T any] struct {
	owner int
	data  []T
}

// hierPacket is one chunk inside refHierarchicalAlltoall's bundles.
type hierPacket[T any] struct {
	srcRank int
	dstRank int
	data    []T
}

// refHierarchicalAlltoall is the channel-based node-leader Alltoall the
// lockstep exchange replaced, kept as the reference its data and clocks must
// match: the same code, calling collective.Alltoall on one node.
func refHierarchicalAlltoall[T any](r *cluster.Rank, send [][]T, elemBytes int, category string) [][]T {
	tp := r.Cluster.Topo
	p := r.Cluster.Size()
	if len(send) != p {
		panic("collective: HierarchicalAlltoall chunk count mismatch")
	}
	if tp.Nodes == 1 {
		return collective.Alltoall(r, send, elemBytes, category)
	}
	recv := make([][]T, p)
	myNode := tp.NodeOf(r.ID)
	leader := tp.Rank(myNode, 0)
	isLeader := r.ID == leader

	// Stage 0: direct intra-node (and self) deliveries via the flat
	// pairwise schedule restricted to the node.
	recv[r.ID] = send[r.ID]
	r.LocalCopy(len(send[r.ID])*elemBytes, category)
	local := tp.RanksOnNode(myNode)
	for step := 1; step < len(local); step++ {
		me := indexOf(local, r.ID)
		dst := local[(me+step)%len(local)]
		src := local[(me-step+len(local))%len(local)]
		r.Send(dst, send[dst], len(send[dst])*elemBytes, category)
		recv[src] = r.Recv(src).([]T)
	}

	// Stage 1: forward inter-node chunks to the node leader, bundled per
	// destination node.
	type bundle = []hierPacket[T]
	outByNode := make([]bundle, tp.Nodes)
	bytesByNode := make([]int, tp.Nodes)
	for dst := 0; dst < p; dst++ {
		dn := tp.NodeOf(dst)
		if dn == myNode {
			continue
		}
		outByNode[dn] = append(outByNode[dn], hierPacket[T]{srcRank: r.ID, dstRank: dst, data: send[dst]})
		bytesByNode[dn] += len(send[dst]) * elemBytes
	}
	if !isLeader {
		total := 0
		var all bundle
		for dn := 0; dn < tp.Nodes; dn++ {
			all = append(all, outByNode[dn]...)
			total += bytesByNode[dn]
		}
		r.Send(leader, all, total, category)
	}
	var staged []bundle // leader: per destination node
	if isLeader {
		staged = make([]bundle, tp.Nodes)
		for dn := 0; dn < tp.Nodes; dn++ {
			staged[dn] = append(staged[dn], outByNode[dn]...)
		}
		for _, peer := range local {
			if peer == leader {
				continue
			}
			in := r.Recv(peer).(bundle)
			for _, pkt := range in {
				staged[tp.NodeOf(pkt.dstRank)] = append(staged[tp.NodeOf(pkt.dstRank)], pkt)
			}
		}
	}

	// Stage 2: leaders exchange node bundles pairwise, then scatter to
	// local ranks; non-leaders receive their forwarded chunks.
	if isLeader {
		arrivals := make([]bundle, 0, tp.Nodes)
		for step := 1; step < tp.Nodes; step++ {
			dstNode := (myNode + step) % tp.Nodes
			srcNode := (myNode - step + tp.Nodes) % tp.Nodes
			out := staged[dstNode]
			bytes := 0
			for _, pkt := range out {
				bytes += len(pkt.data) * elemBytes
			}
			r.Send(tp.Rank(dstNode, 0), out, bytes, category)
			arrivals = append(arrivals, r.Recv(tp.Rank(srcNode, 0)).(bundle))
		}
		// Scatter arrivals: keep own, forward the rest over NVLink.
		perLocal := make(map[int]bundle)
		for _, in := range arrivals {
			for _, pkt := range in {
				if pkt.dstRank == r.ID {
					recv[pkt.srcRank] = pkt.data
				} else {
					perLocal[pkt.dstRank] = append(perLocal[pkt.dstRank], pkt)
				}
			}
		}
		for _, peer := range local {
			if peer == leader {
				continue
			}
			out := perLocal[peer]
			bytes := 0
			for _, pkt := range out {
				bytes += len(pkt.data) * elemBytes
			}
			r.Send(peer, out, bytes, category)
		}
	} else {
		in := r.Recv(leader).(bundle)
		for _, pkt := range in {
			recv[pkt.srcRank] = pkt.data
		}
	}
	return recv
}

func indexOf(s []int, v int) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	panic("collective: rank not on its own node")
}

// collectiveImpl is one implementation of an all-to-all and an Allgather.
type collectiveImpl struct {
	alltoall  func(r *cluster.Rank, send [][]int, elemBytes int, category string) [][]int
	allgather func(r *cluster.Rank, mine []int, elemBytes int, category string) [][]int
}

var (
	exchangeImpl      = collectiveImpl{collective.Alltoall[int], collective.Allgather[int]}
	referenceImpl     = collectiveImpl{refAlltoall[int], refAllgather[int]}
	hierarchicalImpl  = collectiveImpl{collective.HierarchicalAlltoall[int], collective.Allgather[int]}
	hierReferenceImpl = collectiveImpl{refHierarchicalAlltoall[int], refAllgather[int]}
)

// rankOutcome is what one rank saw in a run: the data every collective
// delivered to it, copied as it returned, and its final clock and per-
// category totals as float bits.
type rankOutcome struct {
	delivered [][][]int
	clock     uint64
	breakdown map[string]uint64
}

// chunk draws one irregular chunk: nil, empty but non-nil, or up to six
// values that name the call, the sender and the receiver.
func chunk(g *rng.RNG, call, from, to int) []int {
	switch n := g.Intn(10); {
	case n < 2:
		return nil
	case n < 3:
		return []int{}
	default:
		c := make([]int, 1+g.Intn(6))
		for i := range c {
			c[i] = call<<20 | from<<12 | to<<4 | i
		}
		return c
	}
}

// copyTable deep-copies a delivered table, keeping nil chunks nil.
func copyTable(tbl [][]int) [][]int {
	out := make([][]int, len(tbl))
	for i, c := range tbl {
		if c != nil {
			out[i] = append([]int{}, c...)
		}
	}
	return out
}

// runProgram runs calls back-to-back collectives on every rank of tp, each
// after a rank-dependent burst of compute. Every rank keeps one send table
// for the whole run and refills it the moment a collective returns, as the
// engine does; each chunk's backing array is fresh.
func runProgram(tp *topo.Topology, impl collectiveImpl, seed uint64, calls int) []rankOutcome {
	c := cluster.New(tp)
	defer cluster.ReleaseMailboxes(c)
	p := c.Size()
	out := make([]rankOutcome, p)
	ranks := c.Run(func(r *cluster.Rank) {
		g := rng.New(rng.Mix64(seed, uint64(r.ID)))
		send := make([][]int, p)
		refill := func(call int) {
			for d := range send {
				send[d] = chunk(g, call, r.ID, d)
			}
		}
		refill(0)
		for call := 0; call < calls; call++ {
			r.Advance("compute", float64(g.Intn(1000))*1e-7)
			// Every rank agrees on the call's kind and wire size.
			kind := rng.Mix64(seed, uint64(call)) % 4
			elemBytes := 1 + int(rng.Mix64(seed, uint64(call), 1)%4096)
			var got [][]int
			switch kind {
			case 0, 1:
				got = impl.alltoall(r, send, elemBytes, "alltoall")
			case 2:
				got = impl.allgather(r, send[(r.ID+call)%p], elemBytes, "allgather")
			default:
				got = impl.alltoall(r, send, elemBytes, fmt.Sprintf("alltoall-%d", call%3))
			}
			// The caller's tables are reused: refill before reading.
			refill(call + 1)
			out[r.ID].delivered = append(out[r.ID].delivered, copyTable(got))
		}
	})
	for i, r := range ranks {
		out[i].clock = math.Float64bits(r.Now())
		out[i].breakdown = map[string]uint64{}
		for k, v := range r.Breakdown() {
			out[i].breakdown[k] = math.Float64bits(v)
		}
	}
	return out
}

// sameOutcomes fails the test at the first rank whose delivered data, clock
// or per-category totals differ from the reference's, bit for bit.
func sameOutcomes(t *testing.T, name string, got, want []rankOutcome) {
	t.Helper()
	for r := range want {
		for call := range want[r].delivered {
			if !reflect.DeepEqual(got[r].delivered[call], want[r].delivered[call]) {
				t.Fatalf("%s: rank %d call %d received %v, reference %v",
					name, r, call, got[r].delivered[call], want[r].delivered[call])
			}
		}
		if got[r].clock != want[r].clock {
			t.Fatalf("%s: rank %d clock %v, reference %v", name, r,
				math.Float64frombits(got[r].clock), math.Float64frombits(want[r].clock))
		}
		if !reflect.DeepEqual(got[r].breakdown, want[r].breakdown) {
			t.Fatalf("%s: rank %d breakdown bits %v, reference %v", name, r, got[r].breakdown, want[r].breakdown)
		}
	}
}

// TestExchangeMatchesChannelCollectives runs the same program of
// back-to-back Alltoalls and Allgathers, with irregular and empty chunks and
// senders that refill their tables as each call returns, through the
// lockstep exchange and through the channel-based reference. Every rank
// must receive the same data and end with the same clock and per-category
// totals, bit for bit.
func TestExchangeMatchesChannelCollectives(t *testing.T) {
	for _, gpus := range []int{1, 4, 8, 16} {
		tp := topo.ForGPUs(gpus)
		for seed := uint64(1); seed <= 3; seed++ {
			const calls = 40
			want := runProgram(tp, referenceImpl, seed, calls)
			got := runProgram(tp, exchangeImpl, seed, calls)
			sameOutcomes(t, fmt.Sprintf("%d gpus seed %d", gpus, seed), got, want)
		}
	}
}

// TestHierarchicalMatchesChannelAlltoall runs the same programs, with
// HierarchicalAlltoall in place of Alltoall, through the node-leader
// exchange and through the channel-based reference on shapes from 2x1 to
// 8x4 nodes x GPUs per node, including 2x8, whose 22 steps exceed P-1.
// Data, clocks and per-category totals must match bit for bit.
func TestHierarchicalMatchesChannelAlltoall(t *testing.T) {
	for _, shape := range [][2]int{{2, 1}, {2, 2}, {2, 4}, {2, 8}, {3, 3}, {4, 1}, {4, 4}, {5, 2}, {8, 4}} {
		tp := topo.Wilkes3(shape[0])
		tp.GPUsPerNode = shape[1]
		for seed := uint64(1); seed <= 3; seed++ {
			const calls = 40
			want := runProgram(tp, hierReferenceImpl, seed, calls)
			got := runProgram(tp, hierarchicalImpl, seed, calls)
			sameOutcomes(t, fmt.Sprintf("%dx%d seed %d", shape[0], shape[1], seed), got, want)
		}
	}
}

// TestLaggingRankDoesNotDeadlock runs back-to-back rounds of every
// collective while rank 0 sleeps after some of them, before it reads what
// they delivered: its peers run ahead into the next round and must wait
// there, never deadlock, and nothing they deposit may overwrite what rank 0
// has yet to read. The lag is host time only, so the simulated clocks must
// match a run without it.
func TestLaggingRankDoesNotDeadlock(t *testing.T) {
	const rounds = 40
	run := func(lag time.Duration) []float64 {
		c := cluster.New(topo.Wilkes3(2))
		p := c.Size()
		ranks := c.Run(func(r *cluster.Rank) {
			pause := func(i int) {
				if r.ID == 0 && i%8 == 0 {
					time.Sleep(lag)
				}
			}
			send := make([][]int, p)
			for i := 0; i < rounds; i++ {
				for dst := range send {
					send[dst] = []int{i, r.ID, dst}
				}
				for _, a2a := range []func(*cluster.Rank, [][]int, int, string) [][]int{
					collective.Alltoall[int], collective.HierarchicalAlltoall[int],
				} {
					got := a2a(r, send, 8, "alltoall")
					pause(i)
					for src, chunk := range got {
						if chunk[0] != i || chunk[1] != src || chunk[2] != r.ID {
							t.Errorf("round %d on rank %d: rank %d delivered %v", i, r.ID, src, chunk)
						}
					}
				}
				got := collective.Allgather(r, []int{i, r.ID}, 8, "allgather")
				pause(i)
				for src, chunk := range got {
					if chunk[0] != i || chunk[1] != src {
						t.Errorf("allgather %d on rank %d: rank %d delivered %v", i, r.ID, src, chunk)
					}
				}
				r.Barrier()
			}
		})
		clocks := make([]float64, len(ranks))
		for i, r := range ranks {
			clocks[i] = r.Now()
		}
		return clocks
	}
	done := make(chan [2][]float64, 1)
	go func() { done <- [2][]float64{run(0), run(5 * time.Millisecond)} }()
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
