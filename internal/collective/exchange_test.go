package collective

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
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

// collectiveImpl is one implementation of the two flat collectives.
type collectiveImpl struct {
	alltoall  func(r *cluster.Rank, send [][]int, elemBytes int, category string) [][]int
	allgather func(r *cluster.Rank, mine []int, elemBytes int, category string) [][]int
}

var (
	exchangeImpl  = collectiveImpl{Alltoall[int], Allgather[int]}
	referenceImpl = collectiveImpl{refAlltoall[int], refAllgather[int]}
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
			for r := range want {
				for call := range want[r].delivered {
					if !reflect.DeepEqual(got[r].delivered[call], want[r].delivered[call]) {
						t.Fatalf("%d gpus seed %d: rank %d call %d received %v, reference %v",
							gpus, seed, r, call, got[r].delivered[call], want[r].delivered[call])
					}
				}
				if got[r].clock != want[r].clock {
					t.Fatalf("%d gpus seed %d: rank %d clock %v, reference %v", gpus, seed, r,
						math.Float64frombits(got[r].clock), math.Float64frombits(want[r].clock))
				}
				if !reflect.DeepEqual(got[r].breakdown, want[r].breakdown) {
					t.Fatalf("%d gpus seed %d: rank %d breakdown bits %v, reference %v",
						gpus, seed, r, got[r].breakdown, want[r].breakdown)
				}
			}
		}
	}
}

// TestCollectivePanicReportsRootCause panics one rank just before a
// collective its peers have entered or are about to enter. Run must release
// the peers and re-raise the root cause, not a peer's abort, within 10 s.
func TestCollectivePanicReportsRootCause(t *testing.T) {
	ops := map[string]func(r *cluster.Rank){
		"alltoall":  func(r *cluster.Rank) { Alltoall(r, make([][]int, r.Cluster.Size()), 8, "a2a") },
		"allgather": func(r *cluster.Rank) { Allgather(r, []int{r.ID}, 8, "ag") },
		"barrier":   func(r *cluster.Rank) { r.Barrier() },
	}
	for name, op := range ops {
		for _, culprit := range []int{0, 5, 15} {
			done := make(chan any, 1)
			go func() {
				defer func() { done <- recover() }()
				cluster.New(topo.ForGPUs(16)).Run(func(r *cluster.Rank) {
					op(r) // one round completes first
					if r.ID == culprit {
						panic("root-cause-boom")
					}
					op(r)
					op(r)
				})
			}()
			select {
			case p := <-done:
				if s, ok := p.(string); !ok || !strings.Contains(s, "root-cause-boom") {
					t.Fatalf("%s, rank %d panicking: Run re-raised %v, want the root cause", name, culprit, p)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s, rank %d panicking: peers still blocked after 10 s", name, culprit)
			}
		}
	}
}
