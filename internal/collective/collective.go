// Package collective implements the MPI/NCCL-style collective operations MoE
// expert parallelism is built from — Alltoall, its node-leader variant
// HierarchicalAlltoall, and Allgather — over the simulated cluster runtime.
//
// Each collective both moves real data between rank goroutines and advances
// the simulated clocks according to the algorithm's communication structure:
//   - Alltoall: pairwise exchange, P-1 steps, rank r sends chunk to
//     (r+step) mod P and receives from (r-step) mod P.
//   - HierarchicalAlltoall: node-local pairwise exchange, then a gather to
//     each node's leader, a pairwise exchange between leaders and a scatter
//     from each leader (cluster.NodeLeader).
//   - Allgather: ring, P-1 steps, each step forwarding the chunk received in
//     the previous step.
//
// These are the algorithms NCCL uses at the message sizes MoE inference
// produces, so the simulated time has the right shape in both P and bytes.
//
// Each runs as one lockstep exchange (cluster.Rank.Exchange): the last rank
// to arrive copies every chunk header into its receivers' tables and
// computes the schedule's message stamps, and every rank replays its own
// steps on its clock.
package collective

import (
	"fmt"

	"repro/internal/cluster"
)

// pairwise is one rank's Alltoall state, kept across calls in the rank's
// cluster.Scratch.
type pairwise[T any] struct {
	send  [][]T          // the caller's table, for the round in progress
	recv  [][]T          // the rank's receive table, returned to the caller
	peers []*pairwise[T] // every rank's state, when this rank arrives last
}

// start readies the state for a round with the caller's table.
func (st *pairwise[T]) start(send [][]T) {
	if st.recv == nil {
		st.recv = make([][]T, len(send))
		st.peers = make([]*pairwise[T], len(send))
	}
	st.send = send
}

// transpose copies every chunk header into its receiver's table: rank d's
// recv[s] becomes rank s's send[d]. Every peer must be set.
func (st *pairwise[T]) transpose() {
	for src, from := range st.peers {
		for dst, chunk := range from.send {
			st.peers[dst].recv[src] = chunk
		}
	}
}

// Alltoall performs a personalized all-to-all exchange: send[d] is delivered
// to rank d, and the returned recv[s] holds the chunk rank s addressed to
// this rank. Chunks may have different lengths (MoE token dispatch is
// irregular). elemBytes is the wire size of one T. The simulated time charged
// reflects the pairwise-exchange schedule; chunks addressed to the local rank
// are charged as a local copy.
//
// Every chunk header is copied before Alltoall returns, so the caller may
// refill send at once. The returned table is the rank's own and is
// overwritten by its next Alltoall of the same element type.
func Alltoall[T any](r *cluster.Rank, send [][]T, elemBytes int, category string) [][]T {
	p := r.Cluster.Size()
	if len(send) != p {
		panic(fmt.Sprintf("collective: Alltoall needs %d chunks, got %d", p, len(send)))
	}
	st := cluster.Scratch[pairwise[T]](r)
	st.start(send)
	// Local chunk: an on-GPU copy, not a network transfer.
	r.LocalCopy(len(send[r.ID])*elemBytes, category)
	r.Exchange(cluster.Pairwise, category, st, func(payloads []any, bytes [][]int) {
		for i, x := range payloads {
			st.peers[i] = deposit[pairwise[T]](x)
		}
		st.transpose()
		for src, from := range st.peers {
			for step := 1; step < p; step++ {
				bytes[src][step] = len(from.send[(src+step)%p]) * elemBytes
			}
		}
	})
	st.send = nil
	return st.recv
}

// ring is one rank's Allgather state, kept across calls in the rank's
// cluster.Scratch.
type ring[T any] struct {
	mine  []T        // the caller's chunk, for the round in progress
	out   [][]T      // the rank's gathered table, returned to the caller
	peers []*ring[T] // every rank's state, when this rank arrives last
}

// Allgather collects each rank's chunk onto every rank using a ring. The
// result slice is indexed by source rank and is identical (element-wise) on
// all ranks. The returned table is the rank's own and is overwritten by its
// next Allgather of the same element type.
func Allgather[T any](r *cluster.Rank, mine []T, elemBytes int, category string) [][]T {
	p := r.Cluster.Size()
	st := cluster.Scratch[ring[T]](r)
	if st.out == nil {
		st.out = make([][]T, p)
		st.peers = make([]*ring[T], p)
	}
	st.mine = mine
	r.Exchange(cluster.Ring, category, st, func(payloads []any, bytes [][]int) {
		peers := st.peers
		for i, x := range payloads {
			peers[i] = deposit[ring[T]](x)
		}
		for src, from := range peers {
			for _, to := range peers {
				to.out[src] = from.mine
			}
			// At step s a rank forwards the chunk it received at step s-1,
			// which rank src-s+1 owns.
			for step := 1; step < p; step++ {
				bytes[src][step] = len(peers[(src-step+1+p)%p].mine) * elemBytes
			}
		}
	})
	st.mine = nil
	return st.out
}

// deposit returns an exchange payload as the collective state S, panicking
// when the ranks called different collectives.
func deposit[S any](x any) *S {
	s, ok := x.(*S)
	if !ok {
		panic(fmt.Sprintf("collective: ranks disagree on the collective: %T met %T", x, s))
	}
	return s
}

// TotalBytes is a helper computing the wire volume of a chunked payload.
func TotalBytes[T any](chunks [][]T, elemBytes int) int {
	total := 0
	for _, c := range chunks {
		total += len(c) * elemBytes
	}
	return total
}
