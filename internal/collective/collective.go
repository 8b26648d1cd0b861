// Package collective implements the MPI/NCCL-style collective operations MoE
// expert parallelism is built from — Alltoall, Allgather, AllReduce,
// Broadcast — over the simulated cluster runtime.
//
// Each collective both moves real data between rank goroutines and advances
// the simulated clocks according to the algorithm's communication structure:
//   - Alltoall: pairwise exchange, P-1 steps, rank r sends chunk to
//     (r+step) mod P and receives from (r-step) mod P.
//   - Allgather: ring, P-1 steps, each step forwarding the chunk received in
//     the previous step.
//   - AllReduce: ring reduce-scatter followed by ring allgather.
//   - Broadcast: binomial tree from the root.
//
// These are the algorithms NCCL uses at the message sizes MoE inference
// produces, so the simulated time has the right shape in both P and bytes.
//
// Alltoall and Allgather run as one lockstep exchange each
// (cluster.Rank.Exchange): the last rank to arrive copies every chunk header
// into its receivers' tables and computes the schedule's message stamps, and
// every rank replays its own steps on its clock. The rest send point to
// point.
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
	if st.recv == nil {
		st.recv = make([][]T, p)
		st.peers = make([]*pairwise[T], p)
	}
	st.send = send
	// Local chunk: an on-GPU copy, not a network transfer.
	r.LocalCopy(len(send[r.ID])*elemBytes, category)
	r.Exchange(cluster.Pairwise, category, st, func(payloads []any, bytes [][]int) {
		peers := st.peers
		for i, x := range payloads {
			peers[i] = deposit[pairwise[T]](x)
		}
		for src, from := range peers {
			for dst, chunk := range from.send {
				peers[dst].recv[src] = chunk
			}
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

// AllReduceSum sums float64 vectors of equal length across all ranks; every
// rank returns the same totals. Implemented as ring reduce-scatter + ring
// allgather over contiguous blocks, the bandwidth-optimal schedule.
func AllReduceSum(r *cluster.Rank, mine []float64, category string) []float64 {
	p := r.Cluster.Size()
	n := len(mine)
	acc := append([]float64(nil), mine...)
	if p == 1 {
		return acc
	}
	const elemBytes = 8
	// Block boundaries: block b covers [bounds[b], bounds[b+1]).
	bounds := make([]int, p+1)
	for b := 0; b <= p; b++ {
		bounds[b] = b * n / p
	}
	next := (r.ID + 1) % p
	prev := (r.ID - 1 + p) % p
	// Reduce-scatter: after p-1 steps, rank r holds the full sum of block r.
	for step := 0; step < p-1; step++ {
		sendBlock := (r.ID - step + p) % p
		recvBlock := (r.ID - step - 1 + p) % p
		chunk := append([]float64(nil), acc[bounds[sendBlock]:bounds[sendBlock+1]]...)
		r.Send(next, chunk, len(chunk)*elemBytes, category)
		in := r.Recv(prev).([]float64)
		dst := acc[bounds[recvBlock]:bounds[recvBlock+1]]
		for i := range dst {
			dst[i] += in[i]
		}
	}
	// Allgather the reduced blocks.
	for step := 0; step < p-1; step++ {
		sendBlock := (r.ID + 1 - step + p) % p
		recvBlock := (r.ID - step + p) % p
		chunk := append([]float64(nil), acc[bounds[sendBlock]:bounds[sendBlock+1]]...)
		r.Send(next, chunk, len(chunk)*elemBytes, category)
		in := r.Recv(prev).([]float64)
		copy(acc[bounds[recvBlock]:bounds[recvBlock+1]], in)
	}
	return acc
}

// Broadcast distributes root's value to every rank via a binomial tree and
// returns it. Non-root ranks pass any placeholder (ignored).
func Broadcast[T any](r *cluster.Rank, root int, value T, bytes int, category string) T {
	p := r.Cluster.Size()
	if root < 0 || root >= p {
		panic("collective: invalid broadcast root")
	}
	// Work in a rotated space where the root is rank 0. At step `mask`,
	// ranks [0, mask) already hold the value and each sends to vrank+mask;
	// ranks [mask, 2*mask) receive.
	vrank := (r.ID - root + p) % p
	for mask := 1; mask < p; mask <<= 1 {
		if vrank < mask {
			peer := vrank + mask
			if peer < p {
				r.Send((peer+root)%p, value, bytes, category)
			}
		} else if vrank < 2*mask {
			value = r.Recv(((vrank - mask) + root) % p).(T)
		}
	}
	return value
}

// TotalBytes is a helper computing the wire volume of a chunked payload.
func TotalBytes[T any](chunks [][]T, elemBytes int) int {
	total := 0
	for _, c := range chunks {
		total += len(c) * elemBytes
	}
	return total
}
