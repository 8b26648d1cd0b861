package collective

import (
	"fmt"

	"repro/internal/cluster"
)

// nodeLeader is one rank's HierarchicalAlltoall state, kept across calls in
// the rank's cluster.Scratch. It holds Alltoall's tables under a type of its
// own, so ranks that mix the two schedules in one round fail the deposit
// check.
type nodeLeader[T any] struct{ pairwise[T] }

// HierarchicalAlltoall performs Alltoall's personalized all-to-all on a
// schedule that exploits the topology's bandwidth hierarchy, the way NCCL's
// PXN / rail-optimized schedules do (cluster.NodeLeader):
//
//  1. Intra-node exchange: node-local chunks go directly, pairwise over
//     NVLink.
//  2. Intra-node gather: every rank forwards its inter-node chunks to the
//     node's leader (local rank 0) over NVLink, in one bundle.
//  3. Inter-node exchange: node leaders exchange the bundled chunks over
//     the slow fabric (one large message per node pair instead of
//     GPUsPerNode^2 small ones), then scatter arrivals to their local
//     ranks, one bundle each.
//
// The delivered table is Alltoall's; the win is fewer inter-node messages,
// which matters when the per-message latency term dominates (small-chunk
// MoE dispatch at scale). It has Alltoall's contract: the returned table is
// the rank's own and is overwritten by its next HierarchicalAlltoall of the
// same element type. On one node it is Alltoall.
func HierarchicalAlltoall[T any](r *cluster.Rank, send [][]T, elemBytes int, category string) [][]T {
	tp := r.Cluster.Topo
	p := r.Cluster.Size()
	if len(send) != p {
		panic(fmt.Sprintf("collective: HierarchicalAlltoall needs %d chunks, got %d", p, len(send)))
	}
	if tp.Nodes == 1 {
		return Alltoall(r, send, elemBytes, category)
	}
	st := cluster.Scratch[nodeLeader[T]](r)
	st.start(send)
	r.LocalCopy(len(send[r.ID])*elemBytes, category)
	r.Exchange(cluster.NodeLeader, category, st, func(payloads []any, bytes [][]int) {
		for i, x := range payloads {
			st.peers[i] = &deposit[nodeLeader[T]](x).pairwise
		}
		st.transpose()
		// Each step's wire size is the sum of the chunks its bundle carries;
		// the steps are laid out as cluster.NodeLeader describes. Ranks are
		// node-major: rank node*g+k is local rank k of node.
		g, nodes := tp.GPUsPerNode, tp.Nodes
		gather, leaders, scatter := g-1, 2*g-2, 2*g+nodes-3
		wire := func(src, dst int) int { return len(st.peers[src].send[dst]) * elemBytes }
		for src := 0; src < p; src++ {
			node, k := src/g, src%g
			for s := 1; s < g; s++ {
				bytes[src][s] = wire(src, node*g+(k+s)%g)
			}
			if k > 0 { // every chunk leaving the node, to the leader
				sum := 0
				for dst := 0; dst < p; dst++ {
					if dst/g != node {
						sum += wire(src, dst)
					}
				}
				bytes[src][gather+k] = sum
				continue
			}
			for j := 1; j < nodes; j++ { // the node's chunks for node+j
				to := (node + j) % nodes
				sum := 0
				for a := node * g; a < (node+1)*g; a++ {
					for b := to * g; b < (to+1)*g; b++ {
						sum += wire(a, b)
					}
				}
				bytes[src][leaders+j] = sum
			}
			for kk := 1; kk < g; kk++ { // other nodes' chunks for local rank kk
				sum := 0
				for from := 0; from < p; from++ {
					if from/g != node {
						sum += wire(from, node*g+kk)
					}
				}
				bytes[src][scatter+kk] = sum
			}
		}
	})
	st.send = nil
	return st.recv
}
