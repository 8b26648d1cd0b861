package cluster

import "sync"

// The point-to-point transport below is the one the runtime's collectives
// used before each became a lockstep exchange round. It is kept, test-only
// and with unchanged semantics, so the channel-based reference collectives
// in the external tests can run against the exchange. Unlike an exchange
// round, a Recv is not released by a peer's panic, so only panic-free
// programs use it.

// message is a stamped payload traveling between ranks.
type message struct {
	data    any
	arrival float64 // sender clock when the transfer completes
}

// mailboxDepth bounds the per-(src,dst) channel. The reference collectives
// run in lockstep (every rank issues the same sequence, and each send to a
// peer is matched by that peer's receive in the same collective), so at
// most 2 messages are outstanding per pair: one from the current collective
// and one from a sender already in the next. A sender further ahead only
// blocks until the receiver catches up, which it does in order, so a full
// mailbox is back-pressure, never a deadlock.
const mailboxDepth = 16

// mailboxes holds each cluster's per-pair channels, boxes[src][dst], built
// on first use. A test file cannot add a field to Cluster, so they live
// here, keyed by the cluster, until ReleaseMailboxes drops them.
var mailboxes = struct {
	sync.Mutex
	of map[*Cluster][][]chan message
}{of: map[*Cluster][][]chan message{}}

// boxes returns the cluster's mailboxes, building them on first use.
func (c *Cluster) boxes() [][]chan message {
	mailboxes.Lock()
	defer mailboxes.Unlock()
	boxes, ok := mailboxes.of[c]
	if !ok {
		boxes = make([][]chan message, c.n)
		for s := range boxes {
			boxes[s] = make([]chan message, c.n)
			for d := range boxes[s] {
				boxes[s][d] = make(chan message, mailboxDepth)
			}
		}
		mailboxes.of[c] = boxes
	}
	return boxes
}

// ReleaseMailboxes drops the cluster's mailboxes once every run on it that
// used Send and Recv has returned.
func ReleaseMailboxes(c *Cluster) {
	mailboxes.Lock()
	delete(mailboxes.of, c)
	mailboxes.Unlock()
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
	r.Cluster.boxes()[r.ID][dst] <- message{data: data, arrival: r.clock}
}

// Recv blocks until a message from src arrives and returns its payload,
// advancing the receiver's clock to the message arrival time.
func (r *Rank) Recv(src int) any {
	if src == r.ID {
		panic("cluster: self-recv")
	}
	m := <-r.Cluster.boxes()[src][r.ID]
	r.advanceTo(m.arrival)
	return m.data
}
