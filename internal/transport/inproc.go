package transport

// The in-process implementation: shared-memory inboxes plus
// channel-based round gates. It is the transport every in-process
// distributed check runs over, and the reference for the round
// contract.
//
// Zero-copy is the point and the hazard: Send stages the caller's
// batch slice by reference, the receiving shard's merge reads it in
// place, and what the receiver keeps are the record pointers the
// batch holds, never a copy of a record. The records outlive the round
// (see Batch); the batch slice does not, because its sender rewinds
// and refills it. Two gates per round make that safe, mirroring the
// phase argument of dist's Shard.Run:
//
//   - the Exchange gate (all shards have published round r's traffic)
//     orders every publish before any read;
//   - the Barrier gate (all shards have merged round r) orders every
//     read before any round-r+1 rewind of the same buffers.
//
// A group keeps no per-pair state: each member owns one inbox that its
// peers append to, so a round costs O(peers sent to + deliveries), not
// O(group size). The inbox is double-buffered by round parity and the
// staging slice is rewound after every publish, so steady-state rounds
// allocate nothing; the Barrier argument above is what licenses the
// reuse (see Exchange). A group built by NewInProcGroupSized knows each
// member's sends and deliveries per round (a dist wiring counts its cut
// links once): its staging slices start at that size, and each inbox
// parity is made at its size on the round that first fills it, so no
// round grows a buffer by append.
//
// The gates cannot use sync.Cond — a cancelled context must be able to
// interrupt the wait — so they are one-shot channels closed by the
// last arriver, with an aborted channel racing them. A close or cancel
// poisons the whole group: every waiter (current and future) returns
// ErrClosed or the context error instead of deadlocking on a peer that
// quit. The poison dies with the group: a group may run check after
// check while every one completes (a dist wiring keeps its group), but
// a check that fails drops it and the next check builds a fresh one,
// so one aborted check can never wedge the next.

import (
	"context"
	"sync"
)

// InProc is one shard's handle on an in-process transport group built
// by NewInProcGroup.
type InProc struct {
	hub    *inprocHub
	me     int
	staged []outgoing // this round's Sends, rewound after every publish
	stats  Stats
}

// outgoing is one staged Send: a delivery bound for a peer's inbox.
type outgoing struct {
	peer int
	del  Delivery
}

// NewInProcGroup builds a group of n in-process transports sharing one
// hub, one per shard. Closing any member unblocks every other.
func NewInProcGroup(n int) []*InProc { return newInProcGroup(n, nil, nil) }

// NewInProcGroupSized is NewInProcGroup for a group whose traffic per
// round is known: member i sends sends[i] batches and receives recvs[i]
// deliveries a round (len(sends) = len(recvs) = the group size). The
// counts size the buffers only; a member may send or receive more.
func NewInProcGroupSized(sends, recvs []int) []*InProc {
	return newInProcGroup(len(sends), sends, recvs)
}

func newInProcGroup(n int, sends, recvs []int) []*InProc {
	hub := &inprocHub{
		n:       n,
		inbox:   make([][2][]Delivery, n),
		recvs:   recvs,
		gates:   make(map[int64]*gate),
		aborted: make(chan struct{}),
	}
	group := make([]*InProc, n)
	members := make([]InProc, n)
	for i := range group {
		members[i] = InProc{hub: hub, me: i}
		if sends != nil && sends[i] > 0 {
			members[i].staged = make([]outgoing, 0, sends[i])
		}
		group[i] = &members[i]
	}
	return group
}

// Name identifies the implementation.
func (t *InProc) Name() string { return "inproc" }

// Shard is the index this transport speaks for.
func (t *InProc) Shard() int { return t.me }

// Peers lists the other shard indices, ascending. The list is built on
// each call: the round loop never needs it, so a group stores none.
func (t *InProc) Peers() []int {
	peers := make([]int, 0, t.hub.n-1)
	for j := 0; j < t.hub.n; j++ {
		if j != t.me {
			peers = append(peers, j)
		}
	}
	return peers
}

// Send stages recs for node dst on shard peer. The slice is staged by
// reference; the caller must keep it frozen until Barrier returns for
// the current round (the same contract Shard.Run's cur buffers live
// by).
func (t *InProc) Send(peer, dst int, recs Batch) {
	t.staged = append(t.staged, outgoing{peer: peer, del: Delivery{Dst: dst, Recs: recs}})
}

// Exchange publishes this shard's staged traffic into the peers'
// inboxes, waits until every shard has published round's traffic, and
// collects the deliveries addressed here.
//
// The returned slice is this shard's inbox for the round's parity. It
// stays valid until the shard's Barrier of the next round returns: no
// peer publishes into the same parity before round+2, and no peer
// starts round+2 before this shard has closed round+1.
func (t *InProc) Exchange(ctx context.Context, round int) ([]Delivery, error) {
	h := t.hub
	parity := round & 1
	if len(t.staged) > 0 {
		h.mu.Lock()
		for _, o := range t.staged {
			box := &h.inbox[o.peer][parity]
			if *box == nil && h.recvs != nil {
				*box = make([]Delivery, 0, h.recvs[o.peer])
			}
			*box = append(*box, o.del)
		}
		h.mu.Unlock()
		clear(t.staged) // drop the batch references for the GC
		t.staged = t.staged[:0]
	}
	if err := h.gate(ctx, gateKey(round, 0)); err != nil {
		return nil, &Error{Transport: t.Name(), Round: round, Err: err}
	}
	// Every round-r publish happened before the gate opened, and no
	// peer touches this parity again before round+2, so the inbox is
	// read and rewound without the lock.
	box := &h.inbox[t.me][parity]
	dels := *box
	*box = dels[:0]
	t.stats.Rounds++
	metricRounds(t.Name()).Inc()
	return dels, nil
}

// Barrier waits until every shard has merged the round's deliveries,
// licensing the next round's buffer rewinds.
func (t *InProc) Barrier(ctx context.Context, round int) error {
	if err := t.hub.gate(ctx, gateKey(round, 1)); err != nil {
		return &Error{Transport: t.Name(), Round: round, Err: err}
	}
	return nil
}

// Stats reports traffic totals since construction. Bytes and frames
// stay zero: nothing is serialized in process.
func (t *InProc) Stats() Stats { return t.stats }

// Close poisons the group, unblocking every member still waiting at a
// gate. Closing after a completed run is a no-op for the peers — they
// are all past their last gate — but the group runs no further round.
func (t *InProc) Close() error {
	t.hub.abort()
	return nil
}

// inprocHub is the state shared by one transport group: one
// double-buffered inbox per member, the round gates, and the poison
// channel.
type inprocHub struct {
	n       int
	mu      sync.Mutex
	inbox   [][2][]Delivery // [dst][round parity] published deliveries
	recvs   []int           // deliveries per round by member, when known: each inbox parity's size
	gates   map[int64]*gate
	aborted chan struct{}
	abort1  sync.Once
}

func (h *inprocHub) abort() {
	h.abort1.Do(func() { close(h.aborted) })
}

func gateKey(round, phase int) int64 { return int64(round)<<1 | int64(phase) }

// gate blocks until all n members have arrived at the keyed gate, the
// hub is aborted, or ctx is cancelled (which aborts the hub so the
// poison reaches every other member).
func (h *inprocHub) gate(ctx context.Context, key int64) error {
	h.mu.Lock()
	g := h.gates[key]
	if g == nil {
		g = &gate{done: make(chan struct{})}
		h.gates[key] = g
	}
	g.arrived++
	if g.arrived == h.n {
		close(g.done)
		delete(h.gates, key)
	}
	h.mu.Unlock()
	select {
	case <-g.done:
		return nil
	case <-h.aborted:
		// The gate may have opened in the same instant the poison
		// landed; a completed rendezvous wins over a stale abort.
		select {
		case <-g.done:
			return nil
		default:
			return ErrClosed
		}
	case <-ctx.Done():
		h.abort()
		select {
		case <-g.done:
			return nil
		default:
			return ctx.Err()
		}
	}
}

// gate is a one-shot n-party rendezvous: the last arriver opens it for
// everyone.
type gate struct {
	arrived int
	done    chan struct{}
}
