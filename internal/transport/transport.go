// Package transport abstracts the shard-to-shard edge of the
// message-passing runtime: per-round batched record delivery plus the
// round synchronization that keeps the flooding protocol in lockstep.
//
// dist.Shard.Run, the repository's one round loop, hands every cut
// edge's batch to a Transport, so two implementations stand behind the
// same loop: InProc (shared-memory inboxes and gates, the
// zero-serialization in-process default) and TCP (length-prefixed
// binary frames between worker processes, one connection per shard
// pair, per-round batch coalescing). A batch is a list of record
// pointers, so a record is shared, never copied, by every batch and
// ball that holds it: in process a forwarded record costs a pointer,
// and over TCP each frame's records are decoded once, into one slab
// that every batch of the frame points into. The paper's message
// complexity —
// every cut edge carries one batch per round — becomes measured bytes
// on the wire without the round semantics changing, which is what
// keeps verdicts identical to core.Check.
//
// A round over a Transport has four phases (see dist/transportrun.go):
// freeze and stage the outgoing batches (Send), exchange one coalesced
// frame with every peer (Exchange — the delivery barrier), merge, then
// close the round (Barrier — the reuse barrier that licenses buffer
// rewinding). TCP needs no explicit barrier: frames are copied at
// staging time and per-peer message counting bounds round skew by
// one, the classic α-synchronizer.
package transport

import (
	"context"
	"errors"
	"fmt"

	"lcp/internal/bitstr"
	"lcp/internal/graph"
)

// Record is the unit of knowledge flooded through the network:
// everything a single node knows at round 0 — its identifier, proof
// string, input label, and incident edges with their labels and
// weights — or, bare, just its identifier and proof string. Records
// are immutable once built and self-contained, so multi-hop forwarding
// shares them unchanged, by pointer (Batch), across any number of
// shard boundaries.
//
// A node's incident edges are its neighbours' ids (Nbrs) split in two
// at Lo: the edges keyed (w, ID) come first, those keyed (ID, w) after
// (Edge). That is the paper's round-0 knowledge, and for an undirected
// graph it is exactly the node's ascending CSR row, split where the
// neighbours pass ID, so an in-process record aliases the instance's
// row and copies nothing per edge (see dist.ShardPlan.Records). A
// directed record lists its in-neighbours, then its out-neighbours.
// The flags sit together at the end, so a Record is 112 bytes on a
// 64-bit host.
type Record struct {
	// ID is the node the record describes.
	ID int
	// Proof is the node's proof string; meaningful iff HasProof.
	Proof bitstr.String
	// Label is the node's input label; meaningful iff HasLabel.
	Label string
	// Nbrs lists the other endpoint of every edge incident to ID, one
	// entry per edge: Nbrs[:Lo] for the edges keyed (w, ID), Nbrs[Lo:]
	// for those keyed (ID, w). Records share it: nobody writes it.
	Nbrs []int
	// Inputs is each edge's input labelling, aligned with Nbrs; nil
	// when none of the record's edges carries one.
	Inputs []EdgeInput
	// Lo splits Nbrs (see Nbrs).
	Lo int32
	// HasProof distinguishes the empty proof ε from no proof at all.
	HasProof bool
	// Bare marks a warm check's record: ID and proof only, no label and
	// no edges. Once a wired shard has frozen its automata's balls, a
	// check floods nothing else (see dist.Shard.Run).
	Bare bool
	// HasLabel reports whether the node carries an input label.
	HasLabel bool
}

// Edge returns the key of the record's i-th edge exactly as the frozen
// graph stores it (normalized for undirected graphs, the ordered arc
// for directed ones): (Nbrs[i], ID) below Lo, (ID, Nbrs[i]) from Lo on.
func (r *Record) Edge(i int) graph.Edge {
	if i < int(r.Lo) {
		return graph.Edge{U: r.Nbrs[i], V: r.ID}
	}
	return graph.Edge{U: r.ID, V: r.Nbrs[i]}
}

// Input returns the input labelling of the record's i-th edge: the
// zero EdgeInput when the edge carries none.
func (r *Record) Input(i int) EdgeInput {
	if r.Inputs == nil {
		return EdgeInput{}
	}
	return r.Inputs[i]
}

// EdgeInput is one incident edge's input labelling, as the instance
// keys it (normalized, so an arc carries its reverse's label and
// weight).
type EdgeInput struct {
	// Label is the edge's input label; meaningful iff HasLabel.
	Label string
	// Weight is the edge's weight; meaningful iff HasWeight.
	Weight int64
	// HasLabel reports whether the edge carries an input label.
	HasLabel bool
	// HasWeight reports whether the edge carries a weight.
	HasWeight bool
}

// Batch is the per-round payload for one destination node: the records
// the sender learned in the previous round. An empty batch is still
// delivered — message counting is what keeps the rounds synchronized.
//
// A batch holds pointers to records that neither side may change
// while anyone holds them. The records a check floods live until that
// check's last reader is done: in process, a dist automaton's record
// is its node's seeded record, which only the next check's seed
// rewrites, and the next check starts after every shard of this one
// has returned (a group runs one check at a time, and a failed group
// is closed); over TCP, DecodeData decodes each frame into a fresh
// slab that nothing rewrites. A receiver may keep the pointers for as
// long as it keeps the check's knowledge.
type Batch []*Record

// Delivery is one destination node's share of a round's incoming
// traffic, already demultiplexed from the per-peer frames.
type Delivery struct {
	// Dst is the receiving node (owned by this transport's shard).
	Dst int
	// Recs is the batch addressed to Dst.
	Recs Batch
}

// Stats counts a transport's traffic since construction. Bytes and
// frames are zero on the in-process implementation — nothing is
// serialized — which is exactly the baseline the TCP numbers are
// measured against.
type Stats struct {
	// BytesIn / BytesOut count wire bytes received and sent.
	BytesIn, BytesOut uint64
	// FramesIn / FramesOut count data frames received and sent.
	FramesIn, FramesOut uint64
	// Rounds counts completed Exchange rounds.
	Rounds uint64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.BytesIn += other.BytesIn
	s.BytesOut += other.BytesOut
	s.FramesIn += other.FramesIn
	s.FramesOut += other.FramesOut
	s.Rounds += other.Rounds
}

// Transport is one shard's handle on the shard-to-shard edge. A
// transport belongs to exactly one shard of one check; it is not safe
// for concurrent use by multiple goroutines (the shard runner is
// single-threaded), but its Close may race an in-flight Exchange —
// that is how a cancelled or crashed peer unblocks everyone else.
//
// The per-round contract, in call order:
//
//  1. Send stages records for a destination node owned by a peer
//     shard. Staging never blocks and never fails; errors surface at
//     Exchange.
//  2. Exchange flushes the staged traffic as one coalesced frame per
//     peer (empty frames included), collects exactly one frame per
//     peer for the same round, and returns the demultiplexed
//     deliveries. It is the delivery synchronization point: after
//     Exchange returns, every peer has handed over its round-r
//     traffic.
//  3. Barrier closes the round. In-process it is the reuse barrier —
//     no shard starts round r+1 before every shard has merged round r,
//     which is what licenses the zero-copy handover of cur buffers
//     (the batch slices themselves; the records they point at outlive
//     the round, see Batch). Over TCP it is a no-op: frames are
//     serialized at Exchange time.
type Transport interface {
	// Name identifies the implementation ("inproc", "tcp") for
	// metrics and error messages.
	Name() string
	// Shard is the index this transport speaks for.
	Shard() int
	// Peers lists the other shard indices, ascending.
	Peers() []int
	// Send stages recs for delivery to node dst on shard peer in the
	// current round.
	Send(peer, dst int, recs Batch)
	// Exchange flushes staged traffic and gathers every peer's frame
	// for the given round. It honours ctx: cancellation aborts the
	// wait and poisons the transport.
	Exchange(ctx context.Context, round int) ([]Delivery, error)
	// Barrier closes the round (see the interface comment). It honours
	// ctx like Exchange.
	Barrier(ctx context.Context, round int) error
	// Stats reports traffic totals since construction.
	Stats() Stats
	// Close releases the transport and unblocks any peer still waiting
	// on it. Closing twice is allowed.
	Close() error
}

// ErrClosed is returned by Exchange and Barrier after the transport —
// or, in-process, any member of its group — has been closed.
var ErrClosed = errors.New("transport: closed")

// Error wraps a transport failure with the implementation name and the
// round it happened in, so a coordinator can report "tcp: round 3:
// connection reset" instead of a bare I/O error.
type Error struct {
	// Transport is the implementation name.
	Transport string
	// Round is the round the failure surfaced in (0 = setup).
	Round int
	// Err is the underlying failure.
	Err error
}

// Error renders the failure with its transport and round context.
func (e *Error) Error() string {
	return fmt.Sprintf("transport %s: round %d: %v", e.Transport, e.Round, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }
