package dist

import (
	"fmt"
	"sort"

	"lcp/internal/bitstr"
	"lcp/internal/core"
	"lcp/internal/graph"
	"lcp/internal/transport"
)

// The node automata: round-synchronized flooding that assembles each
// node's radius-r view incrementally. Nothing in this file calls
// core.BuildView — views are reconstructed purely from what arrived
// over the links (plus the globally known input, which the model hands
// to every node up front). Shard.Run steps a shard's automata through
// the rounds; this file holds what one automaton knows and does. What
// it knows is transport.Records, the wire format's unit, so handing a
// batch to a Transport needs no conversion or copy; records are
// immutable once built, so forwarding shares them freely across links.

// initialRecord builds node v's round-0 knowledge from the instance,
// except for the proof string, which changes between checks of a wired
// shard and is injected by node.seed. The edge records are appended
// onto buf, and the record's Edges is the appended tail capped at its
// length, so Records builds every owned node's edges into one slab.
func initialRecord(in *core.Instance, v int, buf []transport.EdgeRec) (transport.Record, []transport.EdgeRec) {
	start := len(buf)
	rec := transport.Record{ID: v}
	if l, ok := in.NodeLabel[v]; ok {
		rec.Label, rec.HasLabel = l, true
	}
	addEdge := func(e graph.Edge) {
		er := transport.EdgeRec{E: e}
		// Edge inputs are keyed normalized (core.Instance): an arc
		// carries its reverse's label and weight.
		key := graph.NormEdge(e.U, e.V)
		if l, ok := in.EdgeLabel[key]; ok {
			er.Label, er.HasLabel = l, true
		}
		if w, ok := in.Weights[key]; ok {
			er.Weight, er.HasWeight = w, true
		}
		buf = append(buf, er)
	}
	if in.G.Directed() {
		for _, w := range in.G.Neighbors(v) {
			addEdge(graph.Edge{U: v, V: w})
		}
		for _, w := range in.G.InNeighbors(v) {
			addEdge(graph.Edge{U: w, V: v})
		}
	} else {
		for _, w := range in.G.Neighbors(v) {
			addEdge(graph.NormEdge(v, w))
		}
	}
	rec.Edges = buf[start:len(buf):len(buf)]
	return rec, buf
}

// learned is one entry of an automaton's knowledge: a flooded record
// and the round it first arrived in (= its BFS distance).
type learned struct {
	rec  transport.Record
	dist int
}

// smallBall is the ball size up to which membership is a linear scan
// of node.ball; larger balls get a hash index. Radius-1 balls of
// bounded-degree graphs never need one, so their automata allocate no
// map at all.
const smallBall = 16

// node is the per-automaton state, one entry of a shard's work list.
type node struct {
	id    int
	base  *transport.Record // round-0 knowledge; its proof is ignored (each check seeds its own)
	local []*node           // same-shard neighbours, merged into directly
	// ball is everything learned so far, in arrival order: the node's
	// own record, then each round's first arrivals.
	ball []learned
	// index maps id -> position in ball once the ball has outgrown
	// smallBall; nil until then. A shard that saw a large ball keeps
	// the (cleared) map for its next check.
	index map[int]int32
	// indEdges accumulates the ball's induced edges incrementally: an
	// edge is appended exactly once, the moment the record of its second
	// endpoint merges (both endpoints report every incident edge, so the
	// later arrival finds the earlier one in the ball). assemble
	// therefore never rescans the ball for edges.
	indEdges []transport.EdgeRec
	// cur is the batch to send this round (learned last round); next
	// accumulates this round's discoveries. The two swap every round so
	// message buffers are reused instead of reallocated (safe because a
	// round's batches are fully merged before its Barrier returns).
	cur, next transport.Batch
}

// seed resets the automaton for a fresh check with the given proof: the
// ball shrinks back to the node's own record (now carrying its proof
// string) and the message buffers rewind without reallocating.
func (nd *node) seed(p core.Proof) {
	rec := *nd.base
	rec.Proof, rec.HasProof = p[nd.id]
	clear(nd.ball) // drop the last check's records for the GC
	nd.ball = append(nd.ball[:0], learned{rec: rec})
	if nd.index != nil {
		clear(nd.index)
		nd.index[nd.id] = 0
	}
	nd.indEdges = nd.indEdges[:0]
	nd.cur = append(nd.cur[:0], rec)
	nd.next = nd.next[:0]
}

// knows reports whether id's record has reached the automaton.
func (nd *node) knows(id int) bool {
	if nd.index != nil {
		_, ok := nd.index[id]
		return ok
	}
	for i := range nd.ball {
		if nd.ball[i].rec.ID == id {
			return true
		}
	}
	return false
}

// merge folds one received batch into the automaton: first arrivals are
// learned, duplicates (the same record racing in over several links)
// are dropped.
func (nd *node) merge(b transport.Batch, round int) {
	for _, rec := range b {
		if !nd.knows(rec.ID) {
			nd.learn(rec, round)
		}
	}
}

// learn records a first arrival: the record joins the ball and the next
// outgoing batch, and every incident edge whose other endpoint is
// already known joins the induced edge list. Each induced edge is
// reported by both endpoints and arrivals are sequential per automaton,
// so exactly the second endpoint's merge appends it — no dedupe map.
func (nd *node) learn(rec transport.Record, round int) {
	nd.ball = append(nd.ball, learned{rec: rec, dist: round})
	switch {
	case nd.index != nil:
		nd.index[rec.ID] = int32(len(nd.ball) - 1)
	case len(nd.ball) > smallBall:
		nd.index = make(map[int]int32, 2*len(nd.ball))
		for i := range nd.ball {
			nd.index[nd.ball[i].rec.ID] = int32(i)
		}
	}
	nd.next = append(nd.next, rec)
	for _, er := range rec.Edges {
		other := er.E.U + er.E.V - rec.ID
		if other != rec.ID && nd.knows(other) {
			nd.indEdges = append(nd.indEdges, er)
		}
	}
}

// assemble reconstructs the radius-r view from flooded knowledge: it
// builds the ball instance — the ball graph, frozen through
// graph.FromParts from the sorted id list plus the incrementally
// collected induced edges, with the labels and weights the records
// carry — and the view over it with core.BallView, the distances and
// proof strings aligned with the ball's sorted members. Beyond the
// records, it uses only what every node knows a priori: the graph kind
// and the global input. scratch is the caller's reusable edge buffer:
// FromParts sorts it in place and keeps none of it.
func (nd *node) assemble(kind graph.Kind, global core.Global, radius int, scratch *[]graph.Edge) *core.View {
	ids := make([]int, len(nd.ball))
	for i := range nd.ball {
		ids[i] = nd.ball[i].rec.ID
	}
	sort.Ints(ids)

	edges := (*scratch)[:0]
	for _, er := range nd.indEdges {
		edges = append(edges, er.E)
	}
	*scratch = edges

	ball := core.Instance{G: graph.FromParts(kind, ids, edges), Global: global}
	dist := make([]int32, len(ids))
	bits := make([]bitstr.String, len(ids))
	has := make([]bool, len(ids))
	for i := range nd.ball {
		rec := &nd.ball[i].rec
		j := ball.G.Index(rec.ID)
		dist[j] = int32(nd.ball[i].dist)
		if rec.HasProof {
			bits[j], has[j] = rec.Proof, true
		}
		if rec.HasLabel {
			if ball.NodeLabel == nil {
				ball.NodeLabel = make(map[int]string)
			}
			ball.NodeLabel[rec.ID] = rec.Label
		}
	}
	for _, er := range nd.indEdges {
		key := graph.NormEdge(er.E.U, er.E.V) // as the instance keys it
		if er.HasLabel {
			if ball.EdgeLabel == nil {
				ball.EdgeLabel = make(map[graph.Edge]string)
			}
			ball.EdgeLabel[key] = er.Label
		}
		if er.HasWeight {
			if ball.Weights == nil {
				ball.Weights = make(map[graph.Edge]int64)
			}
			ball.Weights[key] = er.Weight
		}
	}
	return core.BallView(ball, nd.id, radius, dist, bits, has)
}

// decide assembles one node's view and runs the verifier, converting a
// verifier panic into an error instead of killing the process.
func decide(nd *node, kind graph.Kind, global core.Global, radius int, v core.Verifier, scratch *[]graph.Edge) (ok bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("dist: verifier panicked at node %d: %v", nd.id, r)
		}
	}()
	return v.Verify(nd.assemble(kind, global, radius, scratch)), nil
}
