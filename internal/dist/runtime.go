package dist

import (
	"errors"
	"fmt"
	"slices"

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
// it knows is transport.Records, the wire format's unit, held by
// pointer: records are immutable once built, so a ball, a batch and a
// forward all share one record and never copy it. Each check seeds one
// record per node, its node's self, and in process every ball that
// learns the node, on any shard, points at that self; over TCP a ball
// points into the slab its frame was decoded into. A check's pointers
// stay valid until the next check's seed, which starts only after
// every shard of the check has decided (see node.self).
//
// An automaton is cold or warm. Cold, it floods full records and
// assembles its view from them (learn, assemble), building only what a
// verifier reads, as core's own views do: learn scans no edges, the
// ball instance holds the inner members' edges (every neighbour of a
// node at distance < r is in the ball), and the edges between two
// boundary members are added only when a verifier asks for one
// (completeRim). It assembles in its shard's arena, which every cold
// view of the shard reuses, one node after another: tables, graph,
// maps and the view itself, so a cold check allocates per shard, not
// per node, and a view lives only until its Verify returns. Once its
// shard has frozen (see Shard.Run), an automaton keeps the view its
// freezing check assembled in an arena of its own — the graph, labels
// and distances of a ball that no later check can change — and is
// warm: a check floods bare records (id and proof) and writes each
// first arrival's proof into the frozen view's table (mergeBare).
// Neither kind forwards what arrives in the last round: no round sends
// it.

// initialRecord builds node v's round-0 knowledge from the instance,
// except for the proof string, which changes between checks of a wired
// shard and is injected by node.seed. An undirected record's neighbours
// are v's CSR row itself, split where it passes v, with nothing copied;
// a directed record's are v's in-row then its out-row, appended onto
// nbrs. The record's edge inputs are appended onto inputs unless it is
// nil, as Records passes it for an instance without any. Each record
// takes the appended tail capped at its length, so Records builds
// every owned node's into one slab each.
func initialRecord(in *core.Instance, v int, nbrs []int, inputs []transport.EdgeInput) (transport.Record, []int, []transport.EdgeInput) {
	rec := transport.Record{ID: v}
	if l, ok := in.NodeLabel[v]; ok {
		rec.Label, rec.HasLabel = l, true
	}
	if in.G.Directed() {
		start := len(nbrs)
		nbrs = append(nbrs, in.G.InNeighbors(v)...)
		rec.Lo = int32(len(nbrs) - start)
		nbrs = append(nbrs, in.G.Neighbors(v)...)
		rec.Nbrs = nbrs[start:len(nbrs):len(nbrs)]
	} else {
		row := in.G.Neighbors(v)
		lo, _ := slices.BinarySearch(row, v)
		rec.Nbrs, rec.Lo = row[:len(row):len(row)], int32(lo)
	}
	if inputs == nil {
		return rec, nbrs, inputs
	}
	start := len(inputs)
	for i := range rec.Nbrs {
		// Edge inputs are keyed normalized (core.Instance): an arc
		// carries its reverse's label and weight.
		var x transport.EdgeInput
		key := graph.NormEdge(v, rec.Nbrs[i])
		x.Label, x.HasLabel = in.EdgeLabel[key]
		x.Weight, x.HasWeight = in.Weights[key]
		inputs = append(inputs, x)
	}
	rec.Inputs = inputs[start:len(inputs):len(inputs)]
	return rec, nbrs, inputs
}

// learned is one entry of an automaton's knowledge: a flooded record,
// shared with every other ball and batch that holds it, and the round
// it first arrived in (= its BFS distance). It is 16 bytes.
type learned struct {
	rec  *transport.Record
	dist int32
}

// errWarmth marks a run that failed on a record its automaton's warmth
// cannot take: the shards of the check disagree on warmth, or a peer
// sent what no frozen ball holds. The shard thaws (see Shard.Run).
var errWarmth = errors.New("warmth mismatch")

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
	// self is the node's record for the current check: base with the
	// check's proof string (seed), or, warm, the bare id and proof
	// (seedWarm). It is the one copy of the record in process: the
	// node's own ball and first batch, and every ball and batch on any
	// shard that learns the node, hold a pointer to it. Only the next
	// check's seed rewrites it, and that starts after every shard of
	// this check has returned: a group runs one check at a time, waits
	// for all of its shards, and is closed after a failed one.
	self transport.Record
	// ball is everything learned so far, in arrival order: the node's
	// own record, then each round's first arrivals.
	ball []learned
	// index maps id -> position in ball for a ball past smallBall
	// members; knows builds it on its first search there and brings it
	// up to date on every later one, so a ball that is never searched
	// (every radius-1 check's) gets none. A shard that built one keeps
	// the (cleared) map for its next check.
	index map[int]int32
	// cur is the batch to send this round (learned last round); next
	// accumulates this round's discoveries for the round after. The two
	// swap between rounds so message buffers are reused instead of
	// reallocated (safe because a round's batches are fully merged
	// before its Barrier returns). A radius-1 check sends only the
	// node's own record and forwards nothing, so until a check of a
	// larger radius needs next (Shard.batches), cur holds one pointer
	// and next none.
	cur, next transport.Batch
	// frozen is the automaton's ball once its shard has frozen, nil
	// while it is cold. Non-nil means warm: merges take bare records
	// only.
	frozen *frozenBall
}

// frozenBall is an automaton's ball kept across checks: the view its
// freezing check assembled in the ball's own arena, whose ball-sized
// proof table a warm check rewrites in place as the members' bare
// records arrive.
type frozenBall struct {
	// The fields a warm check reads for every arrival come first, next
	// to the arena's tables, so that they share the struct's first
	// cache lines.
	//
	// rank maps id -> rank once the ball has outgrown smallBall; nil
	// below that, where a scan of ids finds the rank.
	rank map[int]int32
	self int32 // the automaton's own rank
	// seen is the epoch of the warm check that last wrote each member,
	// so a check dedups arrivals without clearing anything; got counts
	// the members the current check has written.
	seen  []uint32
	got   int
	view  *core.View
	arena // ids, dist, bits and has by rank, and the view over them
}

// rankOf returns the rank of member id and whether id is a member.
func (fb *frozenBall) rankOf(id int) (int32, bool) {
	if fb.rank != nil {
		j, ok := fb.rank[id]
		return j, ok
	}
	for j, m := range fb.ids {
		if m == id {
			return int32(j), true
		}
	}
	return 0, false
}

// write stores the proof entry a bare record carries for the member of
// rank j, stamped with the current check's epoch.
func (fb *frozenBall) write(j int32, rec *transport.Record, epoch uint32) {
	fb.bits[j], fb.has[j] = rec.Proof, rec.HasProof
	fb.seen[j] = epoch
	fb.got++
}

// seed resets the automaton for a fresh check with the given proof: the
// node's self becomes its round-0 record carrying the proof string, the
// ball shrinks back to it, and the message buffers rewind without
// reallocating.
func (nd *node) seed(p core.Proof) {
	nd.self = *nd.base
	nd.self.Proof, nd.self.HasProof = p[nd.id]
	clear(nd.ball) // drop the last check's records for the GC
	nd.ball = append(nd.ball[:0], learned{rec: &nd.self})
	clear(nd.index)
	nd.cur = append(nd.cur[:0], &nd.self)
	nd.next = nd.next[:0]
}

// seedWarm starts a warm check of the frozen automaton: its self
// becomes its bare record, carrying its proof string, which is written
// into its ball and is the first round's batch.
func (nd *node) seedWarm(p core.Proof, epoch uint32) {
	nd.self = transport.Record{ID: nd.id, Bare: true}
	nd.self.Proof, nd.self.HasProof = p[nd.id]
	fb := nd.frozen
	fb.got = 0
	fb.write(fb.self, &nd.self, epoch)
	nd.cur = append(nd.cur[:0], &nd.self)
	nd.next = nd.next[:0]
}

// knows reports whether id's record has reached the automaton.
func (nd *node) knows(id int) bool {
	if len(nd.ball) <= smallBall {
		for i := range nd.ball {
			if nd.ball[i].rec.ID == id {
				return true
			}
		}
		return false
	}
	if nd.index == nil {
		nd.index = make(map[int]int32, 2*len(nd.ball))
	}
	for i := len(nd.index); i < len(nd.ball); i++ { // the members learned since the last search
		nd.index[nd.ball[i].rec.ID] = int32(i)
	}
	_, ok := nd.index[id]
	return ok
}

// merge folds one batch received in round (of radius) into the
// automaton: first arrivals are learned, duplicates (the same record
// racing in over several links) are dropped. Round 1 brings each
// neighbour's own record once, over the one link between them, so only
// later rounds search the ball for duplicates. A warm automaton merges
// through mergeBare. A bare record reaching a cold automaton means the
// shards disagree on warmth, and fails the check.
func (nd *node) merge(b transport.Batch, round, radius int, epoch uint32) error {
	if fb := nd.frozen; fb != nil {
		return nd.mergeBare(fb, b, round, radius, epoch)
	}
	for _, rec := range b {
		if rec.Bare {
			return fmt.Errorf("dist: node %d: bare record of node %d reached a cold automaton: %w", nd.id, rec.ID, errWarmth)
		}
		if round == 1 || !nd.knows(rec.ID) {
			nd.learn(rec, round, radius)
		}
	}
	return nil
}

// mergeBare folds one batch into a warm automaton: a member's first
// arrival writes its proof string at its rank and, before the last
// round, joins the next outgoing batch; duplicates are dropped. The
// ball is fixed, so every first arrival is a member arriving in the
// round of its frozen distance. Anything else — a full record, a node
// outside the ball, a member early or late — fails the check instead of
// changing a view.
func (nd *node) mergeBare(fb *frozenBall, b transport.Batch, round, radius int, epoch uint32) error {
	for _, rec := range b {
		if !rec.Bare {
			return fmt.Errorf("dist: node %d: full record of node %d reached a warm automaton: %w", nd.id, rec.ID, errWarmth)
		}
		j, ok := fb.rankOf(rec.ID)
		if !ok {
			return fmt.Errorf("dist: node %d: record of node %d, outside its frozen ball: %w", nd.id, rec.ID, errWarmth)
		}
		if fb.seen[j] == epoch {
			continue
		}
		if int(fb.dist[j]) != round {
			return fmt.Errorf("dist: node %d: record of node %d arrived in round %d, at frozen distance %d: %w", nd.id, rec.ID, round, fb.dist[j], errWarmth)
		}
		fb.write(j, rec, epoch)
		if round < radius {
			nd.next = append(nd.next, rec)
		}
	}
	return nil
}

// learn records a first arrival: a pointer to the record joins the
// ball and, before the last round, the next outgoing batch. It scans
// none of the record's edges: assemble reads the edges it needs once,
// at decide time.
func (nd *node) learn(rec *transport.Record, round, radius int) {
	nd.ball = append(nd.ball, learned{rec: rec, dist: int32(round)})
	if round < radius {
		nd.next = append(nd.next, rec)
	}
}

// arena is the storage a cold automaton's view is assembled in: the
// sorted member ids with their distances and proof entries, the ball's
// edge list and its two graphs (each rebuilt in place, sharing one fill
// scratch), the label and edge-input maps, the boundary members the
// view's completion reads, and the view itself, with its completion
// hook bound once. A Shard assembles every cold view of every check in
// its one arena, one node after another, so a cold check allocates per
// shard, not per node: each assembly re-points the one view, which is
// valid only during its Verify (core.Verifier). A view that freeze
// keeps is assembled in an arena of its own (frozenBall), which keeps
// it.
type arena struct {
	kind   graph.Kind
	radius int
	ids    []int // members ascending; a member's rank is its position
	dist   []int32
	bits   []bitstr.String
	has    []bool
	edges  []graph.Edge
	// g is the ball's graph as assemble builds it; rg, made on first
	// need, is the completed one. Completion builds rg, never g, whose
	// rows the verifier that asked for it may still hold; rg was last
	// read by an earlier view, whose Verify has returned.
	g       graph.Graph
	rg      *graph.Graph
	gs      graph.CSRScratch
	labels  map[int]string
	elabels map[graph.Edge]string
	weights map[graph.Edge]int64
	// rim is the boundary members' records, for completeRim. A cold
	// view's entries point at the flooded records, which outlive its
	// Verify; a frozen view's point into kept, the copies freeze makes
	// so that the view keeps none of the flooded records.
	rim      []*transport.Record
	kept     []transport.Record
	bv       core.BallView
	complete func(*core.Instance) // completeRim, bound on first need
	// frozen marks a frozen ball's arena, which assembles once: its
	// completion releases g and the assembly scratch.
	frozen bool
}

// reset sizes the arena's tables for a ball of n members, with no proof
// entries, labels, edge inputs or boundary members yet.
func (a *arena) reset(kind graph.Kind, radius, n int) {
	a.kind, a.radius = kind, radius
	a.ids = slices.Grow(a.ids[:0], n)[:n]
	a.dist = slices.Grow(a.dist[:0], n)[:n]
	a.bits = slices.Grow(a.bits[:0], n)[:n]
	a.has = slices.Grow(a.has[:0], n)[:n]
	clear(a.bits)
	clear(a.has)
	if len(a.labels) > 0 {
		clear(a.labels)
	}
	if len(a.elabels) > 0 {
		clear(a.elabels)
	}
	if len(a.weights) > 0 {
		clear(a.weights)
	}
	a.rim = a.rim[:0]
}

// addNodeLabel records a member's label in the ball instance, in the
// arena's label map.
func (a *arena) addNodeLabel(in *core.Instance, id int, label string) {
	if in.NodeLabel == nil {
		if a.labels == nil {
			a.labels = make(map[int]string)
		}
		in.NodeLabel = a.labels
	}
	in.NodeLabel[id] = label
}

// addEdgeInput records edge e's label and weight in the ball instance,
// keyed normalized as the instance keys them, in the arena's maps.
func (a *arena) addEdgeInput(in *core.Instance, e graph.Edge, x transport.EdgeInput) {
	key := graph.NormEdge(e.U, e.V)
	if x.HasLabel {
		if in.EdgeLabel == nil {
			if a.elabels == nil {
				a.elabels = make(map[graph.Edge]string)
			}
			in.EdgeLabel = a.elabels
		}
		in.EdgeLabel[key] = x.Label
	}
	if x.HasWeight {
		if in.Weights == nil {
			if a.weights == nil {
				a.weights = make(map[graph.Edge]int64)
			}
			in.Weights = a.weights
		}
		in.Weights[key] = x.Weight
	}
}

// assemble reconstructs the radius-r view from flooded knowledge, in
// the arena: the ball instance over the sorted member ids, with the
// node labels the records carry, and the view over it (core.BallView),
// the distances and proof strings aligned with the sorted members. Its
// graph holds the edges of the inner members' records (distance < r),
// with their labels and weights: every neighbour of an inner member is
// in the ball, so no membership test is needed, and an edge between two
// inner members is taken from its lower endpoint's record only. The
// edges between two boundary members are left to the view's completion
// hook (completeRim), which reads the boundary members' records through
// the arena's rim. Beyond the records, assemble uses only
// what every node knows a priori: the graph kind and the global input.
// The view is valid until the arena's next assembly.
func (nd *node) assemble(a *arena, kind graph.Kind, global core.Global, radius int) *core.View {
	a.reset(kind, radius, len(nd.ball))
	ids := a.ids
	for i := range nd.ball {
		ids[i] = nd.ball[i].rec.ID
	}
	slices.Sort(ids)

	ball := core.Instance{Global: global}
	inner := len(nd.ball) // the ball is in arrival order: the boundary is its tail
	for i := range nd.ball {
		l := &nd.ball[i]
		j, _ := slices.BinarySearch(ids, l.rec.ID)
		a.dist[j] = l.dist
		if int(l.dist) >= radius && inner == len(nd.ball) {
			inner = i
		}
		if l.rec.HasProof {
			a.bits[j], a.has[j] = l.rec.Proof, true
		}
		if l.rec.HasLabel {
			a.addNodeLabel(&ball, l.rec.ID, l.rec.Label)
		}
	}

	edges := a.edges[:0]
	for i := range inner {
		l := &nd.ball[i]
		rec := l.rec
		for j, o := range rec.Nbrs {
			// A lower endpoint that is also inner reports this edge
			// itself. Only a member one round short of the boundary
			// can have a boundary neighbour, and with one inner member
			// there is no other to report it.
			if o < rec.ID && inner > 1 {
				if int(l.dist) < radius-1 {
					continue
				}
				if k, _ := slices.BinarySearch(ids, o); int(a.dist[k]) < radius {
					continue
				}
			}
			e := rec.Edge(j)
			edges = append(edges, e)
			if rec.Inputs != nil {
				a.addEdgeInput(&ball, e, rec.Inputs[j])
			}
		}
	}
	a.edges = edges
	a.g.ResetParts(kind, ids, edges, &a.gs)
	ball.G = &a.g

	var complete func(*core.Instance) // none for a boundary of fewer than two members
	if rim := nd.ball[inner:]; len(rim) >= 2 {
		a.rim = slices.Grow(a.rim, len(rim))
		for i := range rim {
			a.rim = append(a.rim, rim[i].rec)
		}
		if a.complete == nil {
			a.complete = a.completeRim
		}
		complete = a.complete
	}
	return a.bv.View(ball, nd.id, radius, a.dist, a.bits, a.has, complete)
}

// completeRim adds to the ball instance the arena assembled from its
// inner members' records the edges between two members of its boundary
// rim (those at distance radius), each taken from its lower endpoint's
// record, with their labels and weights, building the completed graph
// in rg: the view's completion hook (core.BallView).
func (a *arena) completeRim(in *core.Instance) {
	g := &a.g
	edges := g.AppendEdges(a.edges[:0])
	for _, m := range a.rim {
		for j, o := range m.Nbrs {
			if o < m.ID {
				continue
			}
			if k, ok := g.Lookup(o); !ok || int(a.dist[k]) != a.radius {
				continue
			}
			e := m.Edge(j)
			edges = append(edges, e)
			if m.Inputs != nil {
				a.addEdgeInput(in, e, m.Inputs[j])
			}
		}
	}
	a.edges = edges
	if a.rg == nil {
		a.rg = new(graph.Graph)
	}
	a.rg.ResetParts(a.kind, a.ids, edges, &a.gs)
	in.G = a.rg
	if a.frozen {
		a.g, a.edges, a.gs = graph.Graph{}, nil, graph.CSRScratch{}
	}
}

// freeze makes the view a cold check assembled in fb's own arena the
// automaton's frozen ball. The ball keeps its tables, not its assembly
// scratch, and a completion later keeps only the completed graph. A
// ball past smallBall members gets a rank index (the search index, if
// the check built one, rewritten), and the flooded records are released
// with their buffers: a warm automaton needs none of them, and the
// view's completion reads only the arena's copies of its boundary
// members' records: their ids and edges, not their proofs or labels.
// A copy shares its record's neighbours and edge inputs, as every
// holder of a record does: in process, the instance's CSR rows.
func (nd *node) freeze(fb *frozenBall, w *core.View) {
	fb.view, fb.seen = w, make([]uint32, len(fb.ids))
	fb.edges, fb.gs, fb.frozen = nil, graph.CSRScratch{}, true
	if len(fb.rim) > 0 {
		fb.kept = make([]transport.Record, len(fb.rim))
		for i, r := range fb.rim {
			fb.kept[i] = transport.Record{ID: r.ID, Nbrs: r.Nbrs, Inputs: r.Inputs, Lo: r.Lo}
			fb.rim[i] = &fb.kept[i]
		}
	}
	if len(fb.ids) > smallBall {
		fb.rank = nd.index
		if fb.rank == nil {
			fb.rank = make(map[int]int32, len(fb.ids))
		}
	}
	for j, id := range fb.ids {
		if fb.rank != nil {
			fb.rank[id] = int32(j)
		}
		if id == nd.id {
			fb.self = int32(j)
		}
	}
	nd.index, nd.ball = nil, nil
	nd.frozen = fb
}

// decide runs the verifier on one node's view, converting a verifier
// panic into an error instead of killing the process. A warm automaton
// decides on its frozen view, once its flood has written every member;
// a cold one assembles its view in the shard's arena a, or, when
// freeze is set, in a frozen ball's own arena, which it keeps.
func decide(nd *node, a *arena, kind graph.Kind, global core.Global, radius int, v core.Verifier, freeze bool) (ok bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("dist: verifier panicked at node %d: %v", nd.id, r)
		}
	}()
	if fb := nd.frozen; fb != nil {
		if fb.got != len(fb.ids) {
			return false, fmt.Errorf("dist: node %d: warm flood reached %d of its %d ball members: %w", nd.id, fb.got, len(fb.ids), errWarmth)
		}
		return v.Verify(fb.view), nil
	}
	if !freeze {
		return v.Verify(nd.assemble(a, kind, global, radius)), nil
	}
	fb := &frozenBall{}
	w := nd.assemble(&fb.arena, kind, global, radius)
	nd.freeze(fb, w)
	return v.Verify(w), nil
}
