package dist

import (
	"errors"
	"fmt"
	"slices"
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
//
// An automaton is cold or warm. Cold, it floods full records and
// assembles its view from them (learn, assemble), building only what a
// verifier reads, as core's own views do: learn scans no edges, the
// ball instance holds the inner members' edges (every neighbour of a
// node at distance < r is in the ball), and the edges between two
// boundary members are added only when a verifier asks for one
// (completeRim). Once its shard has frozen (see Shard.Run), it keeps
// that view — the graph, labels and distances of a ball that no later
// check can change — and is warm: a check floods bare records (id and
// proof) and writes each first arrival's proof into the frozen view's
// table (mergeBare). Neither kind forwards what arrives in the last
// round: no round sends it.

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
	// larger radius needs next (Shard.batches), cur holds one record
	// and next none.
	cur, next transport.Batch
	// frozen is the automaton's ball once its shard has frozen, nil
	// while it is cold. Non-nil means warm: merges take bare records
	// only.
	frozen *frozenBall
}

// frozenBall is an automaton's ball kept across checks: the view its
// freezing check assembled, whose ball-sized proof table a warm check
// rewrites in place as the members' bare records arrive.
type frozenBall struct {
	view *core.View
	ids  []int // members ascending; a member's rank is its position
	// rank maps id -> rank once the ball has outgrown smallBall; nil
	// below that, where a scan of ids finds the rank.
	rank map[int]int32
	self int32   // the automaton's own rank
	dist []int32 // each member's distance, by rank
	bits []bitstr.String
	has  []bool
	// seen is the epoch of the warm check that last wrote each member,
	// so a check dedups arrivals without clearing anything; got counts
	// the members the current check has written.
	seen []uint32
	got  int
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
// ball shrinks back to the node's own record (now carrying its proof
// string) and the message buffers rewind without reallocating.
func (nd *node) seed(p core.Proof) {
	rec := *nd.base
	rec.Proof, rec.HasProof = p[nd.id]
	clear(nd.ball) // drop the last check's records for the GC
	nd.ball = append(nd.ball[:0], learned{rec: rec})
	clear(nd.index)
	nd.cur = append(nd.cur[:0], rec)
	nd.next = nd.next[:0]
}

// seedWarm starts a warm check of the frozen automaton: its own bare
// record, carrying its proof string, is written into its ball and is
// the first round's batch.
func (nd *node) seedWarm(p core.Proof, epoch uint32) {
	rec := transport.Record{ID: nd.id, Bare: true}
	rec.Proof, rec.HasProof = p[nd.id]
	fb := nd.frozen
	fb.got = 0
	fb.write(fb.self, &rec, epoch)
	nd.cur = append(nd.cur[:0], rec)
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
	for i := range b {
		rec := &b[i]
		if rec.Bare {
			return fmt.Errorf("dist: node %d: bare record of node %d reached a cold automaton: %w", nd.id, rec.ID, errWarmth)
		}
		if round == 1 || !nd.knows(rec.ID) {
			nd.learn(*rec, round, radius)
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
	for i := range b {
		rec := &b[i]
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
			nd.next = append(nd.next, *rec)
		}
	}
	return nil
}

// learn records a first arrival: the record joins the ball and, before
// the last round, the next outgoing batch. It scans none of the
// record's edges: assemble reads the edges it needs once, at decide
// time.
func (nd *node) learn(rec transport.Record, round, radius int) {
	nd.ball = append(nd.ball, learned{rec: rec, dist: round})
	if round < radius {
		nd.next = append(nd.next, rec)
	}
}

// assemble reconstructs the radius-r view from flooded knowledge: the
// ball instance over the sorted member ids, with the node labels the
// records carry, and the view over it with core.BallView, the
// distances and proof strings aligned with the sorted members. Its
// graph holds the edges of the inner members' records (distance < r),
// with their labels and weights: every neighbour of an inner member is
// in the ball, so no membership test is needed, and an edge between two
// inner members is taken from its lower endpoint's record only. The
// edges between two boundary members are left to the view's completion
// hook (completeRim), which reads the boundary members' records in
// place at the tail of the ball: they stay unchanged until the next
// check reseeds it. A view that freeze will keep (keep set) outlives
// that, so its hook reads copies of their ids and edge lists instead.
// Beyond the records, assemble uses only what every node knows a
// priori: the graph kind and the global input. scratch is the caller's
// reusable edge buffer: FromParts sorts it in place and keeps none of
// it. The view returns with its tables, which freeze keeps.
func (nd *node) assemble(kind graph.Kind, global core.Global, radius int, keep bool, scratch *[]graph.Edge) (*core.View, []int32, []bitstr.String, []bool) {
	ids := make([]int, len(nd.ball))
	for i := range nd.ball {
		ids[i] = nd.ball[i].rec.ID
	}
	sort.Ints(ids)

	ball := core.Instance{Global: global}
	dist := make([]int32, len(ids))
	bits := make([]bitstr.String, len(ids))
	has := make([]bool, len(ids))
	inner := len(nd.ball) // the ball is in arrival order: the boundary is its tail
	for i := range nd.ball {
		l := &nd.ball[i]
		j, _ := slices.BinarySearch(ids, l.rec.ID)
		dist[j] = int32(l.dist)
		if l.dist >= radius && inner == len(nd.ball) {
			inner = i
		}
		if l.rec.HasProof {
			bits[j], has[j] = l.rec.Proof, true
		}
		if l.rec.HasLabel {
			if ball.NodeLabel == nil {
				ball.NodeLabel = make(map[int]string)
			}
			ball.NodeLabel[l.rec.ID] = l.rec.Label
		}
	}

	edges := (*scratch)[:0]
	for i := range inner {
		l := &nd.ball[i]
		for _, er := range l.rec.Edges {
			// A lower endpoint that is also inner reports this edge
			// itself. Only a member one round short of the boundary
			// can have a boundary neighbour, and with one inner member
			// there is no other to report it.
			if o := er.E.U + er.E.V - l.rec.ID; o < l.rec.ID && inner > 1 {
				if l.dist < radius-1 {
					continue
				}
				if k, _ := slices.BinarySearch(ids, o); int(dist[k]) < radius {
					continue
				}
			}
			edges = append(edges, er.E)
			addEdgeInput(&ball, er)
		}
	}
	*scratch = edges
	ball.G = graph.FromParts(kind, ids, edges)

	var complete func(*core.Instance) // none for a boundary of fewer than two members
	switch rim := nd.ball[inner:len(nd.ball):len(nd.ball)]; {
	case len(rim) < 2:
	case keep:
		kept := make([]keptMember, len(rim))
		for i := range rim {
			kept[i] = keptMember{rim[i].rec.ID, rim[i].rec.Edges}
		}
		complete = func(in *core.Instance) { completeRim(in, kind, radius, dist, kept) }
	default:
		complete = func(in *core.Instance) { completeRim(in, kind, radius, dist, rim) }
	}
	return core.BallView(ball, nd.id, radius, dist, bits, has, complete), dist, bits, has
}

// addEdgeInput records an edge record's label and weight in the ball
// instance, keyed normalized as the instance keys them.
func addEdgeInput(in *core.Instance, er transport.EdgeRec) {
	key := graph.NormEdge(er.E.U, er.E.V)
	if er.HasLabel {
		if in.EdgeLabel == nil {
			in.EdgeLabel = make(map[graph.Edge]string)
		}
		in.EdgeLabel[key] = er.Label
	}
	if er.HasWeight {
		if in.Weights == nil {
			in.Weights = make(map[graph.Edge]int64)
		}
		in.Weights[key] = er.Weight
	}
}

// keptMember is what a frozen view keeps of a boundary member's record
// for its completion: the id and the edge list.
type keptMember struct {
	id    int
	edges []transport.EdgeRec
}

// rimMember is a boundary member as completeRim reads it: its record in
// place (learned), or what a frozen view keeps of it (keptMember).
type rimMember interface {
	member() (id int, edges []transport.EdgeRec)
}

func (k keptMember) member() (int, []transport.EdgeRec) { return k.id, k.edges }

func (l learned) member() (int, []transport.EdgeRec) { return l.rec.ID, l.rec.Edges }

// completeRim adds to a ball instance built from its inner members'
// records the edges between two members of its boundary rim (those at
// distance radius; dist is by rank), each taken from its lower
// endpoint's record, with their labels and weights: a ball view's
// completion hook (core.BallView).
func completeRim[M rimMember](in *core.Instance, kind graph.Kind, radius int, dist []int32, rim []M) {
	g := in.G
	edges := g.Edges()
	for _, m := range rim {
		id, ers := m.member()
		for _, er := range ers {
			o := er.E.U + er.E.V - id
			if o < id {
				continue
			}
			if j, ok := g.Lookup(o); !ok || int(dist[j]) != radius {
				continue
			}
			edges = append(edges, er.E)
			addEdgeInput(in, er)
		}
	}
	in.G = graph.FromParts(kind, g.Nodes(), edges)
}

// freeze keeps the view a cold check assembled, with its tables, as the
// automaton's frozen ball. A ball past smallBall members gets a rank
// index (the search index, if the check built one, rewritten), and the
// flooded records are released with their buffers: a warm automaton
// needs none of them, and the view's completion keeps only its boundary
// members' ids and edge lists (assemble).
func (nd *node) freeze(w *core.View, dist []int32, bits []bitstr.String, has []bool) {
	fb := &frozenBall{view: w, ids: w.Nodes(), dist: dist, bits: bits, has: has, seen: make([]uint32, len(dist))}
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
// a cold one assembles its view, and keeps it when freeze is set.
func decide(nd *node, kind graph.Kind, global core.Global, radius int, v core.Verifier, freeze bool, scratch *[]graph.Edge) (ok bool, err error) {
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
	w, dist, bits, has := nd.assemble(kind, global, radius, freeze, scratch)
	if freeze {
		nd.freeze(w, dist, bits, has)
	}
	return v.Verify(w), nil
}
