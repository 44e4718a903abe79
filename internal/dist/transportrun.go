package dist

// The round runner: the one implementation of the LOCAL round in the
// repository. A Shard is a slice of an instance's node automata, wired
// once by NewShard and run once per check by Shard.Run; the cut edges
// to other shards sit behind the transport.Transport interface. Every
// distributed backend is this runner: Network runs one goroutine per
// shard over a transport.InProc group, and the multi-process
// coordinator's workers run their shard over TCP.
//
// A round has four phases, mapped onto the interface as:
//
//	phase 1 (freeze + send cur)   -> Send per cut edge, then Exchange
//	phase 2 (rewind next)         -> after Exchange returns
//	phase 3 (merge local + recv)  -> direct merges + the deliveries
//	phase 4 (swap + barrier)      -> swap cur/next, then Barrier
//
// Within a round every automaton's outgoing batch (cur) is frozen
// before any delivery happens, so a merge can never leak round-r
// knowledge into a round-r send — which is what keeps every view, and
// hence every verdict, identical to core.Check. Exchange is the
// delivery synchronization (all round-r traffic handed over) and
// Barrier the reuse synchronization (all round-r merges done, so
// rewinding buffers in round r+1 is safe). The in-process transport
// implements both as group gates; TCP copies at staging time and
// message-counts, so its Barrier is free.

import (
	"context"
	"fmt"
	"slices"
	"time"

	"lcp/internal/core"
	"lcp/internal/graph"
	"lcp/internal/transport"
)

// ShardPlan describes one shard's slice of a partitioned instance: the
// instance it can see, the nodes it runs automata for, and the
// node→shard assignment that routes its cut edges.
type ShardPlan struct {
	// In is the instance the owned nodes' round-0 records are read from
	// (Records): it must contain every owned node with all of its
	// incident edges. In process it is simply the full instance; only
	// its graph kind and Global reach the wired shard.
	In *core.Instance
	// Owned lists the node ids this shard runs automata (and decides)
	// for.
	Owned []int
	// Assign maps node id -> owning shard, covering at least Owned and
	// every neighbor of an owned node.
	Assign map[int]int
}

// remoteLink is one cut edge of the plan: after each round, from's cur
// batch is staged for the neighbor dst on the owning peer shard.
type remoteLink struct {
	from *node
	peer int
	dst  int
}

// Shard is one shard's automata, wired once from its owned nodes'
// round-0 records and reused by every check: the node automata, the
// same-shard direct-merge links, and the cut-edge links routed by the
// assignment. A check only seeds, floods, and decides — seeding
// rewinds each automaton's ball and batch buffers in place, so a
// long-lived shard (a worker's registered instance, a Network's
// wiring) stops paying for wiring and map growth on every check.
//
// A shard is cold, then warm. Its first check at a radius floods full
// records and assembles every view from them; its second consecutive
// check at that radius does the same and freezes: every automaton keeps
// its view. From then on checks at that radius are warm: they flood
// bare records (id and proof) for the same rounds and write each proof
// into the frozen views, so a check moves and writes only proof
// strings. A check at another radius thaws the shard and runs cold. A
// one-shot shard (CheckWithCtx, Collect, RunShard) runs once and never
// freezes.
//
// A Shard is not safe for concurrent runs; callers serialize them. It
// keeps the previous check's flooded knowledge until the next check
// rewinds it. Every shard of a check must be equally warm, which holds
// while they run the same checks and none fails alone. Every failed run
// thaws its shard, back to a fresh shard, so shards that ended one run
// differently (some succeeded, some failed) fail at most one further
// run on the records they exchange (a bare record reaching a cold
// automaton, a full one a warm automaton), which thaws them all; they
// never decide on the wrong records. Network drops a wiring whose run
// failed, and a dist-tcp worker drops the registration, so neither ever
// runs a group that could disagree.
type Shard struct {
	kind    graph.Kind  // beyond the records, all a node knows up front:
	global  core.Global // the graph kind and the global input
	me      int
	owned   []int
	nodes   []node // in owned order
	byID    map[int]*node
	remotes []remoteLink // grouped by sender, so a node's batch to one peer stages back to back
	peers   []int        // shards sharing a cut edge with this one, ascending
	links   int          // directed same-shard merge links

	// Warmth: ran reports that the shard has run at radius, so the next
	// cold run there freezes; warm, that every automaton holds a frozen
	// ball for radius. epoch numbers the warm runs, stamping their
	// arrivals.
	radius int
	ran    bool
	warm   bool
	epoch  uint32
	// batched reports that every automaton's cur and next have room for
	// a round's batch (batches): set by the first run of radius > 1.
	batched bool
	// arena is where every cold view is assembled, one node after
	// another: its buffers grow to the shard's largest ball and are kept
	// across checks.
	arena arena
}

// Records returns the round-0 records of the plan's owned nodes, in
// Owned order and without proofs: what NewShard wires in process, and
// what the dist-tcp coordinator registers a worker with. Every owned
// node must be a node of In, as in every plan PlanShards makes. An
// undirected record's neighbours alias the instance's CSR row; the
// directed records' neighbours, and the edge inputs of an instance
// that has any, are built into one slab each.
func (plan ShardPlan) Records() []transport.Record {
	in, edges := plan.In, 0
	directed, inputs := in.G.Directed(), len(in.EdgeLabel) > 0 || len(in.Weights) > 0
	if directed || inputs {
		for _, id := range plan.Owned {
			edges += len(in.G.Neighbors(id))
			if directed {
				edges += len(in.G.InNeighbors(id))
			}
		}
	}
	var nbrs []int
	if directed {
		nbrs = make([]int, 0, edges)
	}
	var xs []transport.EdgeInput
	if inputs {
		xs = make([]transport.EdgeInput, 0, edges)
	}
	recs := make([]transport.Record, len(plan.Owned))
	for i, id := range plan.Owned {
		recs[i], nbrs, xs = initialRecord(in, id, nbrs, xs)
	}
	return recs
}

// NewShard wires shard me of the plan from its Records, as a dist-tcp
// worker wires the records it was registered with. It fails when an
// owned node is absent from the plan's instance, or as WireRecords does.
func NewShard(plan ShardPlan, me int) (*Shard, error) {
	for _, id := range plan.Owned {
		if !plan.In.G.Has(id) {
			return nil, fmt.Errorf("dist: shard %d owns node %d, absent from its instance", me, id)
		}
	}
	return WireRecords(me, plan.In.G.Kind(), plan.In.Global, plan.Records(), plan.Assign)
}

// WireRecords wires shard me from the round-0 records of the nodes it
// owns, in the order Run reports their verdicts; it keeps the records
// and ignores their proofs. A node's neighbours are its record's Nbrs,
// ascending and each once, each routed by assign: a direct-merge link
// when assigned to me, a cut-edge link otherwise. Wiring fails, before
// any check, on a duplicate record, an edge that is not its node's (a
// split outside the neighbour list, a loop, or an unnormalized
// undirected edge), edge inputs not aligned with the neighbours, a
// neighbour with no assignment, or one assigned to me but not owned.
// The automata, their first buffers and their links come from a few
// slabs, each made once at its final size (the links are routed and
// counted in a first pass before they are cut), and the peers are
// deduplicated as they are found: a constant number of allocations per
// shard, not per node or per link.
func WireRecords(me int, kind graph.Kind, global core.Global, recs []transport.Record, assign map[int]int) (*Shard, error) {
	s := &Shard{
		kind:   kind,
		global: global,
		me:     me,
		owned:  make([]int, len(recs)),
		nodes:  make([]node, len(recs)),
		byID:   make(map[int]*node, len(recs)),
	}
	// Each automaton's buffers start in slabs sized for a radius-1
	// check: a ball of degree+1 entries (up to smallBall+1; a larger
	// ball grows past it) and a first-round batch of one pointer, to
	// the node's own record. Later rounds' batches get their slab from
	// the first run that floods them (batches).
	edges, balls := 0, 0
	for i := range recs {
		d := len(recs[i].Nbrs)
		edges, balls = edges+d, balls+min(d+1, smallBall+1)
	}
	ballSlab := make([]learned, 0, balls)
	own := make(transport.Batch, 0, len(recs))
	for i := range recs {
		rec, nd := &recs[i], &s.nodes[i]
		if s.byID[rec.ID] != nil {
			return nil, fmt.Errorf("dist: shard %d: duplicate record for node %d", me, rec.ID)
		}
		s.owned[i], s.byID[rec.ID] = rec.ID, nd
		nd.id, nd.base = rec.ID, rec
		nd.ball, ballSlab = carve(ballSlab, min(len(rec.Nbrs)+1, smallBall+1))
		nd.cur, own = carve(own, 1)
	}
	// Wire after every automaton exists: same-shard neighbours get
	// direct-merge links, cut edges get remote links routed by the
	// assignment. The first pass routes every node's neighbours into
	// one slab, counting the links, so that the second makes each link
	// slab at its final size.
	type route struct{ peer, dst int }
	routes := make([]route, 0, edges)
	ends := make([]int, len(s.nodes)) // node i's routes end at routes[ends[i]]
	var nbs []int
	nlocal := 0
	for i := range s.nodes {
		nd := &s.nodes[i]
		rec := nd.base
		if rec.Lo < 0 || int(rec.Lo) > len(rec.Nbrs) {
			return nil, fmt.Errorf("dist: shard %d: split %d outside %d neighbours: not an edge of node %d", me, rec.Lo, len(rec.Nbrs), nd.id)
		}
		if rec.Inputs != nil && len(rec.Inputs) != len(rec.Nbrs) {
			return nil, fmt.Errorf("dist: shard %d: node %d has %d edge inputs for %d edges", me, nd.id, len(rec.Inputs), len(rec.Nbrs))
		}
		nbs = nbs[:0]
		for j, w := range rec.Nbrs {
			if e := rec.Edge(j); e.U == e.V || kind != graph.Directed && e.U > e.V {
				return nil, fmt.Errorf("dist: shard %d: edge %v is not an edge of node %d", me, e, nd.id)
			}
			nbs = append(nbs, w)
		}
		slices.Sort(nbs)
		for _, w := range slices.Compact(nbs) {
			owner, ok := assign[w]
			if !ok {
				return nil, fmt.Errorf("dist: shard %d: neighbor %d of node %d has no shard assignment", me, w, nd.id)
			}
			if owner == me {
				nlocal++
			}
			routes = append(routes, route{owner, w})
		}
		ends[i] = len(routes)
	}
	locals := make([]*node, 0, nlocal)
	s.remotes = make([]remoteLink, 0, len(routes)-nlocal)
	start := 0
	for i := range s.nodes {
		nd := &s.nodes[i]
		first := len(locals)
		for _, r := range routes[start:ends[i]] {
			if r.peer == me {
				nb := s.byID[r.dst]
				if nb == nil {
					return nil, fmt.Errorf("dist: shard %d: node %d assigned here but not owned", me, r.dst)
				}
				locals = append(locals, nb)
				continue
			}
			s.remotes = append(s.remotes, remoteLink{from: nd, peer: r.peer, dst: r.dst})
			if !slices.Contains(s.peers, r.peer) {
				s.peers = append(s.peers, r.peer)
			}
		}
		nd.local = locals[first:len(locals):len(locals)]
		start = ends[i]
	}
	s.links = len(locals)
	slices.Sort(s.peers)
	return s, nil
}

// batches gives every automaton a cur and a next of degree+1 record
// pointers each, from one slab, once: a run of radius > 1 forwards up
// to a node's degree+1 records per round (more in later rounds, which
// grow past it), where a radius-1 run sends only the node's own record.
func (s *Shard) batches() {
	if s.batched {
		return
	}
	size := 0
	for i := range s.nodes {
		size += 2 * (len(s.nodes[i].base.Nbrs) + 1)
	}
	slab := make(transport.Batch, 0, size)
	for i := range s.nodes {
		nd, deg := &s.nodes[i], len(s.nodes[i].base.Nbrs)
		nd.cur, slab = carve(slab, deg+1)
		nd.next, slab = carve(slab, deg+1)
	}
	s.batched = true
}

// carve cuts an empty piece of capacity n off the end of slab and
// returns it with the slab grown past it.
func carve[T any](slab []T, n int) (piece, rest []T) {
	end := len(slab) + n
	return slab[len(slab):len(slab):end], slab[:end]
}

// Owned lists the nodes the shard decides, in the order Run reports
// their verdicts.
func (s *Shard) Owned() []int { return s.owned }

// Peers lists the shards this one shares a cut edge with, ascending:
// the peers a check's transport must connect.
func (s *Shard) Peers() []int { return s.peers }

// Run floods the shard's automata over the transport for the verifier's
// radius and decides every owned node. The verdicts align with Owned; a
// transport failure, context cancellation, verifier panic, or a record
// the shard's warmth does not expect surfaces as an error (the first one
// wins) with no partial verdicts; so does a cancellation that lands
// during the last round. A failed run leaves the shard reusable and
// cold: the next run reseeds every automaton (see Shard).
//
// The caller owns the transport: Run never closes it, so stats survive
// the run. The transport must speak for the shard's index.
func (s *Shard) Run(ctx context.Context, tr transport.Transport, p core.Proof, v core.Verifier) ([]bool, error) {
	return s.run(ctx, tr, p, v, nil)
}

// phaseTimes receives one run's seed and flood wall times, for the
// "dist.seed" and "dist.flood" timeline stages.
type phaseTimes struct {
	seed, flood time.Duration
}

// run is Run, additionally timing the seed and flood phases into tm
// when it is non-nil.
func (s *Shard) run(ctx context.Context, tr transport.Transport, p core.Proof, v core.Verifier, tm *phaseTimes) (verdicts []bool, err error) {
	radius := v.Radius()
	warm := s.warm && s.radius == radius
	freeze := !warm && s.ran && s.radius == radius
	if !warm && s.warm {
		s.thaw() // another radius: its balls are not these
	}
	defer func() {
		if err == nil {
			s.radius, s.ran, s.warm = radius, true, warm || freeze
			return
		}
		// Peers may have ended this run otherwise (succeeded, or seen
		// only the poison of this shard's failure): thawing on every
		// failure is what brings a group back to agreement after one
		// further failed run at most.
		s.thaw()
		s.ran = false
	}()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if tr.Shard() != s.me {
		return nil, fmt.Errorf("dist: shard %d run over the transport of shard %d", s.me, tr.Shard())
	}
	var t0 time.Time
	if tm != nil {
		t0 = time.Now()
	}
	if radius > 1 {
		s.batches()
	}
	if warm {
		if s.epoch++; s.epoch == 0 {
			s.epoch = 1 // a fresh ball's stamps are 0
		}
		for i := range s.nodes {
			s.nodes[i].seedWarm(p, s.epoch)
		}
	} else {
		for i := range s.nodes {
			s.nodes[i].seed(p)
		}
	}
	if tm != nil {
		t1 := time.Now()
		tm.seed, t0 = t1.Sub(t0), t1
	}
	for r := 1; r <= radius; r++ {
		// A cancelled context stops the shard at the next round even
		// when no gate would notice (a single-shard group never waits).
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Phase 1: freeze and stage cur on every cut edge, then
		// exchange. cur buffers stay untouched through the delivery.
		for _, rl := range s.remotes {
			tr.Send(rl.peer, rl.dst, rl.from.cur)
		}
		dels, err := tr.Exchange(ctx, r)
		if err != nil {
			return nil, err
		}
		// Phase 2: rewind the accumulation buffers.
		for i := range s.nodes {
			s.nodes[i].next = s.nodes[i].next[:0]
		}
		// Phase 3: same-shard direct merges, then the transport's
		// deliveries. Merges never touch a cur buffer, so ordering
		// within the phase is irrelevant.
		for i := range s.nodes {
			nd := &s.nodes[i]
			for _, nb := range nd.local {
				if err := nb.merge(nd.cur, r, radius, s.epoch); err != nil {
					return nil, err
				}
			}
		}
		for _, d := range dels {
			nd := s.byID[d.Dst]
			if nd == nil {
				return nil, fmt.Errorf("dist: shard %d: delivery for node %d, which it does not own", s.me, d.Dst)
			}
			if err := nd.merge(d.Recs, r, radius, s.epoch); err != nil {
				return nil, err
			}
		}
		// Phase 4: swap, then close the round — after Barrier, every
		// shard has merged round r and buffer reuse is licensed. The
		// last round learned nothing to send, so its buffers stay put.
		if r < radius {
			for i := range s.nodes {
				nd := &s.nodes[i]
				nd.cur, nd.next = nd.next, nd.cur
			}
		}
		if err := tr.Barrier(ctx, r); err != nil {
			return nil, err
		}
	}
	if tm != nil {
		tm.flood = time.Since(t0)
	}
	// A cancellation that landed during the last round fails every
	// shard of the check alike, whichever of them the last gate let
	// through.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if freeze {
		s.arena = arena{} // until a thaw, every view is a frozen ball's
	}
	verdicts = make([]bool, len(s.nodes))
	for i := range s.nodes {
		ok, err := decide(&s.nodes[i], &s.arena, s.kind, s.global, radius, v, freeze)
		if err != nil {
			return nil, err
		}
		verdicts[i] = ok
	}
	return verdicts, nil
}

// thaw drops every automaton's frozen ball: the shard is cold again.
func (s *Shard) thaw() {
	for i := range s.nodes {
		s.nodes[i].frozen = nil
	}
	s.warm = false
}

// RunShard is the one-shot form of a shard: NewShard for the
// transport's shard, one Run, and the verdicts keyed by node id. The
// outputs map has exactly one verdict per owned node.
func RunShard(ctx context.Context, plan ShardPlan, tr transport.Transport, p core.Proof, v core.Verifier) (map[int]bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s, err := NewShard(plan, tr.Shard())
	if err != nil {
		return nil, err
	}
	verdicts, err := s.Run(ctx, tr, p, v)
	if err != nil {
		return nil, err
	}
	outputs := make(map[int]bool, len(verdicts))
	for i, ok := range verdicts {
		outputs[s.owned[i]] = ok
	}
	return outputs, nil
}
