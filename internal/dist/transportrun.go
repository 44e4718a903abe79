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
	// In is the instance the shard's automata read their round-0
	// knowledge from. It must contain every owned node with all of its
	// incident edges and their endpoints — the radius-1 halo a
	// coordinator ships (engine.HaloInstance), or simply the full
	// instance in process. Model-level conventions (graph kind,
	// Global) must match the full instance, since view assembly
	// consults them.
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

// Shard is one shard's automata, wired once from a ShardPlan and reused
// by every check: the node automata with their round-0 base records,
// the same-shard direct-merge links, and the cut-edge links routed by
// the assignment. A check only seeds, floods, and decides — seeding
// rewinds each automaton's ball and batch buffers in place, so
// a long-lived shard (a worker's registered instance, a Network's
// wiring) stops paying for wiring and map growth on every check.
//
// A Shard is not safe for concurrent runs; callers serialize them. It
// keeps the previous check's flooded knowledge until the next check
// rewinds it.
type Shard struct {
	in      *core.Instance
	me      int
	owned   []int
	nodes   []node // in Owned order
	byID    map[int]*node
	remotes []remoteLink // grouped by sender, so a node's batch to one peer stages back to back
	peers   []int        // shards sharing a cut edge with this one, ascending
	links   int          // directed same-shard merge links
}

// NewShard wires shard me of the plan. It fails — before any check —
// when an owned node is absent from the plan's instance, a neighbor of
// an owned node has no assignment, or a neighbor assigned to me is not
// owned. The automata and their buffers are carved from a few slabs,
// so wiring costs a constant number of allocations per shard, not per
// node.
func NewShard(plan ShardPlan, me int) (*Shard, error) {
	s := &Shard{
		in:    plan.In,
		me:    me,
		owned: plan.Owned,
		nodes: make([]node, len(plan.Owned)),
		byID:  make(map[int]*node, len(plan.Owned)),
	}
	// Beyond the round-0 edge records, each automaton's buffers start
	// in slabs sized for a radius-1 check — a ball of degree+1 records,
	// up to degree+1 records per round's batch, degree induced edges —
	// so wiring a shard costs a constant number of allocations, not a
	// few per node. Larger radii grow the buffers past their slab share.
	edges, balls := 0, 0
	for _, id := range plan.Owned {
		if !plan.In.G.Has(id) {
			return nil, fmt.Errorf("dist: shard %d owns node %d, absent from its instance", me, id)
		}
		d := degree(plan.In, id)
		edges += d
		balls += min(d+1, smallBall+1)
	}
	recs := make([]edgeRec, 0, 2*edges)
	ballSlab := make([]learned, 0, balls)
	batches := make([]record, 0, 2*(edges+len(plan.Owned)))
	for i, id := range plan.Owned {
		nd := &s.nodes[i]
		nd.id = id
		nd.base, recs = initialRecord(plan.In, id, recs)
		deg := len(nd.base.Edges)
		nd.indEdges, recs = carve(recs, deg)
		nd.ball, ballSlab = carve(ballSlab, min(deg+1, smallBall+1))
		nd.cur, batches = carve(batches, deg+1)
		nd.next, batches = carve(batches, deg+1)
		s.byID[id] = nd
	}
	// Wire after every automaton exists: same-shard neighbours get
	// direct-merge links, cut edges get remote links routed by the
	// assignment.
	locals := make([]*node, 0, edges)
	for i := range s.nodes {
		nd := &s.nodes[i]
		start := len(locals)
		for _, w := range plan.In.G.UndirectedNeighbors(nd.id) {
			owner, ok := plan.Assign[w]
			if !ok {
				return nil, fmt.Errorf("dist: shard %d: neighbor %d of node %d has no shard assignment", me, w, nd.id)
			}
			if owner == me {
				nb := s.byID[w]
				if nb == nil {
					return nil, fmt.Errorf("dist: shard %d: node %d assigned here but not owned", me, w)
				}
				locals = append(locals, nb)
			} else {
				s.remotes = append(s.remotes, remoteLink{from: nd, peer: owner, dst: w})
				s.peers = append(s.peers, owner)
			}
		}
		nd.local = locals[start:len(locals):len(locals)]
	}
	s.links = len(locals)
	slices.Sort(s.peers)
	s.peers = slices.Compact(s.peers)
	return s, nil
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
// transport failure, context cancellation, or verifier panic surfaces
// as an error (the first one wins) with no partial verdicts. A failed
// run leaves the shard reusable: the next run reseeds every automaton.
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
func (s *Shard) run(ctx context.Context, tr transport.Transport, p core.Proof, v core.Verifier, tm *phaseTimes) ([]bool, error) {
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
	for i := range s.nodes {
		s.nodes[i].seed(p)
	}
	if tm != nil {
		t1 := time.Now()
		tm.seed, t0 = t1.Sub(t0), t1
	}
	radius := v.Radius()
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
				nb.merge(nd.cur, r)
			}
		}
		for _, d := range dels {
			nd := s.byID[d.Dst]
			if nd == nil {
				return nil, fmt.Errorf("dist: shard %d: delivery for node %d, which it does not own", s.me, d.Dst)
			}
			nd.merge(d.Recs, r)
		}
		// Phase 4: swap, then close the round — after Barrier, every
		// shard has merged round r and buffer reuse is licensed.
		for i := range s.nodes {
			nd := &s.nodes[i]
			nd.cur, nd.next = nd.next, nd.cur
		}
		if err := tr.Barrier(ctx, r); err != nil {
			return nil, err
		}
	}
	if tm != nil {
		tm.flood = time.Since(t0)
	}
	verdicts := make([]bool, len(s.nodes))
	var scratch []graph.Edge
	for i := range s.nodes {
		ok, err := decide(&s.nodes[i], s.in, radius, v, &scratch)
		if err != nil {
			return nil, err
		}
		verdicts[i] = ok
	}
	return verdicts, nil
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
