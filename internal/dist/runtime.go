package dist

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lcp/internal/core"
	"lcp/internal/graph"
	"lcp/internal/obs"
	"lcp/internal/partition"
	"lcp/internal/transport"
)

// The message-passing machinery: a network of node automata, channels as
// ports, and round-synchronized flooding that assembles each node's
// radius-r view incrementally. Nothing in this file calls core.BuildView
// — views are reconstructed purely from what arrived over the wires
// (plus the globally known input, which the model hands to every node up
// front).
//
// Two execution layouts share the automata. In goroutine-per-node mode
// every node runs on its own goroutine and every directed port is a
// channel. In sharded mode (Options.Sharded) the nodes are batched onto
// a small number of shard goroutines; delivery between same-shard nodes
// is a direct merge into the neighbour's automaton — no channel — and
// only cross-shard edges keep their ports. See shard.go.

// record is the unit of knowledge flooded through the network: everything
// a single node knows at round 0 — its identifier, proof string, input
// label, and incident edges with their labels and weights. Records are
// immutable once built, so forwarding shares them freely across ports.
//
// The type lives in internal/transport — it is also what the wire
// format of the multi-process transports serializes — and the scheduler
// aliases it, so handing a batch to a Transport is free: no conversion,
// no copy, the exact slices the channel ports carry.
type record = transport.Record

// edgeRec is one incident edge as the owning node sees it: the edge key
// exactly as the frozen graph stores it (normalized for undirected
// graphs, the ordered arc for directed ones) plus its input labelling.
type edgeRec = transport.EdgeRec

// batch is the per-round message payload on one port: the records the
// sender learned in the previous round. An empty batch still gets sent —
// message counting is what keeps the rounds synchronized.
type batch = transport.Batch

// initialRecord builds node v's round-0 knowledge from the instance,
// except for the proof string, which changes between runs of a reusable
// network and is injected by node.seed. The edges slice is appended onto
// buf so a pooled node reuses its previous backing array.
func initialRecord(in *core.Instance, v int, buf []edgeRec) record {
	rec := record{ID: v, Edges: buf[:0]}
	if l, ok := in.NodeLabel[v]; ok {
		rec.Label, rec.HasLabel = l, true
	}
	addEdge := func(e graph.Edge) {
		er := edgeRec{E: e}
		if l, ok := in.EdgeLabel[e]; ok {
			er.Label, er.HasLabel = l, true
		}
		if w, ok := in.Weights[e]; ok {
			er.Weight, er.HasWeight = w, true
		}
		rec.Edges = append(rec.Edges, er)
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
	return rec
}

// node is the per-automaton state: the unit of execution in
// goroutine-per-node mode, one entry of a shard's work list in sharded
// mode.
type node struct {
	id      int
	carrier bool           // floods but never decides (Options.DecideOnly)
	base    record         // round-0 knowledge minus the proof (constant across runs)
	in      []<-chan batch // one port per cross-shard communication neighbour
	out     []chan<- batch
	local   []*node        // sharded mode: same-shard neighbours, merged into directly
	known   map[int]record // id -> record, everything learned so far
	dist    map[int]int    // id -> round of first arrival (= BFS distance)
	// indEdges accumulates the ball's induced edges incrementally: an
	// edge is appended exactly once, the moment the record of its second
	// endpoint merges (both endpoints report every incident edge, so the
	// later arrival finds the earlier one in known). assemble therefore
	// never rescans the knowledge map for edges, which used to dominate
	// the per-node view rebuild.
	indEdges []edgeRec
	// cur is the batch to send this round (learned last round); next
	// accumulates this round's discoveries. The two swap every round so
	// message buffers are reused instead of reallocated (safe in
	// lockstep mode: a batch is fully drained before the barrier trips).
	cur, next batch
	// ring holds the per-round batch buffers of the free-running
	// sharded layout, indexed by the shard's round counter modulo the
	// ring length. Without a barrier a two-buffer swap is unsafe (a
	// neighbouring shard may still be reading a batch sent several
	// rounds ago), but a ring of portBuffer+2 buffers is — see the
	// cooling argument at floodShardFreeRunning.
	ring []batch
}

// nodePool recycles node automata — and with them the record edge
// slices, batch buffers, port slices, and knowledge maps — across runs.
// One-shot runners (Check, Collect) return their nodes after the
// verdicts are in; reusable Networks hold on to theirs until Close.
var nodePool = sync.Pool{New: func() any { return new(node) }}

func newNode(in *core.Instance, id int) *node {
	//lint:ignore poolput ownership transfer: the run that wired this node returns it via node.release (one-shot runners after the verdict, Networks on Close)
	nd := nodePool.Get().(*node)
	nd.id = id
	nd.base = initialRecord(in, id, nd.base.Edges)
	if nd.known == nil {
		nd.known = make(map[int]record)
		nd.dist = make(map[int]int)
	}
	return nd
}

// seed resets the automaton for a fresh run with the given proof: the
// knowledge maps shrink back to the node's own record (now carrying its
// proof string) and the message buffers rewind without reallocating.
func (nd *node) seed(p core.Proof) {
	rec := nd.base
	if s, ok := p[nd.id]; ok {
		rec.Proof, rec.HasProof = s, true
	}
	clear(nd.known)
	clear(nd.dist)
	nd.known[nd.id] = rec
	nd.dist[nd.id] = 0
	nd.indEdges = nd.indEdges[:0]
	nd.cur = append(nd.cur[:0], rec)
	nd.next = nd.next[:0]
}

// release returns the node to the pool. Callers must guarantee that no
// goroutine of the finished run still touches it (verdicts collected,
// waitgroups drained): pooled nodes are handed to unrelated networks.
func (nd *node) release() {
	clear(nd.known)
	clear(nd.dist)
	clear(nd.indEdges)
	nd.indEdges = nd.indEdges[:0]
	clear(nd.cur)
	clear(nd.next)
	nd.cur, nd.next = nd.cur[:0], nd.next[:0]
	for i := range nd.ring {
		clear(nd.ring[i])
		nd.ring[i] = nd.ring[i][:0]
	}
	clear(nd.in)
	clear(nd.out)
	nd.in, nd.out = nd.in[:0], nd.out[:0]
	clear(nd.local)
	nd.local = nd.local[:0]
	nd.carrier = false
	nodePool.Put(nd)
}

// merge folds one received batch into the automaton: first arrivals are
// learned, duplicates (the same record racing in over several ports)
// are dropped.
func (nd *node) merge(b batch, round int) {
	for _, rec := range b {
		if _, seen := nd.known[rec.ID]; !seen {
			nd.learn(rec, round)
		}
	}
}

// learn records a first arrival: the record joins the knowledge maps and
// the next outgoing batch, and every incident edge whose other endpoint
// is already known joins the induced edge list. Each induced edge is
// reported by both endpoints and arrivals are sequential per automaton,
// so exactly the second endpoint's merge appends it — no dedupe map.
func (nd *node) learn(rec record, round int) {
	nd.known[rec.ID] = rec
	nd.dist[rec.ID] = round
	nd.next = append(nd.next, rec)
	for _, er := range rec.Edges {
		other := er.E.U + er.E.V - rec.ID
		if _, inBall := nd.known[other]; inBall && other != rec.ID {
			nd.indEdges = append(nd.indEdges, er)
		}
	}
}

// flood runs the synchronous flooding protocol for the given number of
// rounds on a dedicated goroutine. Each round: send the previous round's
// discoveries on every port, receive exactly one batch per port, merge
// first-arrivals. When bar is non-nil every round ends at the reusable
// global barrier; when nil, per-port message counting alone keeps rounds
// aligned (α-synchronization), and batches are freshly allocated because
// a slow receiver may still hold the previous round's slice.
//
// flood reports whether the run was aborted by a poisoned barrier (a
// cancelled context): the barrier publishes the same decision to every
// participant, so all automata stop after the same round with every
// port drained — no goroutine is left blocked on a neighbour that quit.
// Free-running mode has no barrier and always floods to completion.
func (nd *node) flood(rounds int, bar *barrier) bool {
	for r := 1; r <= rounds; r++ {
		for _, port := range nd.out {
			port <- nd.cur
		}
		if bar != nil {
			// Reuse the already-drained previous buffer.
			nd.next = nd.next[:0]
		} else {
			nd.next = nil
		}
		for _, port := range nd.in {
			nd.merge(<-port, r)
		}
		nd.cur, nd.next = nd.next, nd.cur
		if bar != nil && bar.await() {
			return true
		}
	}
	return false
}

// assemble reconstructs the radius-r view from flooded knowledge. The
// instance is consulted only for model-level conventions that every node
// knows a priori: the graph kind, the globally shared input in.Global,
// and whether the instance carries node/edge labellings at all (the
// nil-map conventions BuildView mirrors into the view). The ball graph
// is frozen through graph.FromParts — the sorted id list plus the
// incrementally collected induced edges — instead of a Builder, so the
// per-node rebuild no longer pays for node/edge dedupe maps.
func (nd *node) assemble(in *core.Instance, radius int) *core.View {
	ids := make([]int, 0, len(nd.known))
	for id := range nd.known {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	edges := make([]graph.Edge, len(nd.indEdges))
	for i, er := range nd.indEdges {
		edges[i] = er.E
	}

	w := &core.View{
		Center: nd.id,
		Radius: radius,
		G:      graph.FromParts(in.G.Kind(), ids, edges),
		Dist:   make(map[int]int, len(nd.dist)),
		Proof:  make(core.Proof, len(ids)),
		Global: in.Global,
	}
	for id, d := range nd.dist {
		w.Dist[id] = d
	}
	for _, id := range ids {
		rec := nd.known[id]
		if rec.HasProof {
			w.Proof[id] = rec.Proof
		}
	}
	if in.NodeLabel != nil {
		w.NodeLabel = make(map[int]string)
		for _, id := range ids {
			if rec := nd.known[id]; rec.HasLabel {
				w.NodeLabel[id] = rec.Label
			}
		}
	}
	if in.EdgeLabel != nil || in.Weights != nil {
		w.EdgeLabel = make(map[graph.Edge]string)
		w.Weights = make(map[graph.Edge]int64)
		for _, er := range nd.indEdges {
			if er.HasLabel {
				w.EdgeLabel[er.E] = er.Label
			}
			if er.HasWeight {
				w.Weights[er.E] = er.Weight
			}
		}
	}
	return w
}

// network wires one node automaton per graph vertex. In
// goroutine-per-node mode every directed port (u → v for every
// communication edge) is a dedicated channel; in sharded mode the nodes
// are additionally grouped into shard work lists by the configured
// partitioner's node→shard assignment — any assignment works, same-
// shard delivery stays a direct merge and only cross-shard edges get
// channels — and the wiring pool above sees no difference. The wiring
// is proof-free: each run seeds the nodes with the proof under test, so
// one network serves arbitrarily many proofs.
type network struct {
	nodes    []*node
	deciders int       // nodes that assemble + verify (all unless DecideOnly)
	shards   [][]*node // non-nil iff Options.Sharded; partition of nodes
	bar      *barrier  // nil in free-running mode
	ringLen  int       // free-running sharded batch ring length (portBuffer+2)
	// crossPorts and localLinks fix the per-round delivery counts for
	// this wiring: every port carries one batch per round, every local
	// link merges once per round. countRun multiplies them by the round
	// count, so the flooding loops never touch a counter.
	crossPorts int // directed channel ports
	localLinks int // directed same-shard merge links
}

func buildNetwork(in *core.Instance, opt Options) (*network, error) {
	ids := in.G.Nodes()
	// Resolve the shard assignment before any node is drawn from the
	// pool, so an invalid custom partitioner costs nothing to reject.
	// assign[i] is the shard owning ids[i]; nil when not sharded.
	var assign []int
	if shards := opt.shardCount(len(ids)); shards > 0 {
		assign = opt.partitioner().Assign(in.G, shards)
		if err := partition.Validate(assign, len(ids), shards); err != nil {
			return nil, fmt.Errorf("dist: partitioner %q: %v", opt.partitioner().Name(), err)
		}
	}
	net := &network{nodes: make([]*node, len(ids)), deciders: len(ids)}
	byID := make(map[int]*node, len(ids))
	for i, id := range ids {
		net.nodes[i] = newNode(in, id)
		byID[id] = net.nodes[i]
	}
	if opt.DecideOnly != nil {
		for _, nd := range net.nodes {
			nd.carrier = true
		}
		net.deciders = 0
		for _, id := range opt.DecideOnly {
			if nd := byID[id]; nd != nil && nd.carrier {
				nd.carrier = false
				net.deciders++
			}
		}
	}
	if assign != nil {
		net.shards = make([][]*node, opt.shardCount(len(ids)))
		for i, nd := range net.nodes {
			net.shards[assign[i]] = append(net.shards[assign[i]], nd)
		}
		net.ringLen = opt.portBuffer() + 2
	}
	buf := opt.portBuffer()
	for i, nd := range net.nodes {
		for _, w := range in.G.UndirectedNeighbors(nd.id) {
			if assign != nil && assign[in.G.Index(w)] == assign[i] {
				// Same shard: deliver by direct merge, no channel.
				nd.local = append(nd.local, byID[w])
				net.localLinks++
				continue
			}
			ch := make(chan batch, buf)
			nd.out = append(nd.out, ch)
			byID[w].in = append(byID[w].in, ch)
			net.crossPorts++
		}
	}
	if !opt.FreeRunning {
		participants := len(ids)
		if net.shards != nil {
			participants = len(net.shards)
		}
		net.bar = newBarrier(participants)
	}
	return net, nil
}

// release returns every node automaton to the pool. Only one-shot
// runners call this; a reusable Network keeps its wiring alive.
func (net *network) release() {
	for _, nd := range net.nodes {
		nd.release()
	}
	net.nodes = nil
	net.shards = nil
}

// errRunAborted marks verdicts of a run stopped by a poisoned barrier;
// run translates it into the cancelling context's error.
var errRunAborted = errors.New("dist: run cancelled")

// run executes one complete verification pass: seed every node with the
// proof, flood for the verifier's radius, assemble views, decide. Every
// worker goroutine — including carriers, which report no verdict — is
// joined before returning, so the network is reusable (or releasable)
// immediately afterwards: all ports are drained and no goroutine of
// this run still touches a node automaton.
//
// A cancellable ctx (Done() != nil) is watched by a helper goroutine
// that poisons the round barrier, so lockstep runs abort between
// rounds and return ctx.Err() instead of flooding to completion.
// Free-running runs have no barrier to poison and run to completion —
// cancellation there is honored only at run boundaries.
func (net *network) run(ctx context.Context, in *core.Instance, p core.Proof, v core.Verifier, opt Options) (*core.Result, error) {
	radius := v.Radius()
	rounds := radius
	if rounds < 0 {
		rounds = 0
	}
	tl := obs.TimelineFrom(ctx)
	stopSeed := tl.Start("dist.seed")
	for _, nd := range net.nodes {
		nd.seed(p)
	}
	stopSeed()
	if net.bar != nil {
		net.bar.reset()
		if ctx != nil && ctx.Err() != nil {
			// Already cancelled: poison before the flood starts, so the
			// abort does not depend on the watcher below being scheduled
			// before a short flood finishes.
			net.bar.poison()
		} else if ctx != nil && ctx.Done() != nil {
			watchDone := make(chan struct{})
			watcherExited := make(chan struct{})
			go func() {
				defer close(watcherExited)
				select {
				case <-ctx.Done():
					net.bar.poison()
				case <-watchDone:
				}
			}()
			// Join the watcher before returning: a cancellation arriving
			// during the decide phase must land its poison before this
			// run ends, not after a pooled reuse of the wiring has reset
			// the barrier — a stale poison would spuriously abort the
			// next, uncancelled run.
			defer func() {
				close(watchDone)
				<-watcherExited
			}()
		}
	}
	// Deciders never block sending: the channel holds every verdict.
	verdicts := make(chan nodeVerdict, net.deciders)
	var wg sync.WaitGroup
	// floodNS, when a timeline is watching, collects the slowest worker's
	// flood time — the critical path of the parallel phase. Workers only
	// read the clock when the pointer is non-nil, so unobserved runs (and
	// every benchmark) skip even that.
	var floodNS *atomic.Int64
	if tl != nil {
		floodNS = new(atomic.Int64)
	}
	stopRun := tl.Start("dist.run")
	if net.shards != nil {
		net.runSharded(in, radius, rounds, v, verdicts, &wg, floodNS)
	} else {
		net.runPerNode(in, radius, rounds, v, opt, verdicts, &wg, floodNS)
	}
	res := &core.Result{Outputs: make(map[int]bool, net.deciders)}
	var firstErr error
	for i := 0; i < net.deciders; i++ {
		nv := <-verdicts
		if nv.err != nil && firstErr == nil {
			firstErr = nv.err
		}
		res.Outputs[nv.id] = nv.ok
	}
	wg.Wait()
	stopRun()
	if tl != nil {
		tl.Observe("dist.flood", time.Duration(floodNS.Load()))
	}
	aborted := errors.Is(firstErr, errRunAborted)
	countRun(net, rounds, aborted)
	if aborted {
		if ctx != nil && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, firstErr
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return res, nil
}

// runPerNode is the goroutine-per-node execution layout: every automaton
// floods and decides on its own goroutine, with the decision phase
// throttled by the fan-out semaphore. An aborted flood still reports a
// verdict per decider — carrying errRunAborted instead of a decision —
// so run's collection loop always drains exactly net.deciders entries.
func (net *network) runPerNode(in *core.Instance, radius, rounds int, v core.Verifier, opt Options, verdicts chan<- nodeVerdict, wg *sync.WaitGroup, floodNS *atomic.Int64) {
	var sem chan struct{}
	if k := opt.fanout(); k > 0 {
		sem = make(chan struct{}, k)
	}
	wg.Add(len(net.nodes))
	for _, nd := range net.nodes {
		go func(nd *node) {
			defer wg.Done()
			var t0 time.Time
			if floodNS != nil {
				t0 = time.Now()
			}
			aborted := nd.flood(rounds, net.bar)
			if floodNS != nil {
				storeMax(floodNS, int64(time.Since(t0)))
			}
			if nd.carrier {
				return
			}
			if aborted {
				verdicts <- nodeVerdict{id: nd.id, err: errRunAborted}
				return
			}
			if sem != nil {
				sem <- struct{}{}
				defer func() { <-sem }()
			}
			verdicts <- decide(nd, in, radius, v)
		}(nd)
	}
}

// decide assembles one node's view and runs the verifier, converting a
// verifier panic into a per-node error instead of killing the process.
func decide(nd *node, in *core.Instance, radius int, v core.Verifier) (out nodeVerdict) {
	out.id = nd.id
	defer func() {
		if r := recover(); r != nil {
			out.err = fmt.Errorf("dist: verifier panicked at node %d: %v", nd.id, r)
		}
	}()
	out.ok = v.Verify(nd.assemble(in, radius))
	return out
}

// collect floods the already-seeded network and assembles the view of
// center. It is Collect's engine under both execution layouts.
func (net *network) collect(in *core.Instance, center, radius int) *core.View {
	rounds := radius
	if rounds < 0 {
		rounds = 0
	}
	var view *core.View
	var wg sync.WaitGroup
	if net.shards != nil {
		for _, group := range net.shards {
			wg.Add(1)
			go func(group []*node) {
				defer wg.Done()
				floodShard(group, rounds, net.bar, net.ringLen)
				for _, nd := range group {
					if nd.id == center {
						view = nd.assemble(in, radius)
					}
				}
			}(group)
		}
	} else {
		for _, nd := range net.nodes {
			wg.Add(1)
			go func(nd *node) {
				defer wg.Done()
				nd.flood(rounds, net.bar)
				if nd.id == center {
					view = nd.assemble(in, radius)
				}
			}(nd)
		}
	}
	wg.Wait()
	return view
}
