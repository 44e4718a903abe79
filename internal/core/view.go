package core

import (
	"context"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"lcp/internal/bitstr"
	"lcp/internal/graph"
)

// View is the radius-r neighbourhood (G[v,r], P[v,r], v) a verifier
// sees (§2.1), held as a restriction of the instance rather than a copy
// of it: the ball's members (their identifiers and their positions in
// the source graph, ascending) with a distance per member, the source
// instance the labels, edge labels and weights are read from behind a
// membership test, and exactly one proof source, a FlatProof — a
// column of the check's proof table, or a ball-sized table for owned
// views.
//
// Verifiers read the view only through its accessors; every accessor
// answers for the ball alone (a node outside it has no proof, label,
// distance or edge). The induced graph G[v,r] is never built unless a
// verifier asks for it: Graph builds it at most once per view, and so
// does a row query (Neighbors, Degree, InNeighbors) at a boundary node
// (distance = radius), whose induced row can be shorter than its row in
// the instance. An inner node's row is the instance's row as is,
// because every neighbour of an inner node lies in the ball. The same
// rule covers a ball a message-passing node assembled from what reached
// it (BallView): its instance holds the edges of the inner members'
// records, and the edges between two boundary members, with their
// labels and weights, are added at most once per view, on Graph, a
// boundary row query, HasEdge between two boundary members, or an
// EdgeLabel or Weight read there. Because Graph and a boundary query
// fill a cache on first call, a View is not safe for concurrent use.
type View struct {
	Center int
	Radius int
	Global Global

	src  *Instance
	ids  []int   // ascending member identifiers
	pos  []int32 // their positions in src.G; nil when the ball is all of src.G
	dist []int32 // distance from Center per member, aligned with the members
	// proof is the view's proof source: indexed by source position, or
	// by member rank when rank is set (the ball-sized tables of owned
	// views). nil reads as ε everywhere.
	proof *FlatProof
	rank  bool

	induced *graph.Graph // G[v,r], built on first need
	// more completes src, a BallView's ball instance that lacks the
	// edges between boundary members, on first need; nil once done, and
	// for every other view.
	more func(*Instance)
}

// inducedBuilds counts induced ball graphs built for views (the lazy
// path of Graph and of boundary queries, and a BallView's completion);
// tests read it.
var inducedBuilds atomic.Int64

// reset points the view at a new ball. pos may be nil when the ball is
// the whole source graph; the slices and the proof table are aliased,
// not copied. The member identifiers go into the view's own buffer,
// which a reused view keeps.
func (w *View) reset(src *Instance, center, radius int, pos, dist []int32, proof *FlatProof, rank bool) {
	w.Center, w.Radius, w.Global = center, radius, src.Global
	w.src, w.dist = src, dist
	w.proof, w.rank = proof, rank
	w.induced, w.more = nil, nil
	if pos == nil || len(pos) == src.G.N() {
		// A ball holding every node is the source graph itself.
		w.pos, w.ids = nil, src.G.Nodes()
		return
	}
	if w.pos == nil {
		w.ids = nil // the source's own id list, not a buffer of ours
	}
	w.pos = pos
	ids := src.G.Nodes()
	w.ids = w.ids[:0]
	for _, i := range pos {
		w.ids = append(w.ids, ids[i])
	}
}

// find returns the member rank of node id and whether id is in the
// ball: a binary search of the members, no lookup in the source graph.
func (w *View) find(id int) (int, bool) {
	if w.pos == nil {
		return w.src.G.Lookup(id)
	}
	return slices.BinarySearch(w.ids, id)
}

func (w *View) has(id int) bool {
	_, ok := w.find(id)
	return ok
}

// posOf is the source position of the member of rank j.
func (w *View) posOf(j int) int {
	if w.pos == nil {
		return j
	}
	return int(w.pos[j])
}

// entry is the proof entry of the member of rank j.
func (w *View) entry(j int) (bitstr.String, bool) {
	if w.proof == nil {
		return bitstr.String{}, false
	}
	if w.rank {
		return w.proof.entryAt(j)
	}
	return w.proof.entryAt(w.posOf(j))
}

// inner reports whether the member of rank j is strictly inside the
// ball, so its instance rows are its view rows. A ball that is its whole
// source instance has only such rows, unless it still lacks its
// boundary–boundary edges.
func (w *View) inner(j int) bool {
	return w.pos == nil && w.more == nil || int(w.dist[j]) < w.Radius
}

// complete adds the boundary–boundary edges a BallView's instance
// lacks.
func (w *View) complete() {
	w.more(w.src)
	w.more = nil
	inducedBuilds.Add(1)
}

// ProofOf returns the proof string of a node in the view (ε if the node
// carries no proof or lies outside the ball).
func (w *View) ProofOf(v int) bitstr.String {
	if j, ok := w.find(v); ok {
		s, _ := w.entry(j)
		return s
	}
	return bitstr.String{}
}

// BallProof returns the view's proof restriction as a fresh map-backed
// Proof, entry for entry: a ball member the proof explicitly assigns ε
// has an ε entry, a member without an entry has none. Verifiers that
// need the restriction as a value — to re-address it, or to hand it to
// Restrict for an inner verifier (the §7.1 M2 translation does both) —
// use this.
func (w *View) BallProof() Proof {
	p := make(Proof, len(w.dist))
	for j := range w.dist {
		if s, ok := w.entry(j); ok {
			p[w.ids[j]] = s
		}
	}
	return p
}

// Nodes returns the ball's members in ascending order. The caller must
// not modify the slice, and it is valid only as long as the view is.
func (w *View) Nodes() []int { return w.ids }

// Dist returns the distance of v from the center and whether v is in
// the ball at all.
func (w *View) Dist(v int) (int, bool) {
	if j, ok := w.find(v); ok {
		return int(w.dist[j]), true
	}
	return 0, false
}

// Label returns the input label of a node in the view ("" outside it).
func (w *View) Label(v int) string {
	if w.src.NodeLabel == nil || !w.has(v) {
		return ""
	}
	return w.src.NodeLabel[v]
}

// EdgeLabel returns the input label of the (undirected) edge (u, v) in
// the view ("" if it is not an edge of the ball). The label is keyed
// normalized, as MarkEdge stores it, so on a directed instance the two
// opposite arcs u→v and v→u share one label, and either one present in
// the ball carries it.
func (w *View) EdgeLabel(u, v int) string {
	if w.src.EdgeLabel == nil && w.more == nil || !w.linked(u, v) {
		return ""
	}
	return w.src.EdgeLabel[graph.NormEdge(u, v)]
}

// EdgeMarked reports whether the (undirected) edge is part of the solution.
func (w *View) EdgeMarked(u, v int) bool { return w.EdgeLabel(u, v) == EdgeInSolution }

// Weight returns the weight of edge (u, v) in the view (0 if it is not
// an edge of the ball or carries no weight). Like EdgeLabel, it is
// keyed normalized: a directed instance's opposite arcs share one
// weight.
func (w *View) Weight(u, v int) int64 {
	if w.src.Weights == nil && w.more == nil || !w.linked(u, v) {
		return 0
	}
	return w.src.Weights[graph.NormEdge(u, v)]
}

// linked reports whether u and v are joined by an edge of the view: the
// edge (u, v), or on a directed instance either arc between them.
func (w *View) linked(u, v int) bool {
	return w.HasEdge(u, v) || (w.src.G.Directed() && w.HasEdge(v, u))
}

// KnowsFully reports whether the full neighbourhood of node v is visible
// in the view: true iff v is in the ball and dist(center, v) < radius.
// Verifiers must only reason about the complete adjacency of such nodes.
func (w *View) KnowsFully(v int) bool {
	d, ok := w.Dist(v)
	return ok && d < w.Radius
}

// HasEdge reports whether (u, v) is an edge of the view (an arc u→v on
// directed instances): both endpoints in the ball and the edge in the
// instance.
func (w *View) HasEdge(u, v int) bool {
	j, ok := w.find(u)
	if !ok {
		return false
	}
	k, ok := w.find(v)
	if !ok {
		return false
	}
	if w.more != nil && !w.inner(j) && !w.inner(k) {
		w.complete()
	}
	_, ok = slices.BinarySearch(w.src.G.NeighborsAt(w.posOf(j)), v)
	return ok
}

// Neighbors lists v's neighbours within the view, ascending (its
// out-neighbours on directed instances). The caller must not modify the
// slice.
func (w *View) Neighbors(v int) []int {
	if j, ok := w.find(v); ok && w.inner(j) {
		return w.src.G.NeighborsAt(w.posOf(j))
	}
	return w.Graph().Neighbors(v)
}

// InNeighbors lists v's in-neighbours within the view on a directed
// instance, and Neighbors(v) on an undirected one.
func (w *View) InNeighbors(v int) []int {
	if j, ok := w.find(v); ok && w.inner(j) {
		return w.src.G.InNeighborsAt(w.posOf(j))
	}
	return w.Graph().InNeighbors(v)
}

// Degree returns v's degree within the view (its true degree iff
// KnowsFully(v)).
func (w *View) Degree(v int) int { return len(w.Neighbors(v)) }

// Graph returns the induced subgraph G[v,r]. It is built on the first
// call and kept for the view's lifetime; when the ball holds every node
// of the instance, it is the instance's graph itself. Verifiers that
// only read rows, edges and proofs should use the other accessors,
// which never build it for inner nodes.
func (w *View) Graph() *graph.Graph {
	if w.pos == nil {
		if w.more != nil {
			w.complete()
		}
		return w.src.G
	}
	if w.induced == nil {
		w.induced = w.src.G.InducedAt(w.pos)
		inducedBuilds.Add(1)
	}
	return w.induced
}

// SetBall points w at the radius-r ball of center over in: the members
// at the ascending positions pos of in.G, with distances dist aligned,
// their proof read from proof by graph position. It is how a walk
// reuses one View per worker (Walk, the engine's column walk and
// stream); the slices and the table are aliased, not copied, and must
// stay unchanged while w is in use.
func (w *View) SetBall(in *Instance, center, radius int, pos, dist []int32, proof *FlatProof) {
	w.reset(in, center, radius, pos, dist, proof, false)
}

// SetProof swaps the proof source of a view filled by SetBall, keeping
// its ball and any induced graph already built for it: a walk that
// verifies several proof columns at one node fills the ball once and
// attaches each column in turn.
func (w *View) SetProof(proof *FlatProof) { w.proof = proof }

// newView returns an owned view of the ball (pos, dist) over src, its
// proof a ball-sized table restricted from p.
func newView(src *Instance, p Proof, center, radius int, pos, dist []int32) *View {
	w := &View{}
	w.reset(src, center, radius, pos, dist, nil, true)
	if len(p) > 0 {
		fp := &FlatProof{bits: make([]bitstr.String, len(dist)), has: make([]bool, len(dist))}
		for j, id := range w.ids {
			if s, ok := p[id]; ok {
				fp.bits[j], fp.has[j] = s, true
			}
		}
		w.proof = fp
	}
	return w
}

// BuildView extracts the radius-r view of center from an instance and
// proof. This is the sequential reference construction: one BFS, and a
// ball-sized copy of the proof restriction so that the view stays valid
// for as long as the caller holds it. dist.Collect produces identical
// views via message passing (a property test asserts agreement).
func BuildView(in *Instance, p Proof, center, radius int) *View {
	pos, dist := in.G.AppendBall(nil, nil, center, radius)
	return newView(in, p, center, radius, pos, dist)
}

// BallView holds one view over a ball instance, the shape a
// message-passing node reassembles from what reached it, together with
// the instance and proof table the view reads: one value, so a BallView
// that is re-pointed ball after ball (the dist runtime's per-shard
// assembly arena) builds its views without allocating. The zero value
// is ready. Each View call re-points the one view, so the view an
// earlier call returned now shows the new ball: like every view handed
// to a verifier, it is valid only until its Verify returns, and one
// that must outlive that is kept as a Clone. A BallView that is pointed
// at a ball once (a frozen dist view) keeps that view for its lifetime.
type BallView struct {
	w  View
	in Instance
	fp FlatProof
}

// View points b at the radius-r view of center over ball, an instance
// whose nodes are exactly that ball, and returns b's view. dist holds
// each member's distance from center, bits each member's proof string
// and has whether the proof gives it an entry at all, all aligned with
// ball.G.Nodes(); the view reads the three slices, and ball's graph and
// maps, in place until b is re-pointed.
//
// The ball's graph may lack the edges between two boundary members (at
// distance radius), with their labels and weights: then complete, which
// must be non-nil, adds them to the instance, keeping its nodes. The
// view calls it at most once, when a verifier first reads such an edge
// (see View); until then the boundary rows are never read. A nil
// complete means the ball's graph is already G[v,r].
func (b *BallView) View(ball Instance, center, radius int, dist []int32, bits []bitstr.String, has []bool, complete func(*Instance)) *View {
	b.in = ball
	b.fp = FlatProof{g: ball.G, bits: bits, has: has}
	b.w.reset(&b.in, center, radius, nil, dist, &b.fp, false)
	b.w.more = complete
	return &b.w
}

// Clone returns an owned copy of the view: the same center, radius,
// members with their distances, node labels, edges with their labels
// and weights, and proof entries, over tables of its own, so it stays
// valid for as long as the caller holds it, whatever becomes of w or of
// the storage behind w. A verifier that keeps a view past Verify
// (dist.CollectWith keeps its center's) keeps a Clone. The copy reads
// w's whole graph, so a ball view's boundary edges are completed first.
func (w *View) Clone() *View {
	g := w.Graph()
	ball := Instance{G: graph.FromParts(g.Kind(), slices.Clone(w.ids), g.Edges()), Global: w.Global}
	for _, id := range w.ids {
		if l, ok := w.src.NodeLabel[id]; ok {
			if ball.NodeLabel == nil {
				ball.NodeLabel = make(map[int]string)
			}
			ball.NodeLabel[id] = l
		}
	}
	for _, e := range ball.G.Edges() {
		k := graph.NormEdge(e.U, e.V)
		if l, ok := w.src.EdgeLabel[k]; ok {
			if ball.EdgeLabel == nil {
				ball.EdgeLabel = make(map[graph.Edge]string)
			}
			ball.EdgeLabel[k] = l
		}
		if x, ok := w.src.Weights[k]; ok {
			if ball.Weights == nil {
				ball.Weights = make(map[graph.Edge]int64)
			}
			ball.Weights[k] = x
		}
	}
	bits, has := make([]bitstr.String, len(w.dist)), make([]bool, len(w.dist))
	for j := range w.dist {
		bits[j], has[j] = w.entry(j)
	}
	return new(BallView).View(ball, w.Center, w.Radius, slices.Clone(w.dist), bits, has, nil)
}

// Restrict returns the sub-view of radius r ≤ w.Radius around the same
// center. Because balls nest, the result equals the radius-r view built
// directly from the full instance; wrappers use it to simulate an inner
// verifier with a smaller horizon (§7.3). The proof is NOT inherited:
// pass the proof the inner verifier should see.
func (w *View) Restrict(r int, proof Proof) *View {
	if w.more != nil && r >= w.Radius {
		w.complete() // the sub-view's boundary is this one's
	}
	var pos, dist []int32
	for j, d := range w.dist {
		if int(d) <= r {
			pos = append(pos, int32(w.posOf(j)))
			dist = append(dist, d)
		}
	}
	sub := newView(w.src, proof, w.Center, r, pos, dist)
	sub.Global = w.Global
	return sub
}

// ViewsEqual reports whether two views show a verifier the same thing:
// center, radius, members with their distances, node labels, proof
// entries (an explicit ε differs from no entry), globals, and the
// induced edges with their labels and weights.
func ViewsEqual(a, b *View) bool {
	if a.Center != b.Center || a.Radius != b.Radius || !maps.Equal(a.Global, b.Global) {
		return false
	}
	na, nb := a.Nodes(), b.Nodes()
	if !slices.Equal(na, nb) {
		return false
	}
	for j, v := range na {
		if a.dist[j] != b.dist[j] || a.Label(v) != b.Label(v) {
			return false
		}
		sa, oka := a.entry(j)
		sb, okb := b.entry(j)
		if oka != okb || !sa.Equal(sb) {
			return false
		}
	}
	ga, gb := a.Graph(), b.Graph()
	if !graph.Equal(ga, gb) {
		return false
	}
	// Edge input is compared under each induced edge's normalized key,
	// as the source stores it (an arc and its reverse share one key).
	for _, e := range ga.Edges() {
		k := graph.NormEdge(e.U, e.V)
		if a.src.EdgeLabel[k] != b.src.EdgeLabel[k] || a.src.Weights[k] != b.src.Weights[k] {
			return false
		}
	}
	return true
}

// flatPool recycles the whole-instance proof tables of CheckCtx.
var flatPool sync.Pool // *FlatProof

// CheckCtx is Check with context cancellation: the sequential sweep
// aborts between nodes once the context is done and returns the partial
// result together with ctx.Err(). The proof is loaded once into a
// pooled flat table, and the nodes are walked with one reused View and
// one reused ball buffer, so a node costs its BFS and its verifier call:
// no map and no induced graph per node. A background context adds no
// per-node cost (its Done channel is nil and the check is skipped).
func CheckCtx(ctx context.Context, in *Instance, p Proof, v Verifier) (*Result, error) {
	res := &Result{Outputs: make(map[int]bool, in.G.N())}
	err := Walk(ctx, in, p, v.Radius(), func(w *View) bool {
		res.Outputs[w.Center] = v.Verify(w)
		return true
	})
	return res, err
}

// Walk hands fn the radius-r view of every node of in, in ascending
// node order, with the proof p: the sequential walk behind CheckCtx and
// the façade's core stream. Every call receives the same reused View,
// valid only until fn returns. The walk stops early when fn returns
// false (Walk then returns nil) or, between nodes, when ctx is done
// (Walk returns ctx.Err()).
func Walk(ctx context.Context, in *Instance, p Proof, radius int, fn func(*View) bool) error {
	fp, ok := flatPool.Get().(*FlatProof)
	if !ok {
		fp = &FlatProof{}
	}
	defer flatPool.Put(fp)
	fp.reset(in.G)
	fp.Load(p)
	defer fp.reset(nil) // drop the proof strings before pooling
	done := ctx.Done()
	var w View
	var pos, dist []int32
	for _, node := range in.G.Nodes() {
		if done != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		pos, dist = in.G.AppendBall(pos[:0], dist[:0], node, radius)
		w.reset(in, node, radius, pos, dist, fp, false)
		if !fn(&w) {
			return nil
		}
	}
	return nil
}
