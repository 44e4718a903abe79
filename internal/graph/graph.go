package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Kind distinguishes undirected from directed graphs.
type Kind int

const (
	// Undirected graphs are the default throughout the paper.
	Undirected Kind = iota + 1
	// Directed graphs appear in the s–t unreachability scheme (§4.1).
	Directed
)

// Edge is a graph edge. For undirected graphs it is normalized so that
// U < V; for directed graphs it is the ordered pair (U, V).
type Edge struct {
	U, V int
}

// NormEdge returns the normalized undirected edge key for (u, v).
func NormEdge(u, v int) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}

// sortEdges orders edges by (U, V) — the canonical order of Edges() and
// the order every CSR assembly step expects.
func sortEdges(edges []Edge) {
	slices.SortFunc(edges, func(a, b Edge) int {
		if a.U != b.U {
			return a.U - b.U
		}
		return a.V - b.V
	})
}

// idxMapThreshold is the node count above which a non-dense graph builds
// an id→index hash map. Below it, Index/Lookup binary-search the sorted
// identifier list: for the small ball graphs the verification hot paths
// construct per node, the search is faster than paying a map allocation
// at construction time.
const idxMapThreshold = 64

// Graph is an immutable simple graph in compressed-sparse-row form: one
// flat adjacency array plus per-node row offsets, instead of a slice per
// node. The zero value is an empty undirected graph.
//
// Identifier lookup has three tiers: contiguous identifiers 1..n resolve
// arithmetically (the dense fast path — every generator graph takes
// it), small graphs binary-search the sorted identifier list, and
// large sparse identifier sets fall back to a hash map.
type Graph struct {
	kind  Kind
	ids   []int       // node identifiers, ascending
	dense bool        // ids are exactly 1..n: Index(id) = id-1, no map
	idx   map[int]int // identifier -> position; nil when dense or small
	off   []int32     // row offsets into adj, len n+1
	adj   []int       // flat out-adjacency (identifiers), each row ascending
	inOff []int32     // directed only: row offsets into inAdj
	inAdj []int       // directed only: flat in-adjacency
	m     int         // number of edges
}

// row returns the out-adjacency row of node index i.
func (g *Graph) row(i int) []int { return g.adj[g.off[i]:g.off[i+1]] }

// inRow returns the in-adjacency row of node index i (directed graphs).
func (g *Graph) inRow(i int) []int { return g.inAdj[g.inOff[i]:g.inOff[i+1]] }

// lookup resolves an identifier to its position in ids, through whichever
// of the three lookup tiers the graph uses.
func (g *Graph) lookup(id int) (int, bool) {
	if g.dense {
		if id >= 1 && id <= len(g.ids) {
			return id - 1, true
		}
		return 0, false
	}
	if g.idx != nil {
		i, ok := g.idx[id]
		return i, ok
	}
	i := sort.SearchInts(g.ids, id)
	if i < len(g.ids) && g.ids[i] == id {
		return i, true
	}
	return 0, false
}

// initLookup decides the lookup tier for a frozen identifier list. A
// graph that needs an id map takes s's map, cleared, when s is non-nil,
// and a fresh one otherwise.
func (g *Graph) initLookup(s *CSRScratch) {
	n := len(g.ids)
	g.dense = n > 0 && g.ids[0] == 1 && g.ids[n-1] == n
	if g.dense || n < idxMapThreshold {
		return
	}
	if s == nil {
		g.idx = make(map[int]int, n)
	} else {
		if s.idx == nil {
			s.idx = make(map[int]int, n)
		}
		clear(s.idx)
		g.idx = s.idx
	}
	for i, id := range g.ids {
		g.idx[id] = i
	}
}

// CSRScratch is the working storage ResetParts reuses from one rebuild
// to the next: the fill cursors, and the id map of the last graph that
// needed one. The zero value is ready. A graph rebuilt with a scratch
// shares its id map, so a scratch serves one graph at a time.
type CSRScratch struct {
	cur []int32
	idx map[int]int
}

// assemble freezes validated parts into a new CSR graph (see fill).
func assemble(kind Kind, ids []int, edges []Edge) *Graph {
	g := &Graph{}
	g.fill(kind, ids, edges, nil)
	return g
}

// fill rebuilds g from validated parts, reusing its CSR arrays where
// they are large enough (none, for a new graph), and s's cursors and id
// map when s is non-nil. ids must be strictly ascending and cover every
// edge endpoint; edges must be sorted by (U, V), deduplicated, and
// normalized (U < V) for undirected kinds. Sorted edge input is what
// keeps every adjacency row ascending without a per-row sort: row v
// first receives the partners u < v (edges (u, v) arrive in ascending
// u) and then the partners w > v (edges (v, w) arrive in ascending w).
func (g *Graph) fill(kind Kind, ids []int, edges []Edge, s *CSRScratch) {
	if kind != Directed {
		kind = Undirected
	}
	n := len(ids)
	slots := len(edges)
	if kind != Directed {
		slots *= 2
	}
	checkCSRBounds(slots)
	*g = Graph{kind: kind, ids: ids, m: len(edges), off: zeroed(g.off, n+1), adj: resized(g.adj, slots), inOff: g.inOff[:0], inAdj: g.inAdj[:0]}
	g.initLookup(s)
	if kind == Directed {
		g.inOff = zeroed(g.inOff, n+1)
		g.inAdj = resized(g.inAdj, len(edges))
	}
	for _, e := range edges {
		g.off[g.mustIndex(e.U)+1]++
		if kind == Directed {
			g.inOff[g.mustIndex(e.V)+1]++
		} else {
			g.off[g.mustIndex(e.V)+1]++
		}
	}
	for i := 0; i < n; i++ {
		g.off[i+1] += g.off[i]
	}
	k := n // the fill cursors: one per row, and one per in-row
	if kind == Directed {
		k *= 2
	}
	var cur []int32
	if s != nil {
		s.cur = zeroed(s.cur, k)
		cur = s.cur
	} else {
		cur = make([]int32, k)
	}
	if kind == Directed {
		for i := 0; i < n; i++ {
			g.inOff[i+1] += g.inOff[i]
		}
		inCur := cur[n:]
		for _, e := range edges {
			iu, iv := g.mustIndex(e.U), g.mustIndex(e.V)
			g.adj[g.off[iu]+cur[iu]] = e.V
			cur[iu]++
			g.inAdj[g.inOff[iv]+inCur[iv]] = e.U
			inCur[iv]++
		}
		return
	}
	for _, e := range edges {
		iu, iv := g.mustIndex(e.U), g.mustIndex(e.V)
		g.adj[g.off[iu]+cur[iu]] = e.V
		cur[iu]++
		g.adj[g.off[iv]+cur[iv]] = e.U
		cur[iv]++
	}
}

// resized returns buf at length n, reallocated only when it is too
// small; its contents are unspecified.
func resized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// zeroed is resized, with every element zero.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

func (g *Graph) mustIndex(id int) int {
	i, ok := g.lookup(id)
	if !ok {
		panic(fmt.Sprintf("graph: unknown node %d", id))
	}
	return i
}

// Builder accumulates a graph. The zero value builds an undirected graph;
// use NewBuilder to choose the kind. Builders are not safe for concurrent
// use.
type Builder struct {
	kind  Kind
	nodes map[int]bool
	edges map[Edge]bool
}

// NewBuilder returns a Builder for a graph of the given kind.
func NewBuilder(kind Kind) *Builder {
	if kind != Directed {
		kind = Undirected
	}
	return &Builder{kind: kind, nodes: make(map[int]bool), edges: make(map[Edge]bool)}
}

// AddNode ensures node id exists. Identifiers must be positive: the paper
// identifies nodes with small natural numbers.
func (b *Builder) AddNode(id int) *Builder {
	if id <= 0 {
		panic(fmt.Sprintf("graph: node identifier %d is not positive", id))
	}
	if b.nodes == nil {
		b.nodes = make(map[int]bool)
		b.edges = make(map[Edge]bool)
	}
	b.nodes[id] = true
	return b
}

// AddEdge adds an edge (adding missing endpoints). Self-loops are
// rejected: the paper's graphs are simple. Duplicate edges are idempotent.
func (b *Builder) AddEdge(u, v int) *Builder {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at node %d", u))
	}
	b.AddNode(u)
	b.AddNode(v)
	e := Edge{U: u, V: v}
	if b.kind != Directed {
		e = NormEdge(u, v)
	}
	b.edges[e] = true
	return b
}

// AddPath adds edges along the given node sequence.
func (b *Builder) AddPath(ids ...int) *Builder {
	for i := 1; i < len(ids); i++ {
		b.AddEdge(ids[i-1], ids[i])
	}
	return b
}

// Graph freezes the builder into an immutable Graph. The builder may be
// reused afterwards; the Graph does not alias its storage.
func (b *Builder) Graph() *Graph {
	ids := make([]int, 0, len(b.nodes))
	for id := range b.nodes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	edges := make([]Edge, 0, len(b.edges))
	for e := range b.edges {
		edges = append(edges, e)
	}
	sortEdges(edges)
	return assemble(b.kind, ids, edges)
}

// FromParts assembles a frozen Graph directly from its parts: a strictly
// ascending node identifier list and a deduplicated edge list whose
// endpoints all appear in ids (normalized U < V for undirected graphs,
// the ordered arc for directed ones). It skips Builder's node and edge
// maps entirely, which makes it the allocation-lean constructor behind
// the dist runtime's incremental view assembly — one call per node per
// run on the hottest path in the repository. The Graph takes ownership
// of ids and edges (the edge slice is sorted in place); the caller must
// not modify either afterwards, and must uphold the invariants itself.
// Use Builder when the input is untrusted, unordered, or still needed.
func FromParts(kind Kind, ids []int, edges []Edge) *Graph {
	sortEdges(edges)
	return assemble(kind, ids, edges)
}

// ResetParts rebuilds g in place from parts, as FromParts builds a new
// graph from them: g reuses its CSR arrays, and s its fill cursors and
// id map, wherever they are large enough, so a caller that rebuilds one
// graph per ball (the dist runtime's assembly arena) stops allocating
// once its buffers have grown to the largest ball. g takes ownership of
// ids and sorts edges in place; the same invariants hold. Every earlier
// reader of g sees the rebuilt graph: rebuild only a graph no one else
// still reads.
func (g *Graph) ResetParts(kind Kind, ids []int, edges []Edge, s *CSRScratch) {
	sortEdges(edges)
	g.fill(kind, ids, edges, s)
}

// Kind returns whether the graph is directed or undirected.
func (g *Graph) Kind() Kind {
	if g.kind == 0 {
		return Undirected
	}
	return g.kind
}

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.kind == Directed }

// N returns the number of nodes, n(G).
func (g *Graph) N() int { return len(g.ids) }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Nodes returns the node identifiers in ascending order. The caller must
// not modify the returned slice.
func (g *Graph) Nodes() []int { return g.ids }

// Has reports whether node id exists.
func (g *Graph) Has(id int) bool {
	_, ok := g.lookup(id)
	return ok
}

// Neighbors returns the neighbours of id in ascending order (out-neighbours
// for directed graphs). The caller must not modify the returned slice: it
// aliases the graph's flat adjacency array.
func (g *Graph) Neighbors(id int) []int {
	return g.row(g.mustIndex(id))
}

// InNeighbors returns the in-neighbours of id for a directed graph, and
// Neighbors(id) for an undirected one.
func (g *Graph) InNeighbors(id int) []int {
	if g.kind != Directed {
		return g.Neighbors(id)
	}
	return g.inRow(g.mustIndex(id))
}

// NeighborsAt is Neighbors of the node at position i of Nodes(), for
// callers that already hold positions (core's views); it skips the
// identifier lookup.
func (g *Graph) NeighborsAt(i int) []int { return g.row(i) }

// InNeighborsAt is InNeighbors of the node at position i of Nodes().
func (g *Graph) InNeighborsAt(i int) []int {
	if g.kind != Directed {
		return g.row(i)
	}
	return g.inRow(i)
}

// Degree returns the degree of id (out-degree for directed graphs).
func (g *Graph) Degree(id int) int { return len(g.Neighbors(id)) }

// UndirectedNeighbors returns the neighbours of id in the underlying
// undirected graph: Neighbors(id) as-is for undirected graphs, the
// sorted union of out- and in-neighbours for directed ones (a single
// merge of the two ascending rows — no map, no sort). This is the
// adjacency of the LOCAL model's communication graph (§2.1: views and
// message passing follow undirected reachability even on directed
// instances): BallAround follows it, and so do the dist runtime's
// links, which join each node to the neighbours its round-0 record lists.
func (g *Graph) UndirectedNeighbors(id int) []int {
	if g.kind != Directed {
		return g.Neighbors(id)
	}
	i := g.mustIndex(id)
	a, b := g.row(i), g.inRow(i)
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]int, 0, len(a)+len(b))
	x, y := 0, 0
	for x < len(a) && y < len(b) {
		switch {
		case a[x] < b[y]:
			out = append(out, a[x])
			x++
		case a[x] > b[y]:
			out = append(out, b[y])
			y++
		default:
			out = append(out, a[x])
			x++
			y++
		}
	}
	out = append(out, a[x:]...)
	out = append(out, b[y:]...)
	return out
}

// HasEdge reports whether the edge (u, v) exists. For undirected graphs
// the order of u and v is irrelevant. Unknown endpoints simply yield
// false: verifiers probe views with arbitrary identifiers.
func (g *Graph) HasEdge(u, v int) bool {
	i, ok := g.lookup(u)
	if !ok {
		return false
	}
	adj := g.row(i)
	j := sort.SearchInts(adj, v)
	return j < len(adj) && adj[j] == v
}

// Edges returns all edges. For undirected graphs each edge appears once,
// normalized; for directed graphs each arc appears once. The result is
// sorted: the CSR rows are ascending and scanned in ascending node order,
// so the edges fall out sorted without a final sort pass.
func (g *Graph) Edges() []Edge { return g.AppendEdges(make([]Edge, 0, g.m)) }

// AppendEdges appends the edges, in Edges' order, to dst and returns
// the extended slice.
func (g *Graph) AppendEdges(dst []Edge) []Edge {
	for i, u := range g.ids {
		for _, v := range g.row(i) {
			if g.kind == Directed || u < v {
				dst = append(dst, Edge{U: u, V: v})
			}
		}
	}
	return dst
}

// MaxID returns the largest node identifier, or 0 for the empty graph.
func (g *Graph) MaxID() int {
	if len(g.ids) == 0 {
		return 0
	}
	return g.ids[len(g.ids)-1]
}

// Index returns the position of id in Nodes(), for dense indexing.
func (g *Graph) Index(id int) int { return g.mustIndex(id) }

// Lookup returns the position of id in Nodes() and whether the node
// exists — the non-panicking Index used by array-backed structures
// (core.FlatProof) that are probed with arbitrary identifiers.
func (g *Graph) Lookup(id int) (int, bool) { return g.lookup(id) }

// Induced returns the subgraph induced by keep: its nodes are the known
// identifiers in keep and its edges are all edges of g with both endpoints
// kept. This is the G[v,r] operation of §2.1 when keep is a ball. The
// membership test runs on a pooled epoch-stamped scratch and the result
// is assembled row-filter by row-filter into CSR form, so no Builder maps
// are built.
func (g *Graph) Induced(keep []int) *Graph {
	s := getScratch(len(g.ids))
	defer putScratch(s)
	idxs := make([]int32, 0, len(keep))
	for _, id := range keep {
		if i, ok := g.lookup(id); ok && s.stamp[i] != s.epoch {
			s.stamp[i] = s.epoch
			idxs = append(idxs, int32(i))
		}
	}
	slices.Sort(idxs)
	ids := make([]int, len(idxs))
	for j, i := range idxs {
		ids[j] = g.ids[i]
	}
	return g.inducedFromStamped(ids, idxs, s)
}

// inducedFromStamped builds the subgraph over the stamped node set: ids
// is the sorted kept identifiers, idxs the matching sorted positions in
// g, and s the scratch whose current epoch marks membership. Two passes
// over the kept rows — an exact count, then the fill — produce the CSR
// arrays with no per-row slices and no overshoot.
func (g *Graph) inducedFromStamped(ids []int, idxs []int32, s *scratch) *Graph {
	n := len(ids)
	sub := &Graph{kind: g.Kind(), ids: ids}
	sub.initLookup(nil)
	sub.off = make([]int32, n+1)
	directed := g.kind == Directed
	if directed {
		sub.inOff = make([]int32, n+1)
	}
	kept := func(v int) bool {
		i, ok := g.lookup(v)
		return ok && s.stamp[i] == s.epoch
	}
	for j, i := range idxs {
		for _, v := range g.row(int(i)) {
			if kept(v) {
				sub.off[j+1]++
			}
		}
		if directed {
			for _, v := range g.inRow(int(i)) {
				if kept(v) {
					sub.inOff[j+1]++
				}
			}
		}
	}
	for j := 0; j < n; j++ {
		sub.off[j+1] += sub.off[j]
	}
	sub.adj = make([]int, sub.off[n])
	if directed {
		for j := 0; j < n; j++ {
			sub.inOff[j+1] += sub.inOff[j]
		}
		sub.inAdj = make([]int, sub.inOff[n])
	}
	for j, i := range idxs {
		w := sub.off[j]
		for _, v := range g.row(int(i)) {
			if kept(v) {
				sub.adj[w] = v
				w++
			}
		}
		if directed {
			w = sub.inOff[j]
			for _, v := range g.inRow(int(i)) {
				if kept(v) {
					sub.inAdj[w] = v
					w++
				}
			}
		}
	}
	if directed {
		sub.m = len(sub.adj)
	} else {
		sub.m = len(sub.adj) / 2
	}
	return sub
}

// Relabel returns a copy of g with every node id replaced by m[id]. The
// mapping must be defined and injective on V(G), with positive images.
// Relabeling realizes the paper's notion that properties are closed under
// re-assigning identifiers.
func (g *Graph) Relabel(m map[int]int) *Graph {
	ids := make([]int, len(g.ids))
	for i, id := range g.ids {
		nid, ok := m[id]
		if !ok {
			panic(fmt.Sprintf("graph: relabel mapping missing node %d", id))
		}
		if nid <= 0 {
			panic(fmt.Sprintf("graph: node identifier %d is not positive", nid))
		}
		ids[i] = nid
	}
	sorted := slices.Clone(ids)
	slices.Sort(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			panic(fmt.Sprintf("graph: relabel mapping not injective at %d", sorted[i]))
		}
	}
	edges := make([]Edge, 0, g.m)
	for i, u := range g.ids {
		nu := ids[i]
		for _, v := range g.row(i) {
			if g.kind == Directed {
				edges = append(edges, Edge{U: nu, V: m[v]})
			} else if u < v {
				edges = append(edges, NormEdge(nu, m[v]))
			}
		}
	}
	sortEdges(edges)
	return assemble(g.Kind(), sorted, edges)
}

// ShiftIDs returns a copy of g with every identifier increased by delta.
// This is the C(G, i) "shifted identifiers" operation of §6.1.
func (g *Graph) ShiftIDs(delta int) *Graph {
	m := make(map[int]int, len(g.ids))
	for _, id := range g.ids {
		m[id] = id + delta
	}
	return g.Relabel(m)
}

// DisjointUnion returns the disjoint union of g and h. Node identifier
// sets must already be disjoint; the paper's constructions always arrange
// this explicitly (e.g. via ShiftIDs).
func DisjointUnion(g, h *Graph) *Graph {
	if g.Kind() != h.Kind() {
		panic("graph: disjoint union of mixed kinds")
	}
	b := NewBuilder(g.Kind())
	for _, id := range g.Nodes() {
		b.AddNode(id)
	}
	for _, id := range h.Nodes() {
		if g.Has(id) {
			panic(fmt.Sprintf("graph: identifier %d present in both union operands", id))
		}
		b.AddNode(id)
	}
	for _, e := range g.Edges() {
		b.AddEdge(e.U, e.V)
	}
	for _, e := range h.Edges() {
		b.AddEdge(e.U, e.V)
	}
	return b.Graph()
}

// WithEdges returns a copy of g with the given extra edges added and the
// given edges removed (removals applied after additions). It is used by
// gluing constructions that cut and re-join cycles.
func (g *Graph) WithEdges(add []Edge, remove []Edge) *Graph {
	b := NewBuilder(g.Kind())
	for _, id := range g.Nodes() {
		b.AddNode(id)
	}
	removed := make(map[Edge]bool, len(remove))
	for _, e := range remove {
		if g.kind != Directed {
			e = NormEdge(e.U, e.V)
		}
		removed[e] = true
	}
	for _, e := range g.Edges() {
		if !removed[e] {
			b.AddEdge(e.U, e.V)
		}
	}
	for _, e := range add {
		key := e
		if g.kind != Directed {
			key = NormEdge(e.U, e.V)
		}
		if !removed[key] {
			b.AddEdge(e.U, e.V)
		}
	}
	return b.Graph()
}

// Equal reports whether g and h are identical labelled graphs: same kind,
// same identifier set, same edge set. (Not isomorphism; see graphalg.)
func Equal(g, h *Graph) bool {
	if g.Kind() != h.Kind() || g.N() != h.N() || g.M() != h.M() {
		return false
	}
	for i, id := range g.ids {
		if h.ids[i] != id {
			return false
		}
	}
	for i := range g.ids {
		adj, hadj := g.row(i), h.row(i)
		if len(adj) != len(hadj) {
			return false
		}
		for j := range adj {
			if adj[j] != hadj[j] {
				return false
			}
		}
	}
	return true
}

// String renders a compact description, e.g. "undirected n=4 m=3".
func (g *Graph) String() string {
	kind := "undirected"
	if g.kind == Directed {
		kind = "directed"
	}
	return fmt.Sprintf("%s n=%d m=%d", kind, g.N(), g.M())
}
