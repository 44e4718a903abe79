package graph

import (
	"fmt"
	"slices"
	"sync"
)

// The ball/view hot paths (one BFS per node per view construction) used
// to allocate a fresh map[int]int per call. At the scale tier (n=10^5 to
// 10^6 nodes) that map churn dominates the runtime, so the BFS
// bookkeeping now lives in a pooled, epoch-stamped scratch: flat []int32
// distance and stamp arrays indexed by node position, where an entry is
// visited iff its stamp equals the scratch's current epoch. Reusing a
// scratch costs one epoch increment instead of O(n) clearing, and the
// pool makes every ball construction allocation-free except for the
// result itself.

// scratch is the reusable BFS workspace. All arrays are indexed by node
// position (Graph.Index order); queue doubles as the output order.
type scratch struct {
	stamp []uint32 // visited iff stamp[i] == epoch
	dist  []int32  // BFS distance, valid iff stamped
	queue []int32  // BFS queue of node positions, in visit order
	epoch uint32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch draws a scratch sized for n nodes and opens a fresh epoch.
func getScratch(n int) *scratch {
	//lint:ignore poolput ownership transfer: the caller returns the scratch via putScratch (deferred at every call site)
	s := scratchPool.Get().(*scratch)
	if cap(s.stamp) < n {
		s.stamp = make([]uint32, n)
		s.dist = make([]int32, n)
		s.epoch = 0
	} else {
		s.stamp = s.stamp[:n]
		s.dist = s.dist[:n]
	}
	s.epoch++
	if s.epoch == 0 {
		// Epoch wrapped around: older stamps could now collide, so pay
		// the one-off clear and restart at 1.
		clear(s.stamp)
		s.epoch = 1
	}
	s.queue = s.queue[:0]
	return s
}

func putScratch(s *scratch) { scratchPool.Put(s) }

// ballBFS floods outward from node position ci up to the given radius,
// stamping every reached position and recording its distance. On return
// s.queue holds the ball's positions in BFS order. Distances follow
// undirected reachability even in directed graphs, because the LOCAL
// model's communication graph is the underlying undirected graph.
func (g *Graph) ballBFS(ci int, radius int, s *scratch) {
	s.stamp[ci] = s.epoch
	s.dist[ci] = 0
	s.queue = append(s.queue, int32(ci))
	if radius <= 0 {
		return
	}
	visit := func(v int, d int32) {
		if i, ok := g.lookup(v); ok && s.stamp[i] != s.epoch {
			s.stamp[i] = s.epoch
			s.dist[i] = d
			s.queue = append(s.queue, int32(i))
		}
	}
	for head := 0; head < len(s.queue); head++ {
		ui := int(s.queue[head])
		d := s.dist[ui]
		if int(d) >= radius {
			// BFS visits in distance order; once the frontier reaches
			// the radius every later entry is at the radius too.
			break
		}
		for _, v := range g.row(ui) {
			visit(v, d+1)
		}
		if g.kind == Directed {
			for _, v := range g.inRow(ui) {
				visit(v, d+1)
			}
		}
	}
}

// BallAround returns the set of nodes within distance radius of center
// (V[v,r] in the paper) along with their distances from the center.
// Distances follow undirected reachability even in directed graphs. The
// BFS runs on the pooled epoch scratch; the only allocations are the
// returned slice and the exactly-sized distance map.
func (g *Graph) BallAround(center int, radius int) (nodes []int, dist map[int]int) {
	s := getScratch(len(g.ids))
	defer putScratch(s)
	g.ballBFS(g.mustIndex(center), radius, s)
	nodes = make([]int, len(s.queue))
	dist = make(map[int]int, len(s.queue))
	for j, i := range s.queue {
		id := g.ids[i]
		nodes[j] = id
		dist[id] = int(s.dist[i])
	}
	slices.Sort(nodes)
	return nodes, dist
}

// AppendBall appends the radius-r ball of center to pos and dist and
// returns the extended slices: pos receives the members' positions in
// Nodes() in ascending order (so their identifiers ascend too), dist
// each member's distance from center, aligned with pos. It is the
// map-free, graph-free ball of core's flat views — with reused slices,
// repeated calls do not allocate beyond slice growth.
func (g *Graph) AppendBall(pos, dist []int32, center, radius int) ([]int32, []int32) {
	s := getScratch(len(g.ids))
	defer putScratch(s)
	g.ballBFS(g.mustIndex(center), radius, s)
	base := len(pos)
	pos = append(pos, s.queue...)
	slices.Sort(pos[base:])
	for _, i := range pos[base:] {
		dist = append(dist, s.dist[i])
	}
	return pos, dist
}

// InducedAt returns the subgraph induced by the nodes at the given
// positions of Nodes(), which must be ascending and distinct: the
// Induced of a ball already held as positions (AppendBall's output),
// without the identifier lookups.
func (g *Graph) InducedAt(pos []int32) *Graph {
	s := getScratch(len(g.ids))
	defer putScratch(s)
	ids := make([]int, len(pos))
	for j, i := range pos {
		s.stamp[i] = s.epoch
		ids[j] = g.ids[i]
	}
	return g.inducedFromStamped(ids, pos, s)
}

// InducedBall builds the radius-r ball around center together with its
// induced subgraph G[v,r] in one pass: the BFS and the subgraph assembly
// share the same stamped scratch, so constructing a view costs two scans
// of the ball's adjacency rows and no intermediate maps. nodes is sorted
// ascending and aliases ball.Nodes(); dist carries the distance of every
// ball member from center.
//
// It serves callers that need the ball graph up front, such as the
// line-graph check; core's views hold AppendBall's ball instead and
// induce lazily, through InducedAt. BallAround followed by Induced gives the same ball and graph
// at roughly twice the traversal cost plus the map churn.
func (g *Graph) InducedBall(center, radius int) (ball *Graph, nodes []int, dist map[int]int) {
	s := getScratch(len(g.ids))
	defer putScratch(s)
	g.ballBFS(g.mustIndex(center), radius, s)
	idxs := s.queue
	slices.Sort(idxs)
	nodes = make([]int, len(idxs))
	dist = make(map[int]int, len(idxs))
	for j, i := range idxs {
		id := g.ids[i]
		nodes[j] = id
		dist[id] = int(s.dist[i])
	}
	ball = g.inducedFromStamped(nodes, idxs, s)
	return ball, nodes, dist
}

// checkCSRBounds guards the int32 offset representation: a graph would
// need more than 2^31-1 adjacency slots to overflow it, far past the
// scale tier's footprint, but trusted constructors still refuse rather
// than corrupt.
func checkCSRBounds(slots int) {
	if slots > int(int32(^uint32(0)>>1)) {
		panic(fmt.Sprintf("graph: adjacency of %d slots overflows the CSR offsets", slots))
	}
}
