package graphalg

import (
	"sort"
	"sync"

	"lcp/internal/graph"
)

// Line-graph recognition (§1.1). By Beineke's characterisation, G is a
// line graph iff G contains none of nine forbidden induced subgraphs,
// each connected with at most 6 vertices. Equivalently: every connected
// induced subgraph of G on ≤ 6 vertices is itself a line graph. That
// reformulation is what the local verifier checks, and it lets us
// avoid hard-coding the nine graphs: a small graph H is a line graph iff
// some root graph R with |E(R)| = |V(H)| satisfies L(R) ≅ H, which we
// decide by exhaustive root search with memoisation. A test reproduces
// Beineke's "exactly nine" as an experiment.

// BeinekeBound is the number of vertices below which the forbidden
// subgraphs live: every minimal non-line-graph has at most 6 vertices.
const BeinekeBound = 6

// LineGraphRadius is the radius of the line-graph verifier: each of
// Beineke's nine forbidden graphs has radius at most 2, so a copy of one
// in G lies inside G[c,2] for one of its centres c, and
// LineGraphLocalCheck at c finds it (TestBeinekeNine checks the radii).
const LineGraphRadius = 2

// smallLineGraphCache memoises IsSmallLineGraph by canonical key.
var smallLineGraphCache sync.Map // string -> bool

// IsSmallLineGraph decides whether the connected graph h on at most
// BeinekeBound vertices is a line graph, by searching for a root graph.
func IsSmallLineGraph(h *graph.Graph) bool {
	n := h.N()
	if n == 0 {
		return true
	}
	if n > BeinekeBound {
		panic("graphalg: IsSmallLineGraph beyond Beineke bound")
	}
	key := canonicalKeyOf(h)
	if v, ok := smallLineGraphCache.Load(key); ok {
		return v.(bool)
	}
	res := hasRootGraph(h)
	smallLineGraphCache.Store(key, res)
	return res
}

func canonicalKeyOf(g *graph.Graph) string {
	order := CanonicalOrder(g)
	pos := make(map[int]int, len(order))
	for i, v := range order {
		pos[v] = i
	}
	key := make([]byte, 0, g.N()*g.N()/8+2)
	key = append(key, byte(g.N()))
	var cur byte
	bits := 0
	for i, u := range order {
		for _, v := range order[i+1:] {
			cur <<= 1
			if g.HasEdge(u, v) {
				cur |= 1
			}
			bits++
			if bits == 8 {
				key = append(key, cur)
				cur, bits = 0, 0
			}
		}
	}
	if bits > 0 {
		key = append(key, cur<<(8-uint(bits)))
	}
	return string(key)
}

// hasRootGraph searches for a connected root R with exactly n(h) edges on
// up to n(h)+1 vertices such that L(R) ≅ h.
func hasRootGraph(h *graph.Graph) bool {
	m := h.N() // edges of the root
	if m == 1 {
		return true // K1 = L(K2)
	}
	maxV := m + 1
	for t := 2; t <= maxV; t++ {
		// All possible edges of K_t.
		var pool []graph.Edge
		for i := 1; i <= t; i++ {
			for j := i + 1; j <= t; j++ {
				pool = append(pool, graph.Edge{U: i, V: j})
			}
		}
		if len(pool) < m {
			continue
		}
		sel := make([]int, m)
		var choose func(start, k int) bool
		choose = func(start, k int) bool {
			if k == m {
				b := graph.NewBuilder(graph.Undirected)
				for _, ei := range sel {
					b.AddEdge(pool[ei].U, pool[ei].V)
				}
				r := b.Graph()
				if r.N() != t || !Connected(r) {
					return false
				}
				lg := graph.LineGraphOf(r)
				return IsIsomorphic(lg, h)
			}
			for i := start; i <= len(pool)-(m-k); i++ {
				sel[k] = i
				if choose(i+1, k+1) {
					return true
				}
			}
			return false
		}
		if choose(0, 0) {
			return true
		}
	}
	return false
}

// IsLineGraph decides whether g (any size) is a line graph by the Beineke
// reformulation: every connected induced subgraph on ≤ 6 vertices must be
// a line graph. This doubles as the ground truth for the LCP(0) scheme's
// experiments.
func IsLineGraph(g *graph.Graph) bool {
	for _, v := range g.Nodes() {
		if !LineGraphLocalCheck(g, v) {
			return false
		}
	}
	return true
}

// LineGraphLocalCheck performs the per-node check of the LCP(0) verifier:
// every connected induced subgraph of g with at most 6 vertices
// containing v is a line graph. The enumeration walks g as it is: the
// verifier passes its view's radius-LineGraphRadius ball, which holds
// every forbidden graph centred at v, and IsLineGraph the whole graph.
func LineGraphLocalCheck(g *graph.Graph, v int) bool {
	ok := true
	connectedSubsetsThrough(g, v, BeinekeBound, func(subset []int) bool {
		h := g.Induced(subset)
		if !IsSmallLineGraph(h) {
			ok = false
			return true // stop
		}
		return false
	})
	return ok
}

// connectedSubsetsThrough enumerates the vertex sets of connected induced
// subgraphs of g that contain v, with at most maxSize vertices. stop is
// invoked for each; returning true aborts the enumeration. The standard
// enumeration grows the set by one neighbour at a time, with an exclusion
// set to avoid duplicates.
func connectedSubsetsThrough(g *graph.Graph, v int, maxSize int, stop func([]int) bool) {
	subset := []int{v}
	excluded := map[int]bool{v: true}
	var rec func() bool
	rec = func() bool {
		cp := append([]int{}, subset...)
		sort.Ints(cp)
		if stop(cp) {
			return true
		}
		if len(subset) == maxSize {
			return false
		}
		// Candidate extensions: neighbours of the subset not excluded.
		cand := make(map[int]bool)
		for _, x := range subset {
			for _, u := range g.Neighbors(x) {
				if !excluded[u] {
					cand[u] = true
				}
			}
		}
		var cands []int
		for u := range cand {
			cands = append(cands, u)
		}
		sort.Ints(cands)
		// Standard connected-subgraph enumeration: each candidate is
		// either taken now or excluded from this whole subtree.
		var undo []int
		for _, u := range cands {
			subset = append(subset, u)
			excluded[u] = true
			if rec() {
				return true
			}
			subset = subset[:len(subset)-1]
			undo = append(undo, u)
		}
		for _, u := range undo {
			delete(excluded, u)
		}
		return false
	}
	rec()
}

// MinimalForbiddenLineSubgraphs enumerates all connected graphs with at
// most maxN vertices (up to isomorphism) that are not line graphs but all
// of whose proper connected induced subgraphs are. With maxN = 6 this is
// Beineke's list of nine. Exponential in maxN; used by tests and the
// experiment harness.
func MinimalForbiddenLineSubgraphs(maxN int) []*graph.Graph {
	var out []*graph.Graph
	seen := make(map[string]bool)
	for n := 1; n <= maxN; n++ {
		enumerateConnectedGraphs(n, func(g *graph.Graph) {
			key := canonicalKeyOf(g)
			if seen[key] {
				return
			}
			seen[key] = true
			if IsSmallLineGraph(g) {
				return
			}
			// Minimality: removing any single vertex leaves (components
			// of) line graphs.
			for _, v := range g.Nodes() {
				var rest []int
				for _, u := range g.Nodes() {
					if u != v {
						rest = append(rest, u)
					}
				}
				sub := g.Induced(rest)
				for _, comp := range Components(sub) {
					if !IsSmallLineGraph(sub.Induced(comp)) {
						return // a proper induced subgraph already fails
					}
				}
			}
			out = append(out, g)
		})
	}
	return out
}

// enumerateConnectedGraphs calls fn on every connected labelled graph on
// vertices 1..n (callers deduplicate up to isomorphism).
func enumerateConnectedGraphs(n int, fn func(*graph.Graph)) {
	var pool []graph.Edge
	for i := 1; i <= n; i++ {
		for j := i + 1; j <= n; j++ {
			pool = append(pool, graph.Edge{U: i, V: j})
		}
	}
	total := 1 << uint(len(pool))
	for mask := 0; mask < total; mask++ {
		b := graph.NewBuilder(graph.Undirected)
		for i := 1; i <= n; i++ {
			b.AddNode(i)
		}
		for i, e := range pool {
			if mask&(1<<uint(i)) != 0 {
				b.AddEdge(e.U, e.V)
			}
		}
		g := b.Graph()
		if Connected(g) {
			fn(g)
		}
	}
}
