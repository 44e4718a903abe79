package graph

import (
	"fmt"
	"slices"
)

// Trusted bulk constructors for the scale tier. Builder pays a node map
// and an edge map per graph to dedup untrusted input; at n=10^5–10^6
// that dominates construction. Generators and loaders that can vouch for
// their edges (or accept a single sort+dedup pass over a flat slice)
// build the CSR arrays directly through these instead.

// FromSortedEdges assembles a graph from a trusted edge list: sorted by
// (U, V), deduplicated, self-loop-free, with positive identifiers, and
// normalized U < V for undirected kinds. ids, when non-nil, is the
// strictly ascending node identifier list and must cover every endpoint
// (extra entries add isolated nodes); when nil, the identifier list is
// derived from the endpoints. The Graph takes ownership of both slices.
// Invariants are the caller's responsibility — use FromEdges for input
// that still needs normalizing, Builder for incremental construction.
func FromSortedEdges(kind Kind, ids []int, edges []Edge) *Graph {
	if ids == nil {
		ids = endpointIDs(edges)
	}
	return assemble(kind, ids, edges)
}

// FromEdges assembles a graph from an edge list in any order, possibly
// with duplicates: it normalizes (for undirected kinds), sorts, and
// dedups the slice in place, then builds the CSR arrays directly — one
// O(m log m) pass instead of Builder's per-edge map insertions. Node
// identifiers must be positive and edges self-loop-free (it panics
// otherwise, like Builder); nodes lists extra identifiers to include as
// isolated nodes (nil is fine, duplicates are allowed). The Graph takes
// ownership of both slices.
func FromEdges(kind Kind, nodes []int, edges []Edge) *Graph {
	if kind != Directed {
		kind = Undirected
	}
	for i, e := range edges {
		if e.U == e.V {
			panic(fmt.Sprintf("graph: self-loop at node %d", e.U))
		}
		if e.U <= 0 || e.V <= 0 {
			panic(fmt.Sprintf("graph: node identifier %d is not positive", min(e.U, e.V)))
		}
		if kind != Directed {
			edges[i] = NormEdge(e.U, e.V)
		}
	}
	sortEdges(edges)
	edges = slices.Compact(edges)
	ids := endpointIDs(edges)
	if len(nodes) > 0 {
		for _, id := range nodes {
			if id <= 0 {
				panic(fmt.Sprintf("graph: node identifier %d is not positive", id))
			}
		}
		ids = append(ids, nodes...)
		slices.Sort(ids)
		ids = slices.Compact(ids)
	}
	return assemble(kind, ids, edges)
}

// endpointIDs derives the sorted, deduplicated identifier list from the
// edge endpoints.
func endpointIDs(edges []Edge) []int {
	ids := make([]int, 0, 2*len(edges))
	for _, e := range edges {
		ids = append(ids, e.U, e.V)
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}
