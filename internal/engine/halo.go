package engine

import "lcp/internal/core"

// HaloInstance restricts the instance to the union of radius-r balls
// around the owned nodes. The multi-process coordinator uses it to ship
// each worker its shard's slice: at radius 1 the halo contains every
// owned node with all incident edges and their endpoints, which is
// exactly the round-0 knowledge a dist.Shard needs (everything deeper
// arrives over the wire). The graph is induced on the halo; the
// labelling maps are shared with the parent (records only ever read
// entries of member nodes).
func HaloInstance(in *core.Instance, owned []int, radius int) *core.Instance {
	seen := make(map[int]bool, len(owned))
	frontier := make([]int, 0, len(owned))
	halo := make([]int, 0, len(owned))
	for _, v := range owned {
		seen[v] = true
		frontier = append(frontier, v)
		halo = append(halo, v)
	}
	for d := 1; d <= radius && len(frontier) > 0; d++ {
		var next []int
		for _, u := range frontier {
			for _, w := range in.G.UndirectedNeighbors(u) {
				if !seen[w] {
					seen[w] = true
					next = append(next, w)
					halo = append(halo, w)
				}
			}
		}
		frontier = next
	}
	return &core.Instance{
		G:         in.G.Induced(halo),
		NodeLabel: in.NodeLabel,
		EdgeLabel: in.EdgeLabel,
		Weights:   in.Weights,
		Global:    in.Global,
	}
}
