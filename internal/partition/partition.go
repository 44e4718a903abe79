package partition

import (
	"fmt"
	"sort"

	"lcp/internal/graph"
)

// Partitioner computes a node→shard assignment for a graph. Assign
// returns a slice aligned with g.Nodes(): entry i is the shard (in
// [0, shards)) owning node g.Nodes()[i]. It returns nil when shards <= 0
// or the graph is empty. Implementations must be deterministic — the
// engine rebuilds assignments after cache invalidation and the property
// tests compare runs — and need not be safe for concurrent mutation,
// but the stateless implementations in this package are safe to share.
type Partitioner interface {
	// Name is the stable registry key ("contiguous", "bfs", "greedy")
	// used by flags and HTTP request options.
	Name() string
	Assign(g *graph.Graph, shards int) []int
}

// clampShards mirrors the schedulers' shard-count rules: at most one
// shard per node, nil assignment when there is nothing to split.
func clampShards(n, shards int) int {
	if shards > n {
		shards = n
	}
	return shards
}

// SplitRanges partitions n items into at most parts contiguous [lo, hi)
// ranges of near-equal size; nil when parts <= 0 or n == 0. It is the
// shared range splitter behind Contiguous and every worker pool that
// shards a node slice (internal/engine's forEachRange).
func SplitRanges(n, parts int) [][2]int {
	parts = clampShards(n, parts)
	if parts <= 0 || n == 0 {
		return nil
	}
	out := make([][2]int, 0, parts)
	lo := 0
	for i := 0; i < parts; i++ {
		hi := lo + (n-lo)/(parts-i)
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}

// Validate checks that assign is a plausible node→shard assignment for
// an n-node graph split into shards parts: one entry per node, every
// entry in [0, shards). Schedulers call this before trusting a
// caller-supplied Partitioner with their wiring.
func Validate(assign []int, n, shards int) error {
	if len(assign) != n {
		return fmt.Errorf("partition: assignment covers %d of %d nodes", len(assign), n)
	}
	for i, s := range assign {
		if s < 0 || s >= shards {
			return fmt.Errorf("partition: node index %d assigned to shard %d of %d", i, s, shards)
		}
	}
	return nil
}

// Groups converts an assignment into per-shard node-id lists, aligned
// with the assignment's shard indices. Ids within a group keep the
// ascending g.Nodes() order, so downstream wiring is deterministic.
// Groups may be empty when a shard received no nodes.
func Groups(g *graph.Graph, assign []int, shards int) [][]int {
	groups := make([][]int, shards)
	for i, id := range g.Nodes() {
		s := assign[i]
		groups[s] = append(groups[s], id)
	}
	return groups
}

// CutEdges counts the edges of g whose endpoints are assigned to
// different shards — the edges that cost per-round transport traffic in
// the shard layouts (each one becomes two directed cut-edge links).
// assign is indexed like Assign's result.
func CutEdges(g *graph.Graph, assign []int) int {
	cut := 0
	for _, e := range g.Edges() {
		if assign[g.Index(e.U)] != assign[g.Index(e.V)] {
			cut++
		}
	}
	return cut
}

// ByName resolves a registry key to its partitioner: "contiguous",
// "bfs", or "greedy". The empty string resolves to Contiguous, the
// zero-configuration default of every scheduler.
func ByName(name string) (Partitioner, error) {
	switch name {
	case "", "contiguous":
		return Contiguous{}, nil
	case "bfs":
		return BFSChunks{}, nil
	case "greedy":
		return GreedyBalanced{}, nil
	}
	return nil, fmt.Errorf("partition: unknown partitioner %q (have %v)", name, Names())
}

// Names lists the registry keys ByName accepts, sorted.
func Names() []string {
	names := []string{"bfs", "contiguous", "greedy"}
	sort.Strings(names)
	return names
}
