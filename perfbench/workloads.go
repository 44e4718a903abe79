package main

import (
	"math/bits"
	"math/rand"
	"sort"

	"lcp"
	"lcp/internal/core"
	"lcp/internal/graph"
)

// family is a workload: one graph family and the scheme certifying it,
// generated at the sizes the phases use. Every workload runs every
// phase, so every end-to-end metric has a value on each; the workloads
// differ in what the per-node work is made of.
type family struct {
	scheme core.Scheme
	serve  func(seed int64) *core.Instance // 4096 nodes
	scale  func(seed int64) *core.Instance // about 10^5 nodes
	fleet  func(seed int64) *core.Instance
}

var families = map[string]family{
	// Scrambled grids under the bipartite scheme: balls of at most five
	// nodes and one-bit proofs, so per-node work is small and the fixed
	// costs around it dominate (HTTP and JSON, the checker façade, wire
	// encoding, the coordinator). A one-bit tamper leaves most balls'
	// restrictions equal to the honest one, so the batch column path
	// deduplicates most verifier calls. Scrambled ids give the BFS
	// partitioner real locality to recover.
	"grid": {
		scheme: lcp.BipartiteScheme(),
		serve:  func(seed int64) *core.Instance { return scrambledGrid(64, seed) },
		scale:  func(seed int64) *core.Instance { return scrambledGrid(316, seed) },
		fleet:  func(seed int64) *core.Instance { return scrambledGrid(64, seed) },
	},
	// Preferential-attachment graphs under leader election, the family
	// of the BENCH_sweep.json rows: hub balls of thousands of nodes and
	// Θ(log n)-bit proofs, so ball construction, proof restriction and
	// the verifier dominate, and the cut between shards crosses many
	// hub edges. The fleet instance is half the serve one: a dist-tcp
	// check of 4096 power-law nodes takes ~0.1 s on two cores, too few
	// checks per run for a p90 with ten samples beyond it.
	"powerlaw": {
		scheme: lcp.LeaderElectionScheme(),
		serve:  func(seed int64) *core.Instance { return powerLaw(4096, seed) },
		scale:  func(int64) *core.Instance { return powerLawLeader(100000, 1) },
		fleet:  func(seed int64) *core.Instance { return powerLaw(2048, seed) },
	},
}

func familyNames() []string {
	names := make([]string, 0, len(families))
	for name := range families {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// scrambledGrid is the side×side grid with randomly permuted node ids.
func scrambledGrid(side int, seed int64) *core.Instance {
	return lcp.NewInstance(graph.RandomPermutationIDs(lcp.Grid(side, side), seed))
}

// powerLaw is a preferential-attachment graph with a leader chosen by
// the seed. The graph is the same for every seed: its few largest hubs
// set much of a check's cost, and the seed should vary the inputs, not
// the amount of work. The seed moves the leader, hence the proof, as
// well as the tampering and the operations. The leader is drawn from
// the ids lo..n-1 that have the bit width of n-1, the widest but for n
// itself when n is a power of two: a node's proof is as wide as the
// wider of the root id and its parent's id, so the root's width sets
// the width of nearly every node's proof.
func powerLaw(n int, seed int64) *core.Instance {
	lo := 1 << (bits.Len(uint(n-1)) - 1)
	return powerLawLeader(n, lo+rand.New(rand.NewSource(seed)).Intn(n-lo))
}

// powerLawLeader is the preferential-attachment graph of the
// BENCH_sweep.json rows (four edges per new node, generator seed 1)
// with the given leader. The scale instance is exactly a sweep row's,
// leader 1 included, for every seed: on 10^5 nodes the leader's place
// in the tree changes a core check's time by a fifth or more even among
// ids of one width, so a seed-drawn leader there would change the work.
func powerLawLeader(n, leader int) *core.Instance {
	in := lcp.NewInstance(lcp.PowerLaw(n, 4, 1))
	in.NodeLabel = map[int]string{leader: lcp.LabelLeader}
	return in
}
