// Package lcp is a complete, executable reproduction of "Locally
// Checkable Proofs" by Mika Göös and Jukka Suomela (PODC 2011).
//
// A locally checkable proof equips every node of a graph with a bit
// string such that a constant-radius distributed verifier accepts
// yes-instances everywhere, while for no-instances every possible proof
// is rejected by at least one node. The paper classifies graph properties
// by their local proof complexity — 0, Θ(1), Θ(log n), Θ(n), Θ(n²) bits
// per node — and this library implements every scheme in its Table 1,
// the LOCAL-model runtime to execute them (one goroutine per node), and
// every lower-bound construction as a runnable adversary.
//
// # Quick start
//
//	g := lcp.Cycle(8)
//	in := lcp.NewInstance(g)
//	proof, res, err := lcp.ProveAndCheck(in, lcp.BipartiteScheme())
//	// proof assigns 1 bit per node; res.Accepted() == true
//
// Tamper with the proof, or hand the verifier an odd cycle, and some node
// raises the alarm. See the examples/ directory for full programs and
// cmd/lcpbench for the Table 1 regeneration harness.
package lcp

import (
	"lcp/internal/core"
	"lcp/internal/engine"
	"lcp/internal/graph"
	"lcp/internal/partition"
	"lcp/internal/schemes"
)

// Re-exported core types. Proofs, views and verifiers are exactly the
// objects of §2 of the paper.
type (
	// Graph is an immutable simple graph with positive integer
	// identifiers (V ⊆ {1..poly(n)}).
	Graph = graph.Graph
	// Builder accumulates a Graph.
	Builder = graph.Builder
	// Edge is a (normalized) graph edge.
	Edge = graph.Edge
	// Instance is a graph plus input labels (distinguished nodes,
	// solution marks, weights, global constants).
	Instance = core.Instance
	// Proof maps each node to a bit string; Size() is bits per node.
	Proof = core.Proof
	// View is the radius-r neighbourhood a verifier sees.
	View = core.View
	// Verifier is a constant-radius local verifier.
	Verifier = core.Verifier
	// VerifierFunc adapts a function to Verifier.
	VerifierFunc = core.VerifierFunc
	// Scheme is a proof labelling scheme (prover + local verifier).
	Scheme = core.Scheme
	// Result collects the per-node outputs of a verifier run.
	Result = core.Result
	// Global is input known to every node (k, W, …).
	Global = core.Global
)

// Node input labels.
const (
	// LabelS marks the distinguished node s of reachability problems.
	LabelS = core.LabelS
	// LabelT marks the distinguished node t.
	LabelT = core.LabelT
	// LabelLeader marks the elected leader.
	LabelLeader = core.LabelLeader
)

// ErrNotInProperty is returned by provers on no-instances.
var ErrNotInProperty = core.ErrNotInProperty

// Graph construction.

// NewBuilder returns an undirected-graph builder.
func NewBuilder() *Builder { return graph.NewBuilder(graph.Undirected) }

// NewDirectedBuilder returns a directed-graph builder.
func NewDirectedBuilder() *Builder { return graph.NewBuilder(graph.Directed) }

// Generators (re-exported).
var (
	Path              = graph.Path
	Cycle             = graph.Cycle
	Complete          = graph.Complete
	CompleteBipartite = graph.CompleteBipartite
	Star              = graph.Star
	Wheel             = graph.Wheel
	Grid              = graph.Grid
	Hypercube         = graph.Hypercube
	Petersen          = graph.Petersen
	RandomTree        = graph.RandomTree
	RandomGNP         = graph.RandomGNP
	RandomConnected   = graph.RandomConnected
	RandomBipartite   = graph.RandomBipartite
	PowerLaw          = graph.PowerLaw
	RandomRegular     = graph.RandomRegular
	RoadNetwork       = graph.RoadNetwork
	LineGraphOf       = graph.LineGraphOf
	DisjointUnion     = graph.DisjointUnion
	NormEdge          = graph.NormEdge
)

// NewInstance wraps a graph as an unlabelled instance.
func NewInstance(g *Graph) *Instance { return core.NewInstance(g) }

// Prove runs a scheme's prover.
func Prove(s Scheme, in *Instance) (Proof, error) { return s.Prove(in) }

// Partitioner computes a node→shard assignment for the distributed
// backends: the dist runtime's shard layout and the dist-tcp worker
// cut (WithPartitioner). Cross-shard edges are what sharded execution
// pays for — per-round message traffic, and on dist-tcp wire bytes —
// so a partitioner that follows graph topology instead of identifier
// order cuts the simulation's real cost without moving a single
// verdict.
type Partitioner = partition.Partitioner

// ContiguousPartitioner assigns near-equal contiguous identifier ranges
// — the zero-configuration default everywhere, ideal when identifiers
// happen to follow topology.
func ContiguousPartitioner() Partitioner { return partition.Contiguous{} }

// BFSChunksPartitioner chunks a breadth-first traversal order, so each
// shard is a topologically tight region regardless of identifier
// assignment. On a scrambled 32×32 grid with 8 shards it cuts 81% fewer
// cross-shard edges than the contiguous default (BENCH_partition.json).
func BFSChunksPartitioner() Partitioner { return partition.BFSChunks{} }

// GreedyBalancedPartitioner refines the BFS chunks by moving boundary
// nodes toward the shard holding most of their edges, under a balance
// constraint — the highest-quality, highest-cost option.
func GreedyBalancedPartitioner() Partitioner { return partition.GreedyBalanced{} }

// PartitionerByName resolves "contiguous", "bfs", or "greedy" — the
// names accepted by lcpserve's -partitioner flag and the HTTP
// "partitioner" request option.
func PartitionerByName(name string) (Partitioner, error) { return partition.ByName(name) }

// ProveAndCheck proves and then verifies everywhere, failing loudly on
// completeness violations.
func ProveAndCheck(in *Instance, s Scheme) (Proof, *Result, error) {
	return core.ProveAndCheck(in, s)
}

// The long-lived verification engine: build once per instance, verify
// many proofs. The core backend rebuilds every radius-r view per call;
// the Engine caches them (per radius, shared across proofs) and serves
// CheckProofCtx / CheckBatchCtx / CheckStream at a fraction of the
// per-proof cost. Prefer it whenever the same instance meets more than a handful
// of proofs — tampering sweeps, adversary searches, or a verification
// service's request stream.
type (
	// Engine is the amortized verification service for one instance.
	Engine = engine.Engine
	// Verdict is one node's decision as streamed by Engine.CheckStream.
	Verdict = engine.Verdict
)

// NewEngine builds a default-configured engine for the instance. Pair
// it with NewChecker's WithEngine option when several checkers (one per
// scheme, say) should share one set of cached views.
func NewEngine(in *Instance) *Engine { return engine.New(in, engine.Options{}) }

// Built-in schemes (Table 1 of the paper). Each constructor returns a
// ready-to-use Scheme.

// EulerianScheme: LCP(0), "G is Eulerian" on connected graphs.
func EulerianScheme() Scheme { return schemes.Eulerian{} }

// LineGraphScheme: LCP(0), "G is a line graph" (Beineke, radius 5).
func LineGraphScheme() Scheme { return schemes.LineGraph{} }

// BipartiteScheme: LCP(1), 2-colouring certificate.
func BipartiteScheme() Scheme { return schemes.Bipartite{} }

// EvenCycleScheme: Θ(1) on cycles, "n(G) is even".
func EvenCycleScheme() Scheme { return schemes.EvenCycle{} }

// ColorableScheme: O(log k), "χ(G) ≤ k" with k = in.Global["k"].
func ColorableScheme() Scheme { return schemes.Colorable{} }

// ReachabilityScheme: Θ(1), undirected s–t reachability.
func ReachabilityScheme() Scheme { return schemes.Reachability{} }

// UnreachabilityScheme: Θ(1), s–t unreachability (undirected and
// directed).
func UnreachabilityScheme() Scheme { return schemes.Unreachability{} }

// STConnectivityScheme: O(log k), s–t vertex connectivity = k.
func STConnectivityScheme() Scheme { return schemes.STConnectivity{} }

// STConnectivityPlanarScheme: the §4.2 planar variant with compressed
// path indices (Θ(1) on planar inputs).
func STConnectivityPlanarScheme() Scheme { return schemes.STConnectivity{CompressIndices: true} }

// SpanningTreeScheme: Θ(log n), "marked edges form a spanning tree".
func SpanningTreeScheme() Scheme { return schemes.SpanningTree{} }

// LeaderElectionScheme: Θ(log n), "exactly one leader".
func LeaderElectionScheme() Scheme { return schemes.LeaderElection{} }

// ForestScheme: O(log n), "G is acyclic".
func ForestScheme() Scheme { return schemes.Forest{} }

// OddNScheme: Θ(log n), "n(G) is odd" via spanning-tree counters.
func OddNScheme() Scheme { return schemes.ParityCount{WantOdd: true} }

// EvenNScheme: Θ(log n), "n(G) is even".
func EvenNScheme() Scheme { return schemes.ParityCount{WantOdd: false} }

// NonBipartiteScheme: Θ(log n), "χ(G) > 2" via an odd closed walk.
func NonBipartiteScheme() Scheme { return schemes.NonBipartite{} }

// HamiltonianCycleScheme: Θ(log n), "marked edges form a Hamiltonian
// cycle".
func HamiltonianCycleScheme() Scheme { return schemes.HamiltonianCycleCheck{} }

// HamiltonianPropertyScheme: Θ(log n), weak scheme for "G is
// Hamiltonian".
func HamiltonianPropertyScheme() Scheme { return schemes.HamiltonianProperty{} }

// MaximalMatchingScheme: LCP(0), "marked edges form a maximal matching".
func MaximalMatchingScheme() Scheme { return schemes.MaximalMatching{} }

// MaximumMatchingBipartiteScheme: Θ(1), König vertex-cover certificate.
func MaximumMatchingBipartiteScheme() Scheme { return schemes.MaximumMatchingBipartite{} }

// MaxWeightMatchingScheme: O(log W), LP-duality certificate.
func MaxWeightMatchingScheme() Scheme { return schemes.MaxWeightMatching{} }

// MaxMatchingCycleScheme: Θ(log n), maximum matching on cycles.
func MaxMatchingCycleScheme() Scheme { return schemes.MaxMatchingCycle{} }

// SymmetricScheme: Θ(n²), "G has a non-trivial automorphism".
func SymmetricScheme() Scheme { return schemes.Symmetric{} }

// FixpointFreeScheme: Θ(n) on trees, "G has a fixpoint-free
// automorphism".
func FixpointFreeScheme() Scheme { return schemes.FixpointFree{} }

// NonThreeColorableScheme: O(n²) (Ω(n²/log n) necessary), "χ(G) > 3".
func NonThreeColorableScheme() Scheme { return schemes.NonThreeColorable() }

// UniversalScheme: O(n²) for any computable property of connected graphs
// (the LCP(∞) = NLD#n row).
func UniversalScheme(name string, holds func(*Graph) bool) Scheme {
	return schemes.Universal{PropertyName: name, Holds: holds}
}

// ComplementScheme: O(log n) for the complement of any LCP(0) property on
// connected graphs (§7.3).
func ComplementScheme(innerName string, inner Verifier) Scheme {
	return schemes.Complement{Inner: inner, InnerName: innerName}
}

// DirectedReachabilityScheme: O(log Δ), directed s–t reachability via
// edge pointers (§4.1 remark; the O(1) case is open).
func DirectedReachabilityScheme() Scheme { return schemes.DirectedReachability{} }

// HamiltonianPathScheme: Θ(log n), "marked edges form a Hamiltonian
// path" (§5.1).
func HamiltonianPathScheme() Scheme { return schemes.HamiltonianPathCheck{} }

// CountPredicateScheme: Θ(log n) for ANY computable predicate of n(G)
// (§7.4 — this is how LogLCP escapes NP). See also PrimeNScheme.
func CountPredicateScheme(name string, pred func(n uint64) bool) Scheme {
	return schemes.CountPredicate{PropertyName: name, Pred: pred}
}

// PrimeNScheme: "n(G) is prime" in LogLCP.
func PrimeNScheme() Scheme { return schemes.PrimeN() }

// GlobalK and GlobalW are the Global keys for k (connectivity /
// colourability bound) and W (maximum edge weight).
const (
	GlobalK = schemes.GlobalK
	GlobalW = schemes.GlobalW
)

// BuiltinSchemes returns every built-in scheme keyed by its Name(), for
// tools that resolve schemes from self-describing instance files
// (cmd/lcpverify).
func BuiltinSchemes() map[string]Scheme {
	list := []Scheme{
		EulerianScheme(),
		LineGraphScheme(),
		BipartiteScheme(),
		EvenCycleScheme(),
		ColorableScheme(),
		ReachabilityScheme(),
		UnreachabilityScheme(),
		DirectedReachabilityScheme(),
		STConnectivityScheme(),
		STConnectivityPlanarScheme(),
		SpanningTreeScheme(),
		LeaderElectionScheme(),
		ForestScheme(),
		OddNScheme(),
		EvenNScheme(),
		PrimeNScheme(),
		NonBipartiteScheme(),
		HamiltonianCycleScheme(),
		HamiltonianPathScheme(),
		HamiltonianPropertyScheme(),
		MaximalMatchingScheme(),
		MaximumMatchingBipartiteScheme(),
		MaxWeightMatchingScheme(),
		MaxMatchingCycleScheme(),
		SymmetricScheme(),
		FixpointFreeScheme(),
		NonThreeColorableScheme(),
		schemes.MISLCL(),
		schemes.ColoringLCL(),
	}
	out := make(map[string]Scheme, len(list))
	for _, s := range list {
		out[s.Name()] = s
	}
	return out
}
