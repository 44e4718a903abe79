package dist_test

// Edge-case tests for the shard layout. The catalog-wide
// verdict-identity property lives in dist_test.go (checkAllRunners runs
// every shard count and partitioner); this file pins down the
// degenerate configurations where the shard partition itself could go
// wrong: more shards than nodes, a single shard (no cut edges at all),
// isolated nodes, empty link sets, and panic recovery inside a shard.

import (
	"context"
	"fmt"
	"testing"

	"lcp"
	"lcp/internal/core"
	"lcp/internal/dist"
	"lcp/internal/graph"
	"lcp/internal/partition"
)

// TestShardedMoreShardsThanNodes: the shard count clamps to n, leaving
// some requested shards empty-handed rather than wedging a round gate.
func TestShardedMoreShardsThanNodes(t *testing.T) {
	in := core.NewInstance(lcp.Cycle(5))
	scheme := lcp.OddNScheme()
	p, err := scheme.Prove(in)
	if err != nil {
		t.Fatal(err)
	}
	v := scheme.Verifier()
	want := core.Check(in, p, v)
	for _, shards := range []int{5, 6, 99} {
		got, err := dist.CheckWithCtx(context.Background(), in, p, v, dist.Options{Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		resultsEqual(t, fmt.Sprintf("shards=%d", shards), got, want)
	}
}

// TestShardedSingleShardDegenerate: one shard means zero cut edges — the
// whole protocol degenerates to a sequential sweep on one goroutine —
// and the verdicts still match the reference exactly.
func TestShardedSingleShardDegenerate(t *testing.T) {
	in := core.NewInstance(lcp.Grid(4, 4))
	p := core.RandomProof(in, 6, 3)
	v := lcp.OddNScheme().Verifier()
	want := core.Check(in, p, v)
	got, err := dist.CheckWithCtx(context.Background(), in, p, v, dist.Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "single-shard", got, want)
	// Collect in the same degenerate mode.
	center := in.G.Nodes()[5]
	viewsEqual(t, "single-shard collect",
		dist.CollectWith(in, p, center, 2, dist.Options{Shards: 1}),
		core.BuildView(in, p, center, 2))
}

// TestShardedIsolatedNodes: nodes with no edges have no links in any
// partition; they must still decide (and their empty radius-r balls
// must not stall any round gate).
func TestShardedIsolatedNodes(t *testing.T) {
	b := lcp.NewBuilder()
	b.AddPath(1, 2, 3, 4)
	b.AddNode(7) // isolated
	b.AddNode(9) // isolated
	in := core.NewInstance(b.Graph())
	p := core.RandomProof(in, 4, 1)
	v := core.VerifierFunc{R: 2, F: func(w *core.View) bool {
		// A degree-0 center must see a singleton ball: any record leaking
		// into an isolated node's view flips its verdict to reject.
		if w.Degree(w.Center) == 0 {
			return len(w.Nodes()) == 1
		}
		return len(w.Nodes()) >= 2
	}}
	want := core.Check(in, p, v)
	for _, shards := range []int{1, 2, 3, 6, 10} {
		got, err := dist.CheckWithCtx(context.Background(), in, p, v, dist.Options{Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		resultsEqual(t, fmt.Sprintf("isolated shards=%d", shards), got, want)
	}
	// An all-isolated graph: no edges anywhere.
	b2 := lcp.NewBuilder()
	for i := 1; i <= 6; i++ {
		b2.AddNode(i)
	}
	iso := core.NewInstance(b2.Graph())
	want = core.Check(iso, nil, v)
	got, err := dist.CheckWithCtx(context.Background(), iso, nil, v, dist.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "all-isolated", got, want)
}

// TestShardedDisconnectedAcrossShardBoundary: components split across
// shard boundaries exchange nothing, and flooding never leaks across
// components even when both live partly in the same shard.
func TestShardedDisconnectedAcrossShardBoundary(t *testing.T) {
	g := lcp.DisjointUnion(lcp.Cycle(6), lcp.Cycle(7).ShiftIDs(10))
	in := core.NewInstance(g)
	p := core.RandomProof(in, 4, 2)
	v := lcp.OddNScheme().Verifier()
	want := core.Check(in, p, v)
	for _, shards := range []int{2, 3, 5} {
		got, err := dist.CheckWithCtx(context.Background(), in, p, v, dist.Options{Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		resultsEqual(t, fmt.Sprintf("disconnected shards=%d", shards), got, want)
	}
}

// TestShardedRecoversVerifierPanic: a panic while deciding one node of a
// shard surfaces as an error and the remaining nodes still report.
func TestShardedRecoversVerifierPanic(t *testing.T) {
	in := core.NewInstance(lcp.Cycle(12))
	v := core.VerifierFunc{R: 1, F: func(w *core.View) bool {
		if w.Center == 5 {
			panic("node 5 misbehaves")
		}
		return true
	}}
	if _, err := dist.CheckWithCtx(context.Background(), in, core.Proof{}, v, dist.Options{Shards: 3}); err == nil {
		t.Error("want panic surfaced as error")
	}
}

// TestShardedNetworkReuse: a reusable multi-shard Network serves many
// proofs, each matching the reference.
func TestShardedNetworkReuse(t *testing.T) {
	in := core.NewInstance(lcp.Cycle(19))
	scheme := lcp.OddNScheme()
	p, err := scheme.Prove(in)
	if err != nil {
		t.Fatal(err)
	}
	v := scheme.Verifier()
	nw, err := dist.NewNetwork(in, dist.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	for i := 0; i < 8; i++ {
		proof := p
		if i%2 == 1 {
			proof = core.FlipBit(p, int64(i))
		}
		got, err := nw.CheckCtx(context.Background(), proof, v)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		resultsEqual(t, fmt.Sprintf("reuse run %d", i), got, core.Check(in, proof, v))
	}
}

// badPartitioner returns a fixed (usually invalid) assignment no matter
// the graph.
type badPartitioner struct{ assign []int }

func (badPartitioner) Name() string                     { return "bad" }
func (p badPartitioner) Assign(*graph.Graph, int) []int { return p.assign }

// TestShardedInvalidPartitionerRejected: a custom partitioner returning
// a malformed assignment surfaces as an error from every entry point
// instead of wedging or panicking the runtime.
func TestShardedInvalidPartitionerRejected(t *testing.T) {
	in := core.NewInstance(lcp.Cycle(6))
	v := lcp.OddNScheme().Verifier()
	for name, bad := range map[string]dist.Options{
		"short":        {Shards: 3, Partitioner: badPartitioner{assign: []int{0, 1}}},
		"out-of-range": {Shards: 3, Partitioner: badPartitioner{assign: []int{0, 1, 2, 3, 0, 1}}},
		"negative":     {Shards: 3, Partitioner: badPartitioner{assign: []int{0, -1, 2, 0, 1, 2}}},
		"nil":          {Shards: 3, Partitioner: badPartitioner{}},
	} {
		if _, err := dist.CheckWithCtx(context.Background(), in, core.Proof{}, v, bad); err == nil {
			t.Errorf("%s: CheckWithCtx accepted an invalid assignment", name)
		}
		if _, err := dist.NewNetwork(in, bad); err == nil {
			t.Errorf("%s: NewNetwork accepted an invalid assignment", name)
		}
	}
}

// TestShardedArbitraryAssignment: a partitioner may scatter nodes
// across shards in any pattern — interleaved round-robin included —
// and verdicts still match the reference.
func TestShardedArbitraryAssignment(t *testing.T) {
	in := core.NewInstance(lcp.Grid(4, 5))
	scheme := lcp.OddNScheme() // 20 nodes: even, rejects somewhere
	p := core.RandomProof(in, 5, 3)
	v := scheme.Verifier()
	want := core.Check(in, p, v)
	roundRobin := make([]int, in.G.N())
	for i := range roundRobin {
		roundRobin[i] = i % 3
	}
	got, err := dist.CheckWithCtx(context.Background(), in, p, v, dist.Options{Shards: 3, Partitioner: badPartitioner{assign: roundRobin}})
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "round-robin", got, want)
}

// TestShardedEmptyShardAllowed: an assignment that leaves a shard with
// no nodes must not wedge the round gates or the link wiring.
func TestShardedEmptyShardAllowed(t *testing.T) {
	in := core.NewInstance(lcp.Cycle(6))
	v := lcp.OddNScheme().Verifier()
	p := core.RandomProof(in, 3, 1)
	want := core.Check(in, p, v)
	// Shard 1 of 3 owns nothing.
	lopsided := []int{0, 0, 2, 2, 0, 2}
	got, err := dist.CheckWithCtx(context.Background(), in, p, v, dist.Options{Shards: 3, Partitioner: badPartitioner{assign: lopsided}})
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "empty-shard", got, want)
}

// TestShardedPartitionersAcrossTopologies: the three partitioners are
// verdict-identical on the topologies where their assignments actually
// differ — scrambled grids and trees, where BFS chunks and greedy
// refinement pick very different shard shapes than contiguous ranges.
func TestShardedPartitionersAcrossTopologies(t *testing.T) {
	for name, g := range map[string]*lcp.Graph{
		"scrambled-grid": graph.RandomPermutationIDs(lcp.Grid(6, 6), 4),
		"scrambled-tree": graph.RandomPermutationIDs(lcp.RandomTree(40, 2), 5),
		"disconnected":   lcp.DisjointUnion(lcp.Cycle(9), lcp.Grid(3, 4).ShiftIDs(100)),
	} {
		in := core.NewInstance(g)
		p := core.RandomProof(in, 6, 7)
		v := core.VerifierFunc{R: 2, F: func(w *core.View) bool {
			return len(w.Nodes())%2 == 0 || w.ProofOf(w.Center).Len() > 3
		}}
		want := core.Check(in, p, v)
		for _, pname := range partition.Names() {
			pt, err := partition.ByName(pname)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{4, in.G.N()} {
				got, err := dist.CheckWithCtx(context.Background(), in, p, v, dist.Options{Shards: shards, Partitioner: pt})
				if err != nil {
					t.Fatalf("%s/%s shards=%d: %v", name, pname, shards, err)
				}
				resultsEqual(t, fmt.Sprintf("%s/%s shards=%d", name, pname, shards), got, want)
			}
		}
	}
}

// TestShardedRadiusZero: zero communication rounds, no round gate ever
// opens, verdicts still flow.
func TestShardedRadiusZero(t *testing.T) {
	in := core.NewInstance(lcp.Path(7)).SetNodeLabel(3, core.LabelLeader)
	p := core.RandomProof(in, 2, 1)
	v := core.VerifierFunc{R: 0, F: func(w *core.View) bool {
		if w.Label(w.Center) == core.LabelLeader {
			return true
		}
		s := w.ProofOf(w.Center)
		return s.Len() > 0 && s.Bit(0)
	}}
	want := core.Check(in, p, v)
	got, err := dist.CheckWithCtx(context.Background(), in, p, v, dist.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "sharded radius-0", got, want)
}
