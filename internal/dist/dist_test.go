package dist_test

// Property tests for the message-passing runtime. The two contracts
// promised by the package docs (and by core.go:268) are asserted here:
//
//  1. dist.Collect produces views identical to core.BuildView on random
//     trees, cycles, regular graphs and directed graphs, across radii;
//  2. dist.CheckWith — at every shard count and partitioner of the
//     layouts sweep — agrees with core.Check verdict-for-verdict
//     (Outputs and Rejectors) across every scheme in the root catalog,
//     on yes-instances, no-instances with adversarial proofs, and
//     tampered and truncated honest proofs.

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"lcp"
	"lcp/internal/core"
	"lcp/internal/dist"
	"lcp/internal/graph"
	"lcp/internal/partition"
)

// viewsEqual compares every observable field of two views.
func viewsEqual(t *testing.T, ctx string, got, want *core.View) {
	t.Helper()
	if got.Center != want.Center || got.Radius != want.Radius {
		t.Fatalf("%s: center/radius (%d,%d) != (%d,%d)", ctx, got.Center, got.Radius, want.Center, want.Radius)
	}
	if !graph.Equal(got.G, want.G) {
		t.Fatalf("%s: ball graphs differ: %v vs %v", ctx, got.G, want.G)
	}
	if !reflect.DeepEqual(got.Dist, want.Dist) {
		t.Fatalf("%s: distance maps differ: %v vs %v", ctx, got.Dist, want.Dist)
	}
	if !reflect.DeepEqual(got.Proof, want.Proof) {
		t.Fatalf("%s: proof restrictions differ: %v vs %v", ctx, got.Proof, want.Proof)
	}
	if !reflect.DeepEqual(got.NodeLabel, want.NodeLabel) {
		t.Fatalf("%s: node labels differ: %v vs %v", ctx, got.NodeLabel, want.NodeLabel)
	}
	if !reflect.DeepEqual(got.EdgeLabel, want.EdgeLabel) {
		t.Fatalf("%s: edge labels differ: %v vs %v", ctx, got.EdgeLabel, want.EdgeLabel)
	}
	if !reflect.DeepEqual(got.Weights, want.Weights) {
		t.Fatalf("%s: weights differ: %v vs %v", ctx, got.Weights, want.Weights)
	}
	if !reflect.DeepEqual(got.Global, want.Global) {
		t.Fatalf("%s: globals differ: %v vs %v", ctx, got.Global, want.Global)
	}
}

// collectEqualsBuildViewEverywhere floods each radius once per node and
// cross-checks against the sequential reference.
func collectEqualsBuildViewEverywhere(t *testing.T, name string, in *core.Instance, p core.Proof, radii []int) {
	t.Helper()
	for _, r := range radii {
		for _, v := range in.G.Nodes() {
			got := dist.Collect(in, p, v, r)
			want := core.BuildView(in, p, v, r)
			viewsEqual(t, fmt.Sprintf("%s r=%d v=%d", name, r, v), got, want)
		}
	}
}

func TestCollectEqualsBuildViewOnRandomTrees(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := lcp.RandomTree(14, seed)
		in := core.NewInstance(g)
		p := core.RandomProof(in, 7, seed)
		collectEqualsBuildViewEverywhere(t, fmt.Sprintf("tree-%d", seed), in, p, []int{0, 1, 2, 3, 5})
	}
}

func TestCollectEqualsBuildViewOnCycles(t *testing.T) {
	for _, n := range []int{3, 4, 9, 16} {
		in := core.NewInstance(lcp.Cycle(n))
		p := core.RandomProof(in, 3, int64(n))
		collectEqualsBuildViewEverywhere(t, fmt.Sprintf("cycle-%d", n), in, p, []int{0, 1, 2, n / 2, n})
	}
}

func TestCollectEqualsBuildViewOnRegularGraphs(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *lcp.Graph
	}{
		{"petersen", lcp.Petersen()},
		{"hypercube-3", lcp.Hypercube(3)},
		{"complete-6", lcp.Complete(6)},
		{"k33", lcp.CompleteBipartite(3, 3)},
	} {
		in := core.NewInstance(tc.g)
		p := core.RandomProof(in, 5, 7)
		collectEqualsBuildViewEverywhere(t, tc.name, in, p, []int{0, 1, 2, 4})
	}
}

// TestCollectEqualsBuildViewWithFullLabelling exercises every input
// channel at once: node labels, solution-marked edges, weights, and a
// global constant must all arrive by message passing.
func TestCollectEqualsBuildViewWithFullLabelling(t *testing.T) {
	g := lcp.Grid(3, 4)
	in := core.NewInstance(g).SetNodeLabel(1, core.LabelS).SetNodeLabel(12, core.LabelT)
	in.MarkEdge(1, 2)
	in.MarkEdge(5, 6)
	in.Weights = map[graph.Edge]int64{}
	for i, e := range g.Edges() {
		in.Weights[e] = int64(3*i + 1)
	}
	in.Global = core.Global{"k": 4}
	p := core.RandomProof(in, 9, 3)
	collectEqualsBuildViewEverywhere(t, "grid-labelled", in, p, []int{0, 1, 2, 3})
}

// TestCollectEqualsBuildViewDirected checks that information crosses arcs
// in both directions (the communication graph is the underlying
// undirected graph) while the view keeps its arcs directed.
func TestCollectEqualsBuildViewDirected(t *testing.T) {
	b := lcp.NewDirectedBuilder()
	for i := 1; i < 8; i++ {
		b.AddEdge(i, i+1)
	}
	b.AddEdge(8, 1).AddEdge(3, 1).AddEdge(5, 2)
	in := core.NewInstance(b.Graph()).SetNodeLabel(1, core.LabelS).SetNodeLabel(8, core.LabelT)
	p := core.RandomProof(in, 4, 11)
	collectEqualsBuildViewEverywhere(t, "directed", in, p, []int{0, 1, 2, 4})
}

// TestCollectSchedulerVariants re-runs the same collection under every
// shard layout; the assembled views must not depend on how the
// automata are grouped onto shards.
func TestCollectSchedulerVariants(t *testing.T) {
	in := core.NewInstance(lcp.RandomConnected(18, 0.2, 5))
	p := core.RandomProof(in, 6, 5)
	want := core.BuildView(in, p, in.G.Nodes()[3], 2)
	for _, opt := range layouts(in.G.N()) {
		got := dist.CollectWith(in, p, want.Center, 2, opt)
		viewsEqual(t, layoutName(opt), got, want)
	}
}

// layouts is the sweep every equivalence test runs: Shards ∈ {1, 2,
// GOMAXPROCS, n} under each of the three partitioners. One shard has
// no cut edges, n shards is the goroutine-per-node layout, and the
// counts in between put shard boundaries inside the instance.
func layouts(n int) []dist.Options {
	var out []dist.Options
	for _, shards := range []int{1, 2, runtime.GOMAXPROCS(0), n} {
		for _, pt := range []partition.Partitioner{partition.Contiguous{}, partition.BFSChunks{}, partition.GreedyBalanced{}} {
			out = append(out, dist.Options{Shards: shards, Partitioner: pt})
		}
	}
	return out
}

func layoutName(opt dist.Options) string {
	return fmt.Sprintf("shards=%d/%s", opt.Shards, opt.Partitioner.Name())
}

// resultsEqual asserts verdict-for-verdict agreement, including the
// derived views of the Result API.
func resultsEqual(t *testing.T, ctx string, got, want *core.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Outputs, want.Outputs) {
		t.Fatalf("%s: outputs differ:\n got %v\nwant %v", ctx, got.Outputs, want.Outputs)
	}
	if got.Accepted() != want.Accepted() {
		t.Fatalf("%s: acceptance differs", ctx)
	}
	if !reflect.DeepEqual(got.Rejectors(), want.Rejectors()) {
		t.Fatalf("%s: rejectors differ: %v vs %v", ctx, got.Rejectors(), want.Rejectors())
	}
}

// checkAllRunners runs the message-passing runtime under every layout
// of the layouts sweep (so arbitrary node→shard assignments are
// exercised catalog-wide) and demands results identical to the
// sequential reference.
func checkAllRunners(t *testing.T, ctx string, in *core.Instance, p core.Proof, v core.Verifier) {
	t.Helper()
	want := core.Check(in, p, v)
	for _, opt := range layouts(in.G.N()) {
		got, err := dist.CheckWith(in, p, v, opt)
		if err != nil {
			t.Fatalf("%s [%s]: %v", ctx, layoutName(opt), err)
		}
		resultsEqual(t, fmt.Sprintf("%s [%s]", ctx, layoutName(opt)), got, want)
	}
}

// TestCheckAgreesWithCoreAcrossCatalog sweeps every scheme in the root
// catalog: honest proofs on yes-instances, tampered honest proofs, and
// random proofs on no-instances.
func TestCheckAgreesWithCoreAcrossCatalog(t *testing.T) {
	const n = 14
	for _, exp := range lcp.Catalog() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			t.Parallel()
			size := n
			if size < exp.MinN {
				size = exp.MinN
			}
			v := exp.Scheme.Verifier()
			in := exp.MakeYes(size, 1)
			p, err := exp.Scheme.Prove(in)
			if err != nil {
				t.Fatalf("prove yes-instance: %v", err)
			}
			checkAllRunners(t, "honest", in, p, v)
			// Tampered honest proofs: verdicts may flip, runners must
			// still agree node-for-node.
			for seed := int64(0); seed < 3; seed++ {
				checkAllRunners(t, fmt.Sprintf("tampered-%d", seed), in, core.FlipBit(p, seed), v)
			}
			// Truncation: the adversarial "too-small proof".
			checkAllRunners(t, "truncated", in, p.Truncated(1), v)
			if exp.MakeNo != nil {
				no := exp.MakeNo(size, 2)
				checkAllRunners(t, "no-empty-proof", no, core.Proof{}, v)
				for _, bits := range []int{1, 16} {
					checkAllRunners(t, fmt.Sprintf("no-random-%d", bits), no, core.RandomProof(no, bits, 9), v)
				}
			}
		})
	}
}

// TestCheckSchedulerVariants: the verdict map is invariant under every
// layout, on an instance where some nodes reject.
func TestCheckSchedulerVariants(t *testing.T) {
	in := core.NewInstance(lcp.Cycle(16)) // even cycle
	v := lcp.OddNScheme().Verifier()      // odd-n verifier: must reject somewhere
	p := core.RandomProof(in, 8, 4)
	want := core.Check(in, p, v)
	if want.Accepted() {
		t.Fatal("setup: random odd-n proof unexpectedly accepted on even cycle")
	}
	opts := append(layouts(in.G.N()), dist.Options{}, dist.Options{Shards: 5})
	for _, opt := range opts {
		got, err := dist.CheckWith(in, p, v, opt)
		if err != nil {
			t.Fatalf("opts=%+v: %v", opt, err)
		}
		resultsEqual(t, fmt.Sprintf("opts=%+v", opt), got, want)
	}
}

// TestLargeBallsMatchCore covers automata whose balls outgrow the
// linear-scan limit and switch to a hash index mid-flood: views and
// verdicts still match the sequential reference, at every layout, and a
// reused network rewinds the index between checks.
func TestLargeBallsMatchCore(t *testing.T) {
	in := core.NewInstance(lcp.RandomConnected(40, 0.15, 3))
	// Sensitive to the ball's size, its edges and the proof, so a lost
	// or stale record flips some verdict.
	v := core.VerifierFunc{R: 3, F: func(w *core.View) bool {
		sum := 31*w.G.N() + 17*w.G.M() + w.ProofOf(w.Center).Len()
		for _, d := range w.Dist {
			sum += 7 * d
		}
		return sum%3 != 0
	}}
	for seed := int64(0); seed < 3; seed++ {
		p := core.RandomProof(in, 5, seed)
		collectEqualsBuildViewEverywhere(t, fmt.Sprintf("large-balls-%d", seed), in, p, []int{3})
	}
	for _, opt := range layouts(in.G.N()) {
		nw, err := dist.NewNetwork(in, opt)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 4; seed++ {
			p := core.RandomProof(in, 5, seed)
			got, err := nw.Check(p, v)
			if err != nil {
				t.Fatalf("%s seed %d: %v", layoutName(opt), seed, err)
			}
			resultsEqual(t, fmt.Sprintf("%s seed %d", layoutName(opt), seed), got, core.Check(in, p, v))
		}
		nw.Close()
	}
}

// TestCheckRadiusZero: a radius-0 verifier needs no communication rounds
// but must still see its own proof, label, and incident edges.
func TestCheckRadiusZero(t *testing.T) {
	in := core.NewInstance(lcp.Path(6)).SetNodeLabel(3, core.LabelLeader)
	p := core.RandomProof(in, 2, 1)
	v := core.VerifierFunc{R: 0, F: func(w *core.View) bool {
		// Accept iff the center is the leader or carries a proof bit 1.
		if w.Label(w.Center) == core.LabelLeader {
			return true
		}
		s := w.ProofOf(w.Center)
		return s.Len() > 0 && s.Bit(0)
	}}
	checkAllRunners(t, "radius-0", in, p, v)
	collectEqualsBuildViewEverywhere(t, "radius-0", in, p, []int{0})
}

// TestCheckNegativeRadius: a (pathological) negative verifier radius
// floods zero rounds but must surface the raw radius in the view, so all
// three runners still agree with core.Check.
func TestCheckNegativeRadius(t *testing.T) {
	in := core.NewInstance(lcp.Cycle(5))
	v := core.VerifierFunc{R: -1, F: func(w *core.View) bool { return w.Radius >= 0 }}
	checkAllRunners(t, "negative-radius", in, core.Proof{}, v)
}

// TestCheckEmptyAndNilInputs: degenerate inputs must not wedge the
// network.
func TestCheckEmptyAndNilInputs(t *testing.T) {
	if _, err := dist.Check(nil, nil, lcp.BipartiteScheme().Verifier()); err == nil {
		t.Error("nil instance: want error")
	}
	in := core.NewInstance(lcp.Cycle(4))
	if _, err := dist.Check(in, nil, nil); err == nil {
		t.Error("nil verifier: want error")
	}
	// Nil proof is the empty proof.
	checkAllRunners(t, "nil-proof", in, nil, lcp.BipartiteScheme().Verifier())
}

// TestCheckRecoversVerifierPanic: a panic inside one shard must surface
// as an error, not crash the process.
func TestCheckRecoversVerifierPanic(t *testing.T) {
	in := core.NewInstance(lcp.Cycle(8))
	v := core.VerifierFunc{R: 1, F: func(w *core.View) bool {
		if w.Center == 5 {
			panic("node 5 misbehaves")
		}
		return true
	}}
	if _, err := dist.Check(in, core.Proof{}, v); err == nil {
		t.Error("want panic surfaced as error")
	}
}

// TestCheckDisconnectedGraph: flooding stops at component boundaries, so
// views never leak across components.
func TestCheckDisconnectedGraph(t *testing.T) {
	g := lcp.DisjointUnion(lcp.Cycle(5), lcp.Cycle(6).ShiftIDs(10))
	in := core.NewInstance(g)
	p := core.RandomProof(in, 4, 2)
	collectEqualsBuildViewEverywhere(t, "disconnected", in, p, []int{1, 3, 7})
	checkAllRunners(t, "disconnected", in, p, lcp.OddNScheme().Verifier())
}

// TestCollectUnknownCenterPanics mirrors core.BuildView's contract.
func TestCollectUnknownCenterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for unknown center")
		}
	}()
	dist.Collect(core.NewInstance(lcp.Cycle(4)), nil, 99, 1)
}
