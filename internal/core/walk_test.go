package core_test

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"testing"

	"lcp"
	"lcp/internal/core"
	"lcp/internal/dist"
	"lcp/internal/graph"
	"lcp/internal/partition"
)

// powerLawLeader is PowerLaw(n) under leader election with its honest
// proof: hub balls, log-n-bit proofs.
func powerLawLeader(t *testing.T, n int) (*core.Instance, core.Proof, core.Verifier) {
	t.Helper()
	in := lcp.NewInstance(lcp.PowerLaw(n, 4, 1)).SetNodeLabel(1, core.LabelLeader)
	s := lcp.LeaderElectionScheme()
	p, err := s.Prove(in)
	if err != nil {
		t.Fatal(err)
	}
	return in, p, s.Verifier()
}

// TestCoreCheckAllocs pins the sequential check's allocation budget: it
// walks every node with one reused View and ball buffer over a pooled
// proof table, and leader election's verifier decodes its labels with a
// value Reader, so what remains is the result map — not a view per node.
func TestCoreCheckAllocs(t *testing.T) {
	in, p, v := powerLawLeader(t, 4096)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(5, func() {
		res, err := core.CheckCtx(ctx, in, p, v)
		if err != nil || !res.Accepted() {
			t.Fatalf("honest proof: %v, %v", res, err)
		}
	})
	perNode := allocs / float64(in.G.N())
	t.Logf("%.0f allocs/op, %.2f allocs/node", allocs, perNode)
	if perNode > 4 {
		t.Fatalf("core.CheckCtx on PowerLaw(%d): %.2f allocs/node, want at most 4", in.G.N(), perNode)
	}
}

// TestFlatViewsBuildNoInducedGraph pins the laziness of views: verifiers
// that read only rows, edges, labels and proofs of inner nodes (leader
// election and bipartiteness, both radius 1) never make a view build its
// induced graph, on the sequential walk or the engine's. A verifier that
// does ask for it gets it built at most once per node, however many
// distinct proof columns an engine batch verifies there: the column walk
// fills a node's view once and only swaps the column.
func TestFlatViewsBuildNoInducedGraph(t *testing.T) {
	in, p, v := powerLawLeader(t, 2048)
	bip := lcp.BipartiteScheme().Verifier()
	bp := core.RandomProof(in, 1, 1)
	before := core.InducedBuilds()
	core.Check(in, p, v)
	core.Check(in, bp, bip)
	eng := lcp.NewEngine(in)
	for _, c := range []struct {
		p core.Proof
		v core.Verifier
	}{{p, v}, {bp, bip}} {
		if _, err := eng.CheckProofCtx(context.Background(), c.p, c.v); err != nil {
			t.Fatal(err)
		}
	}
	if got := core.InducedBuilds() - before; got != 0 {
		t.Fatalf("%d induced ball graphs built, want none", got)
	}
	graphV := core.VerifierFunc{R: 1, F: func(w *core.View) bool {
		return w.Graph().Degree(w.Center) == w.Degree(w.Center)
	}}
	var proofs []core.Proof
	for seed := int64(1); seed <= 4; seed++ {
		proofs = append(proofs, core.RandomProof(in, 16, seed))
	}
	res, err := eng.CheckBatchCtx(context.Background(), proofs, graphV)
	if err != nil {
		t.Fatal(err)
	}
	for j, r := range res {
		if !r.Accepted() {
			t.Fatalf("column %d rejected", j)
		}
	}
	if got := core.InducedBuilds() - before; got == 0 || got > int64(in.G.N()) {
		t.Fatalf("%d induced ball graphs for %d nodes and %d columns, want between 1 and one per node", got, in.G.N(), len(proofs))
	}
}

// TestDistViewsBuildNoInducedGraph: the message-passing runtime's views
// are as lazy as the walks'. Leader election's dist checks — one-shot,
// and a reused Network's cold, freezing and warm ones — never complete
// a ball view with its boundary–boundary edges, and a verifier that
// asks for the graph gets it.
func TestDistViewsBuildNoInducedGraph(t *testing.T) {
	in, p, v := powerLawLeader(t, 2048)
	ctx := context.Background()
	want := core.Check(in, p, v)
	opt := dist.Options{Shards: 2, Partitioner: partition.BFSChunks{}}
	same := func(label string, res *core.Result, err error) {
		t.Helper()
		if err != nil || !maps.Equal(res.Outputs, want.Outputs) {
			t.Fatalf("%s: verdicts differ from core.Check (error %v)", label, err)
		}
	}
	before := core.InducedBuilds()
	res, err := dist.CheckWithCtx(ctx, in, p, v, opt)
	same("one-shot", res, err)
	nw, err := dist.NewNetwork(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	for i := range 4 {
		res, err := nw.CheckCtx(ctx, p, v)
		same(fmt.Sprintf("network check %d", i), res, err)
	}
	if got := core.InducedBuilds() - before; got != 0 {
		t.Fatalf("%d ball views completed, want none", got)
	}
	graphV := core.VerifierFunc{R: 1, F: func(w *core.View) bool {
		return w.Graph().Degree(w.Center) == w.Degree(w.Center)
	}}
	if res, err := dist.CheckWithCtx(ctx, in, p, graphV, opt); err != nil || !res.Accepted() {
		t.Fatalf("graph-reading verifier: %v, %v", res, err)
	}
	if got := core.InducedBuilds() - before; got == 0 || got > int64(in.G.N()) {
		t.Fatalf("%d ball views completed for %d nodes, want between 1 and one per node", got, in.G.N())
	}
}

// TestViewRowsMatchInducedBall: the view's row and edge accessors answer
// for G[v,r] exactly — for inner nodes from the instance's rows, for
// boundary nodes from the lazily induced graph — on undirected and
// directed graphs and every radius from 0 to 3.
func TestViewRowsMatchInducedBall(t *testing.T) {
	b := lcp.NewDirectedBuilder()
	for i := 1; i < 14; i++ {
		b.AddEdge(i, i+1)
	}
	b.AddEdge(14, 1).AddEdge(4, 1).AddEdge(7, 2).AddEdge(2, 7).AddEdge(11, 5)
	for _, g := range []*graph.Graph{graph.RandomConnected(30, 0.12, 4), graph.RandomPermutationIDs(graph.Grid(5, 6), 2), b.Graph()} {
		in := core.NewInstance(g)
		for _, c := range g.Nodes() {
			for r := 0; r <= 3; r++ {
				ball, nodes, _ := g.InducedBall(c, r)
				w := core.BuildView(in, nil, c, r)
				ctx := fmt.Sprintf("%v center %d r=%d", g.Kind(), c, r)
				if !slices.Equal(w.Nodes(), nodes) {
					t.Fatalf("%s: members %v, want %v", ctx, w.Nodes(), nodes)
				}
				for _, u := range nodes {
					if !slices.Equal(w.Neighbors(u), ball.Neighbors(u)) || w.Degree(u) != ball.Degree(u) {
						t.Fatalf("%s: row of %d is %v, want %v", ctx, u, w.Neighbors(u), ball.Neighbors(u))
					}
					if !slices.Equal(w.InNeighbors(u), ball.InNeighbors(u)) {
						t.Fatalf("%s: in-row of %d is %v, want %v", ctx, u, w.InNeighbors(u), ball.InNeighbors(u))
					}
					for _, x := range g.Nodes() {
						if w.HasEdge(u, x) != ball.HasEdge(u, x) || w.HasEdge(x, u) != ball.HasEdge(x, u) {
							t.Fatalf("%s: HasEdge(%d, %d) disagrees with the induced ball", ctx, u, x)
						}
					}
				}
			}
		}
	}
}
