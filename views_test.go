package lcp_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"lcp"
	"lcp/internal/bitstr"
	"lcp/internal/core"
	"lcp/internal/dist"
	"lcp/internal/engine"
	"lcp/internal/graph"
	"lcp/internal/partition"
)

// TestViewConstructionsAgree pins that every way of building a view
// shows a verifier the same thing (core.ViewsEqual): the reference
// core.BuildView, the reused View of core's sequential walk, the
// engine's slab-backed walk, dist.Collect's message-passing assembly
// and Restrict from a larger radius. It sweeps every catalogue row's
// yes-instance at random centers and radii 0–3, in three variants —
// as generated, relabelled to non-dense identifiers, and decorated with
// node labels, solution edges, weights and explicit-ε proof entries —
// plus a directed instance with arc-keyed edge input.
func TestViewConstructionsAgree(t *testing.T) {
	type tcase struct {
		name string
		in   *core.Instance
		p    core.Proof
	}
	var cases []tcase
	for _, exp := range lcp.Catalog() {
		if exp.MakeYes == nil || exp.Scheme == nil {
			continue
		}
		n := exp.MinN + 5
		in := exp.MakeYes(n, 3)
		p, err := exp.Scheme.Prove(in)
		if err != nil {
			t.Fatalf("%s: prove: %v", exp.ID, err)
		}
		rin, rp := relabelled(in, p)
		cases = append(cases,
			tcase{exp.ID, in, p},
			tcase{exp.ID + "/relabelled", rin, rp},
			tcase{exp.ID + "/decorated", decorated(in, 5), withEpsilons(p, in, 5)},
		)
	}
	dir := directedInstance()
	cases = append(cases, tcase{"directed", dir, withEpsilons(core.RandomProof(dir, 3, 1), dir, 2)})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(tc.name))))
			nodes := tc.in.G.Nodes()
			for r := 0; r <= 3; r++ {
				want := map[int]*core.View{}
				for range 3 {
					c := nodes[rng.Intn(len(nodes))]
					w := core.BuildView(tc.in, tc.p, c, r)
					w.Nodes() // fill the caches before the engine's workers share it
					w.Graph()
					want[c] = w
				}
				for c, w := range want {
					ctx := fmt.Sprintf("center %d r=%d", c, r)
					if got := dist.Collect(tc.in, tc.p, c, r); !core.ViewsEqual(got, w) {
						t.Fatalf("%s: dist.Collect differs from BuildView", ctx)
					}
					if got := core.BuildView(tc.in, tc.p, c, 3).Restrict(r, tc.p); !core.ViewsEqual(got, w) {
						t.Fatalf("%s: Restrict from radius 3 differs from BuildView", ctx)
					}
				}
				var mu sync.Mutex
				var bad []string
				compare := func(path string) func(*core.View) bool {
					return func(w *core.View) bool {
						if ref, ok := want[w.Center]; ok && !core.ViewsEqual(w, ref) {
							mu.Lock()
							bad = append(bad, fmt.Sprintf("%s: center %d r=%d", path, w.Center, r))
							mu.Unlock()
						}
						return true
					}
				}
				if err := core.Walk(context.Background(), tc.in, tc.p, r, compare("core.Walk")); err != nil {
					t.Fatal(err)
				}
				v := core.VerifierFunc{R: r, F: compare("engine walk")}
				if _, err := engine.New(tc.in, engine.Options{Workers: 2}).CheckProofCtx(context.Background(), tc.p, v); err != nil {
					t.Fatal(err)
				}
				if len(bad) > 0 {
					t.Fatalf("views differ from BuildView: %v", bad)
				}
			}
		})
	}
}

// relabelled moves the instance and its proof onto sparse identifiers
// (3·id + 100), so id→index lookups leave the dense fast path.
func relabelled(in *core.Instance, p core.Proof) (*core.Instance, core.Proof) {
	m := make(map[int]int, in.G.N())
	for _, v := range in.G.Nodes() {
		m[v] = 3*v + 100
	}
	return in.Relabel(m), p.Relabel(m)
}

// decorated is a copy of in with every k-th node labelled, every k-th
// edge marked and every other edge weighted.
func decorated(in *core.Instance, k int) *core.Instance {
	out := in.Clone()
	for i, v := range out.G.Nodes() {
		if i%k == 0 {
			out.SetNodeLabel(v, fmt.Sprintf("x%d", i))
		}
	}
	out.Weights = map[graph.Edge]int64{}
	for i, e := range out.G.Edges() {
		if i%k == 1 {
			out.MarkEdge(e.U, e.V)
		}
		if i%2 == 0 {
			out.Weights[e] = int64(i + 1)
		}
	}
	return out
}

// withEpsilons is a copy of p where every k-th node is assigned an
// explicit ε and the node after it has no entry at all.
func withEpsilons(p core.Proof, in *core.Instance, k int) core.Proof {
	out := p.Clone()
	for i, v := range in.G.Nodes() {
		switch i % k {
		case 0:
			out[v] = bitstr.Empty
		case 1:
			delete(out, v)
		}
	}
	return out
}

// directedInstance is a directed graph with labels, and edge labels and
// weights keyed by arc — including arcs from a larger to a smaller id,
// which only an arc-keyed lookup finds.
func directedInstance() *core.Instance {
	b := lcp.NewDirectedBuilder()
	for i := 1; i < 12; i++ {
		b.AddEdge(i, i+1)
	}
	b.AddEdge(12, 1).AddEdge(5, 2).AddEdge(9, 3).AddEdge(3, 9)
	in := core.NewInstance(b.Graph()).SetNodeLabel(1, core.LabelS).SetNodeLabel(8, core.LabelT)
	in.EdgeLabel = map[graph.Edge]string{{U: 5, V: 2}: core.EdgeInSolution, {U: 3, V: 4}: "a", {U: 9, V: 3}: "b"}
	in.Weights = map[graph.Edge]int64{{U: 12, V: 1}: 7, {U: 6, V: 7}: 2}
	return in
}

// TestDistBoundaryQueriesMatchBuildView: a dist ball view is built from
// its inner members' records and completes its boundary–boundary edges
// on the first query that needs them. Whichever query that is — a
// boundary member's rows, HasEdge, EdgeLabel, Weight, Graph, or
// Restrict to the view's own radius — its answers, and the whole view after it (core.ViewsEqual), are
// core.BuildView's. It runs on decorated and directed instances, over
// one Network's cold, freezing and warm checks: the freezing check
// completes no view, so warm checks complete frozen views from what
// freezing kept.
func TestDistBoundaryQueriesMatchBuildView(t *testing.T) {
	cases := []struct {
		name string
		in   *core.Instance
	}{
		{"random/decorated", decorated(lcp.NewInstance(lcp.RandomConnected(30, 0.15, 3)), 3)},
		{"powerlaw/decorated", decorated(lcp.NewInstance(lcp.PowerLaw(60, 3, 2)), 4)},
		{"directed", directedInstance()},
		{"rim-labelled", rimLabelled()},
	}
	const modes, none = 7, 6 // rows, HasEdge, EdgeLabel, Weight, Graph, Restrict, none
	for _, tc := range cases {
		rims := 0 // boundary–boundary edges seen in reference views
		for r := 1; r <= 3; r++ {
			nw, err := dist.NewNetwork(tc.in, dist.Options{Shards: 3, Partitioner: partition.BFSChunks{}})
			if err != nil {
				t.Fatal(err)
			}
			for check := range 9 {
				p := withEpsilons(core.RandomProof(tc.in, 3, int64(10*r+check)), tc.in, 4)
				var mu sync.Mutex
				var bad []string
				v := core.VerifierFunc{R: r, F: func(w *core.View) bool {
					ref := core.BuildView(tc.in, p, w.Center, r)
					mode := (w.Center + check) % modes
					if check == 1 {
						mode = none // the freezing check
					}
					msg, n := boundaryDiff(w, ref, mode)
					mu.Lock()
					defer mu.Unlock()
					rims += n
					if msg != "" {
						bad = append(bad, fmt.Sprintf("center %d, mode %d: %s", w.Center, mode, msg))
					}
					return true
				}}
				if _, err := nw.CheckCtx(context.Background(), p, v); err != nil {
					t.Fatalf("%s r=%d check %d: %v", tc.name, r, check, err)
				}
				if len(bad) > 0 {
					t.Fatalf("%s r=%d check %d: %v", tc.name, r, check, bad)
				}
			}
			nw.Close()
		}
		if rims == 0 {
			t.Fatalf("%s: no ball has an edge between two boundary members", tc.name)
		}
	}
}

// rimLabelled is two triangles joined by an edge, where only the edge
// of each triangle that faces away from the joint carries a label and a
// weight: the radius-1 balls of the joint's ends see those inputs only
// on an edge between two boundary members.
func rimLabelled() *core.Instance {
	b := graph.NewBuilder(graph.Undirected)
	b.AddPath(1, 2, 3, 1).AddEdge(3, 4).AddPath(4, 5, 6, 4)
	in := core.NewInstance(b.Graph())
	in.MarkEdge(1, 2)
	in.MarkEdge(5, 6)
	in.Weights = map[graph.Edge]int64{{U: 1, V: 2}: 3, {U: 5, V: 6}: 4}
	return in
}

// boundaryDiff compares a view with the reference view of its ball
// through one query mode first (0 rows, 1 HasEdge, 2 EdgeLabel, 3
// Weight, 4 Graph, 5 Restrict to its own radius), then as a whole; mode
// 6 reads only members, distances and proofs, which complete nothing. It returns what
// differs, if anything, and the reference's boundary–boundary edges.
func boundaryDiff(w, ref *core.View, mode int) (string, int) {
	nodes, rims := ref.Nodes(), 0
	for _, u := range nodes {
		for _, x := range nodes {
			if !ref.KnowsFully(u) && !ref.KnowsFully(x) && ref.HasEdge(u, x) {
				rims++
			}
		}
	}
	if !slices.Equal(w.Nodes(), nodes) {
		return "members differ", rims
	}
	for _, u := range nodes {
		dw, _ := w.Dist(u)
		dr, _ := ref.Dist(u)
		if dw != dr || !w.ProofOf(u).Equal(ref.ProofOf(u)) {
			return fmt.Sprintf("node %d: distance or proof differs", u), rims
		}
	}
	switch mode {
	case 0:
		for _, u := range nodes {
			if !slices.Equal(w.Neighbors(u), ref.Neighbors(u)) || !slices.Equal(w.InNeighbors(u), ref.InNeighbors(u)) || w.Degree(u) != ref.Degree(u) {
				return fmt.Sprintf("rows of %d differ", u), rims
			}
		}
	case 1, 2, 3:
		for _, u := range nodes {
			for _, x := range nodes {
				if mode == 1 && w.HasEdge(u, x) != ref.HasEdge(u, x) ||
					mode == 2 && w.EdgeLabel(u, x) != ref.EdgeLabel(u, x) ||
					mode == 3 && w.Weight(u, x) != ref.Weight(u, x) {
					return fmt.Sprintf("mode %d query of (%d, %d) differs", mode, u, x), rims
				}
			}
		}
	case 4:
		if !graph.Equal(w.Graph(), ref.Graph()) {
			return "graphs differ", rims
		}
	case 5:
		if !core.ViewsEqual(w.Restrict(w.Radius, w.BallProof()), ref) {
			return "restricted view differs", rims
		}
	default:
		return "", rims
	}
	if !core.ViewsEqual(w, ref) {
		return "views differ", rims
	}
	return "", rims
}
