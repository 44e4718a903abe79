package lcp_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"lcp"
	"lcp/internal/bitstr"
	"lcp/internal/core"
	"lcp/internal/dist"
	"lcp/internal/engine"
	"lcp/internal/graph"
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
