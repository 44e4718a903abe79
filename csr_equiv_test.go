package lcp_test

import (
	"math/rand"
	"reflect"
	"testing"

	"lcp"
	"lcp/internal/graph"
)

// TestCatalogCSRBuilderEquivalence pins the scale PR's representation
// swap: for every catalogue row's yes-instance, the graph rebuilt
// through the Builder (the validated map-dedup path) and through
// graph.FromEdges on a shuffled edge list (the trusted CSR path) agree
// on the full observable surface — Nodes, Neighbors, BallAround — and
// produce identical per-node verdicts under the row's own scheme. Run
// with -race this also exercises the pooled ball scratch concurrently
// via t.Parallel.
func TestCatalogCSRBuilderEquivalence(t *testing.T) {
	for _, exp := range lcp.Catalog() {
		exp := exp
		if exp.MakeYes == nil || exp.Scheme == nil {
			continue
		}
		t.Run(exp.ID, func(t *testing.T) {
			t.Parallel()
			n := exp.MinN + 9
			in := exp.MakeYes(n, int64(n))
			g := in.G

			// Builder path.
			bld := graph.NewBuilder(g.Kind())
			for _, v := range g.Nodes() {
				bld.AddNode(v)
			}
			for _, e := range g.Edges() {
				bld.AddEdge(e.U, e.V)
			}
			viaBuilder := bld.Graph()

			// Trusted CSR path, fed shuffled edges.
			edges := append([]graph.Edge(nil), g.Edges()...)
			rand.New(rand.NewSource(int64(n))).Shuffle(len(edges), func(i, j int) {
				edges[i], edges[j] = edges[j], edges[i]
			})
			viaCSR := graph.FromEdges(g.Kind(), g.Nodes(), edges)

			for _, h := range []*graph.Graph{viaBuilder, viaCSR} {
				if !graph.Equal(h, g) {
					t.Fatalf("%s: rebuilt graph differs", exp.ID)
				}
				if !reflect.DeepEqual(h.Nodes(), g.Nodes()) {
					t.Fatalf("%s: Nodes differ", exp.ID)
				}
				for _, v := range g.Nodes() {
					if !reflect.DeepEqual(h.Neighbors(v), g.Neighbors(v)) {
						t.Fatalf("%s: Neighbors(%d) differ", exp.ID, v)
					}
				}
				for _, v := range g.Nodes() {
					for radius := 0; radius <= 2; radius++ {
						_, wantDist := g.BallAround(v, radius)
						_, gotDist := h.BallAround(v, radius)
						if !reflect.DeepEqual(gotDist, wantDist) {
							t.Fatalf("%s: BallAround(%d, %d) differs", exp.ID, v, radius)
						}
					}
				}
			}

			// Same scheme, same proof, same verdicts on the rebuilt
			// instance: the checker cannot tell the representations apart.
			p, err := lcp.Prove(exp.Scheme, in)
			if err != nil {
				t.Fatalf("%s: prove: %v", exp.ID, err)
			}
			want := coreCheck(t, in, p, exp.Scheme.Verifier())
			in2 := lcp.NewInstance(viaCSR)
			in2.NodeLabel = in.NodeLabel
			in2.EdgeLabel = in.EdgeLabel
			in2.Weights = in.Weights
			in2.Global = in.Global
			got := coreCheck(t, in2, p, exp.Scheme.Verifier())
			if got.Accepted() != want.Accepted() || !reflect.DeepEqual(got.Outputs, want.Outputs) {
				t.Fatalf("%s: verdicts differ between representations", exp.ID)
			}
		})
	}
}
