package graphalg

import (
	"testing"

	"lcp/internal/graph"
)

func TestIsSmallLineGraphPositives(t *testing.T) {
	positives := []*graph.Graph{
		graph.Path(1),                        // L(P2)
		graph.Path(2),                        // L(P3)
		graph.Cycle(3),                       // L(C3) and L(K_{1,3})
		graph.Cycle(5),                       // L(C5)
		graph.Cycle(6),                       // L(C6)
		graph.Complete(3),                    // triangle again
		graph.LineGraphOf(graph.Path(5)),     // P4
		graph.LineGraphOf(graph.Star(4)),     // K4
		graph.LineGraphOf(graph.Complete(4)), // octahedron = L(K4), 6 nodes
	}
	for _, g := range positives {
		if g.N() > BeinekeBound {
			t.Fatalf("test graph too big: %v", g)
		}
		if !IsSmallLineGraph(g) {
			t.Errorf("%v should be a line graph", g)
		}
	}
}

func TestIsSmallLineGraphNegatives(t *testing.T) {
	negatives := []*graph.Graph{
		graph.Star(3),  // K_{1,3}, the claw — Beineke G1
		graph.Wheel(5), // W5 is among the forbidden graphs
		graph.CompleteBipartite(2, 3),
	}
	for _, g := range negatives {
		if IsSmallLineGraph(g) {
			t.Errorf("%v should not be a line graph", g)
		}
	}
}

func TestIsLineGraphGlobal(t *testing.T) {
	if !IsLineGraph(graph.LineGraphOf(graph.Petersen())) {
		t.Error("L(Petersen) rejected")
	}
	if !IsLineGraph(graph.Cycle(12)) {
		t.Error("C12 rejected")
	}
	if IsLineGraph(graph.Star(3)) {
		t.Error("claw accepted")
	}
	// A big graph with a single buried claw.
	g := graph.Path(12)
	claw := g.WithEdges([]graph.Edge{{U: 6, V: 13}, {U: 6, V: 14}}, nil)
	if IsLineGraph(claw) {
		t.Error("buried claw accepted")
	}
	if !IsLineGraph(graph.LineGraphOf(graph.RandomTree(9, 4))) {
		t.Error("line graph of tree rejected")
	}
}

func TestLineGraphLocalCheckFindsOnlyLocalViolation(t *testing.T) {
	// Path with a claw at node 6: nodes near the claw must fail the local
	// check; distant nodes must pass (a connected subgraph on ≤ 6 nodes
	// stays within distance 5 of each of its nodes).
	g := graph.Path(20).WithEdges([]graph.Edge{{U: 6, V: 21}, {U: 6, V: 22}}, nil)
	if LineGraphLocalCheck(g, 6) {
		t.Error("claw center passed")
	}
	if !LineGraphLocalCheck(g, 20) {
		t.Error("node 14 hops away failed; locality broken")
	}
}

// TestBeinekeNine reproduces Beineke's theorem as an experiment: there are
// exactly nine minimal forbidden induced subgraphs for line graphs, each
// with at most 6 vertices (experiment X-beineke in DESIGN.md).
func TestBeinekeNine(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive 6-vertex enumeration; skipped with -short")
	}
	forb := MinimalForbiddenLineSubgraphs(6)
	if len(forb) != 9 {
		for _, g := range forb {
			t.Logf("forbidden: %v edges %v", g, g.Edges())
		}
		t.Fatalf("found %d minimal forbidden subgraphs, want 9 (Beineke)", len(forb))
	}
	// Each lies in the radius-LineGraphRadius ball of one of its centres,
	// which is all the line-graph verifier needs to see.
	for _, g := range forb {
		if r := graphRadius(g); r > LineGraphRadius {
			t.Errorf("forbidden graph %v has radius %d, above LineGraphRadius = %d", g.Edges(), r, LineGraphRadius)
		}
	}
	// The claw must be among them, as the unique 4-vertex one.
	clawCount := 0
	for _, g := range forb {
		if g.N() == 4 {
			clawCount++
			if !IsIsomorphic(g, graph.Star(3)) {
				t.Error("4-vertex forbidden graph is not the claw")
			}
		}
	}
	if clawCount != 1 {
		t.Errorf("%d forbidden graphs on 4 vertices, want exactly 1 (claw)", clawCount)
	}
}

// graphRadius is the least eccentricity over the nodes of a connected
// graph.
func graphRadius(g *graph.Graph) int {
	r := g.N()
	for _, v := range g.Nodes() {
		ecc := 0
		for _, d := range BFS(g, v) {
			ecc = max(ecc, d)
		}
		r = min(r, ecc)
	}
	return r
}
