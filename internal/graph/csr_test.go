package graph

import (
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// Tests for the CSR backing introduced by the scale PR: the trusted
// constructors must agree with the Builder on every observable surface,
// the pooled-scratch ball construction must agree with (and vastly
// out-allocate) the historical map-based BFS, and the scale-tier
// generators must be deterministic and degrade gracefully at tiny n.

// ballAroundMapBaseline is the pre-CSR implementation of BallAround —
// map-based visited/dist, slice queue — kept verbatim as the semantic
// and allocation baseline.
func ballAroundMapBaseline(g *Graph, center, radius int) ([]int, map[int]int) {
	dist := map[int]int{center: 0}
	queue := []int{center}
	nodes := []int{center}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if dist[v] >= radius {
			continue
		}
		for _, u := range g.UndirectedNeighbors(v) {
			if _, seen := dist[u]; !seen {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
				nodes = append(nodes, u)
			}
		}
	}
	return nodes, dist
}

// rebuildWithBuilder reconstructs g through the Builder path, the
// reference implementation the trusted constructors must match.
func rebuildWithBuilder(g *Graph) *Graph {
	b := NewBuilder(g.Kind())
	for _, v := range g.Nodes() {
		b.AddNode(v)
	}
	for _, e := range g.Edges() {
		b.AddEdge(e.U, e.V)
	}
	return b.Graph()
}

// testGraphs is a representative spread: regular lattice, hub-heavy
// power law, sparse random, a directed graph, isolated nodes, and
// non-dense identifiers.
func testGraphs(t *testing.T) map[string]*Graph {
	t.Helper()
	sparse := NewBuilder(Undirected).AddNode(10).AddNode(20).AddEdge(500, 7).AddEdge(7, 42).Graph()
	dirB := NewBuilder(Directed)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 120; i++ {
		u, v := rng.Intn(40)+1, rng.Intn(40)+1
		if u != v {
			dirB.AddEdge(u, v)
		}
	}
	return map[string]*Graph{
		"grid":      Grid(7, 9),
		"power-law": PowerLaw(200, 3, 11),
		"gnp":       RandomGNP(60, 0.08, 3),
		"sparse":    sparse,
		"directed":  dirB.Graph(),
		"empty":     {},
		"single":    Star(0),
	}
}

func sameGraphSurface(t *testing.T, name string, got, want *Graph) {
	t.Helper()
	if !Equal(got, want) {
		t.Fatalf("%s: graphs not Equal", name)
	}
	if !reflect.DeepEqual(got.Nodes(), want.Nodes()) {
		t.Fatalf("%s: Nodes %v != %v", name, got.Nodes(), want.Nodes())
	}
	if !reflect.DeepEqual(got.Edges(), want.Edges()) {
		t.Fatalf("%s: Edges differ", name)
	}
	for _, v := range want.Nodes() {
		if !reflect.DeepEqual(got.Neighbors(v), want.Neighbors(v)) {
			t.Fatalf("%s: Neighbors(%d) %v != %v", name, v, got.Neighbors(v), want.Neighbors(v))
		}
		if !reflect.DeepEqual(got.UndirectedNeighbors(v), want.UndirectedNeighbors(v)) {
			t.Fatalf("%s: UndirectedNeighbors(%d) differ", name, v)
		}
		if want.Directed() && !reflect.DeepEqual(got.InNeighbors(v), want.InNeighbors(v)) {
			t.Fatalf("%s: InNeighbors(%d) differ", name, v)
		}
		if got.Degree(v) != want.Degree(v) {
			t.Fatalf("%s: Degree(%d) %d != %d", name, v, got.Degree(v), want.Degree(v))
		}
	}
}

// TestFromEdgesMatchesBuilder: FromEdges on a shuffled, duplicated edge
// list reproduces exactly what the Builder produces.
func TestFromEdgesMatchesBuilder(t *testing.T) {
	for name, g := range testGraphs(t) {
		want := rebuildWithBuilder(g)
		edges := append([]Edge(nil), g.Edges()...)
		edges = append(edges, g.Edges()...) // duplicates must dedup
		rand.New(rand.NewSource(1)).Shuffle(len(edges), func(i, j int) {
			edges[i], edges[j] = edges[j], edges[i]
		})
		got := FromEdges(g.Kind(), g.Nodes(), edges)
		sameGraphSurface(t, name, got, want)
	}
}

// TestFromSortedEdgesMatchesBuilder: the no-validation fast path agrees
// with the Builder when fed what it demands (sorted, deduped edges).
func TestFromSortedEdgesMatchesBuilder(t *testing.T) {
	for name, g := range testGraphs(t) {
		want := rebuildWithBuilder(g)
		got := FromSortedEdges(g.Kind(), append([]int(nil), g.Nodes()...), append([]Edge(nil), g.Edges()...))
		sameGraphSurface(t, name, got, want)
	}
}

// TestResetPartsMatchesBuilder: one graph rebuilt in place with one
// scratch, through graphs of every kind, size and lookup tier (dense,
// binary search, id map) in turn and back again, each time reproduces
// exactly what the Builder produces, with nothing left over from the
// graph before.
func TestResetPartsMatchesBuilder(t *testing.T) {
	graphs := testGraphs(t)
	graphs["scrambled"] = RandomPermutationIDs(Grid(10, 12), 3) // past idxMapThreshold, not dense
	names := slices.Sorted(maps.Keys(graphs))
	var g Graph
	var s CSRScratch
	for pass := range 2 {
		for _, name := range names {
			if pass == 1 {
				name = names[len(names)-1-slices.Index(names, name)]
			}
			want := rebuildWithBuilder(graphs[name])
			g.ResetParts(want.Kind(), slices.Clone(want.Nodes()), want.Edges(), &s)
			if !Equal(&g, want) || !slices.Equal(g.Nodes(), want.Nodes()) || !slices.Equal(g.Edges(), want.Edges()) {
				t.Fatalf("pass %d, %s: rebuilt graph differs", pass, name)
			}
			for i, v := range want.Nodes() {
				if j, ok := g.Lookup(v); !ok || j != i || !slices.Equal(g.Neighbors(v), want.Neighbors(v)) || !slices.Equal(g.InNeighbors(v), want.InNeighbors(v)) {
					t.Fatalf("pass %d, %s: node %d differs", pass, name, v)
				}
			}
			if g.Has(want.MaxID() + 1) {
				t.Fatalf("pass %d, %s: rebuilt graph has node %d", pass, name, want.MaxID()+1)
			}
		}
	}
}

func TestFromEdgesValidates(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("self-loop", func() { FromEdges(Undirected, nil, []Edge{{U: 3, V: 3}}) })
	mustPanic("non-positive endpoint", func() { FromEdges(Undirected, nil, []Edge{{U: 0, V: 2}}) })
	mustPanic("non-positive node", func() { FromEdges(Undirected, []int{-1}, nil) })
}

// TestBallAroundMatchesMapBaseline: the pooled-scratch BFS and the
// historical map BFS agree on membership and distances across families,
// radii, and every center.
func TestBallAroundMatchesMapBaseline(t *testing.T) {
	for name, g := range testGraphs(t) {
		for radius := 0; radius <= 4; radius++ {
			for _, v := range g.Nodes() {
				wantNodes, wantDist := ballAroundMapBaseline(g, v, radius)
				gotNodes, gotDist := g.BallAround(v, radius)
				if !sameIntSet(gotNodes, wantNodes) {
					t.Fatalf("%s r=%d center=%d: nodes %v != %v", name, radius, v, gotNodes, wantNodes)
				}
				if !reflect.DeepEqual(gotDist, wantDist) {
					t.Fatalf("%s r=%d center=%d: dist %v != %v", name, radius, v, gotDist, wantDist)
				}
				pos, dist := g.AppendBall(nil, nil, v, radius)
				ids := make([]int, len(pos))
				for j, i := range pos {
					ids[j] = g.Nodes()[i]
					if int(dist[j]) != wantDist[ids[j]] {
						t.Fatalf("%s r=%d center=%d: AppendBall dist of %d = %d, want %d", name, radius, v, ids[j], dist[j], wantDist[ids[j]])
					}
				}
				if !slices.IsSorted(ids) || !sameIntSet(ids, wantNodes) {
					t.Fatalf("%s r=%d center=%d: AppendBall %v != %v", name, radius, v, ids, wantNodes)
				}
			}
		}
	}
}

// TestInducedBallMatchesInduced: the fused InducedBall equals the
// two-step BallAround + Induced it replaced in core.BuildView.
func TestInducedBallMatchesInduced(t *testing.T) {
	for name, g := range testGraphs(t) {
		for _, v := range g.Nodes() {
			for radius := 0; radius <= 3; radius++ {
				nodes, dist := g.BallAround(v, radius)
				want := g.Induced(nodes)
				ball, gotNodes, gotDist := g.InducedBall(v, radius)
				if !Equal(ball, want) {
					t.Fatalf("%s center=%d r=%d: induced ball differs", name, v, radius)
				}
				if !sameIntSet(gotNodes, nodes) || !reflect.DeepEqual(gotDist, dist) {
					t.Fatalf("%s center=%d r=%d: membership differs", name, v, radius)
				}
			}
		}
	}
}

func sameIntSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[int]bool, len(a))
	for _, v := range a {
		seen[v] = true
	}
	for _, v := range b {
		if !seen[v] {
			return false
		}
	}
	return true
}

// TestGeneratorsDegenerateSizes: every family survives n = 0, 1, 2 (and
// negative where the signature allows it) without panicking, with the
// documented degradation.
func TestGeneratorsDegenerateSizes(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		n, m int
	}{
		{"Path(0)", Path(0), 0, 0},
		{"Path(1)", Path(1), 1, 0},
		{"Path(2)", Path(2), 2, 1},
		{"Cycle(0)", Cycle(0), 0, 0},
		{"Cycle(1)", Cycle(1), 1, 0},
		{"Cycle(2)", Cycle(2), 2, 1},
		{"CycleOf()", CycleOf(), 0, 0},
		{"CycleOf(5)", CycleOf(5), 1, 0},
		{"CycleOf(5,9)", CycleOf(5, 9), 2, 1},
		{"Complete(0)", Complete(0), 0, 0},
		{"Complete(1)", Complete(1), 1, 0},
		{"Complete(2)", Complete(2), 2, 1},
		{"CompleteBipartite(0,0)", CompleteBipartite(0, 0), 0, 0},
		{"CompleteBipartite(1,0)", CompleteBipartite(1, 0), 1, 0},
		{"CompleteBipartite(1,1)", CompleteBipartite(1, 1), 2, 1},
		{"Star(-1)", Star(-1), 1, 0},
		{"Star(0)", Star(0), 1, 0},
		{"Star(1)", Star(1), 2, 1},
		{"Wheel(0)", Wheel(0), 1, 0},
		{"Wheel(1)", Wheel(1), 2, 1},
		{"Wheel(2)", Wheel(2), 3, 2},
		{"Grid(0,5)", Grid(0, 5), 0, 0},
		{"Grid(1,1)", Grid(1, 1), 1, 0},
		{"Grid(1,2)", Grid(1, 2), 2, 1},
		{"Hypercube(-1)", Hypercube(-1), 0, 0},
		{"Hypercube(0)", Hypercube(0), 1, 0},
		{"Hypercube(1)", Hypercube(1), 2, 1},
		{"RandomTree(0)", RandomTree(0, 1), 0, 0},
		{"RandomTree(1)", RandomTree(1, 1), 1, 0},
		{"RandomTree(2)", RandomTree(2, 1), 2, 1},
		{"RandomGNP(0)", RandomGNP(0, 1, 1), 0, 0},
		{"RandomGNP(1)", RandomGNP(1, 1, 1), 1, 0},
		{"RandomGNP(2,p=1)", RandomGNP(2, 1, 1), 2, 1},
		{"RandomConnected(0)", RandomConnected(0, 0.5, 1), 0, 0},
		{"RandomConnected(1)", RandomConnected(1, 0.5, 1), 1, 0},
		{"RandomConnected(2)", RandomConnected(2, 0.5, 1), 2, 1},
		{"RandomBipartite(0,0)", RandomBipartite(0, 0, 1, 1), 0, 0},
		{"RandomBipartite(1,1,p=1)", RandomBipartite(1, 1, 1, 1), 2, 1},
		{"PowerLaw(0)", PowerLaw(0, 3, 1), 0, 0},
		{"PowerLaw(1)", PowerLaw(1, 3, 1), 1, 0},
		{"PowerLaw(2)", PowerLaw(2, 3, 1), 2, 1},
		{"RandomRegular(0)", RandomRegular(0, 3, 1), 0, 0},
		{"RandomRegular(1)", RandomRegular(1, 3, 1), 1, 0},
		{"RandomRegular(2)", RandomRegular(2, 3, 1), 2, 1},
		{"RoadNetwork(0,5)", RoadNetwork(0, 5, 3, 1), 0, 0},
		{"RoadNetwork(1,1)", RoadNetwork(1, 1, 3, 1), 1, 0},
		{"RoadNetwork(1,2)", RoadNetwork(1, 2, 3, 1), 2, 1},
	}
	for _, c := range cases {
		if c.g.N() != c.n || c.g.M() != c.m {
			t.Errorf("%s: N=%d M=%d, want N=%d M=%d", c.name, c.g.N(), c.g.M(), c.n, c.m)
		}
	}
}

// connectedBFS is a local connectivity check (graphalg would import-cycle
// back into this package).
func connectedBFS(g *Graph) bool {
	if g.N() == 0 {
		return true
	}
	start := g.Nodes()[0]
	pos, _ := g.AppendBall(nil, nil, start, g.N())
	return len(pos) == g.N()
}

// TestScaleGeneratorsDeterministic: a fixed seed pins the exact graph;
// different seeds give different graphs.
func TestScaleGeneratorsDeterministic(t *testing.T) {
	type gen struct {
		name string
		make func(seed int64) *Graph
	}
	gens := []gen{
		{"PowerLaw", func(s int64) *Graph { return PowerLaw(400, 3, s) }},
		{"RandomRegular", func(s int64) *Graph { return RandomRegular(400, 4, s) }},
		{"RoadNetwork", func(s int64) *Graph { return RoadNetwork(20, 20, 30, s) }},
	}
	for _, g := range gens {
		if !Equal(g.make(7), g.make(7)) {
			t.Errorf("%s: same seed, different graphs", g.name)
		}
		if Equal(g.make(7), g.make(8)) {
			t.Errorf("%s: different seeds, same graph", g.name)
		}
	}
}

func TestPowerLawShape(t *testing.T) {
	n, m := 2000, 4
	g := PowerLaw(n, m, 1)
	if g.N() != n {
		t.Fatalf("N = %d", g.N())
	}
	wantM := (m+1)*m/2 + (n-m-1)*m
	if g.M() != wantM {
		t.Errorf("M = %d, want %d", g.M(), wantM)
	}
	if !connectedBFS(g) {
		t.Error("not connected")
	}
	maxDeg := 0
	for _, v := range g.Nodes() {
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	// Preferential attachment grows hubs: the maximum degree should be
	// far above the mean (2m ≈ 8). The exact value is seed-pinned.
	if maxDeg < 4*m {
		t.Errorf("max degree %d: no hub formed", maxDeg)
	}
}

func TestRandomRegularShape(t *testing.T) {
	n, d := 1001, 4 // odd n, even d: cycles only
	g := RandomRegular(n, d, 2)
	if g.N() != n {
		t.Fatalf("N = %d", g.N())
	}
	if !connectedBFS(g) {
		t.Error("not connected")
	}
	atTarget := 0
	for _, v := range g.Nodes() {
		deg := g.Degree(v)
		if deg > d {
			t.Fatalf("Degree(%d) = %d > %d", v, deg, d)
		}
		if deg == d {
			atTarget++
		}
	}
	if atTarget < n*9/10 {
		t.Errorf("only %d/%d nodes reach degree %d", atTarget, n, d)
	}
}

func TestRoadNetworkShape(t *testing.T) {
	g := RoadNetwork(15, 20, 25, 3)
	if g.N() != 15*20 {
		t.Fatalf("N = %d", g.N())
	}
	lattice := Grid(15, 20)
	for _, e := range lattice.Edges() {
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("lattice edge %v missing", e)
		}
	}
	extra := g.M() - lattice.M()
	if extra < 1 || extra > 25 {
		t.Errorf("shortcut count %d outside (0, 25]", extra)
	}
	if !connectedBFS(g) {
		t.Error("not connected")
	}
}

// TestBallConstructionAllocs pins the tentpole's allocation win: the
// pooled-scratch ball walk allocates at least 5x less than the
// historical map-based BFS on Grid(100,100). AppendBall with reused
// destinations is the hot-loop form (steady-state zero allocs);
// the compat BallAround still allocates its result map but nothing else.
func TestBallConstructionAllocs(t *testing.T) {
	g := Grid(100, 100)
	center, radius := 50*100+50+1, 8

	baseline := testing.AllocsPerRun(50, func() {
		ballAroundMapBaseline(g, center, radius)
	})
	var pos, dist []int32
	scratch := testing.AllocsPerRun(50, func() {
		pos, dist = g.AppendBall(pos[:0], dist[:0], center, radius)
	})
	compat := testing.AllocsPerRun(50, func() {
		g.BallAround(center, radius)
	})

	t.Logf("allocs/op: map-baseline %.0f, AppendBall %.0f, BallAround %.0f", baseline, scratch, compat)
	if scratch*5 > baseline {
		t.Errorf("AppendBall %.0f allocs/op, want <= %.0f (5x under the %.0f baseline)", scratch, baseline/5, baseline)
	}
	if compat >= baseline {
		t.Errorf("BallAround %.0f allocs/op, baseline %.0f: compat wrapper should still win", compat, baseline)
	}
}

// BenchmarkBallConstruction compares ball construction on Grid(100,100):
// the historical map-based BFS, the compat BallAround (pooled scratch,
// map only at the result boundary), and the hot-loop AppendBall form.
// Baselined in BENCH_graph.json.
func BenchmarkBallConstruction(b *testing.B) {
	g := Grid(100, 100)
	center, radius := 50*100+50+1, 8
	b.Run("map-baseline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ballAroundMapBaseline(g, center, radius)
		}
	})
	b.Run("ball-around", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.BallAround(center, radius)
		}
	})
	b.Run("append-ball", func(b *testing.B) {
		b.ReportAllocs()
		var pos, dist []int32
		for i := 0; i < b.N; i++ {
			pos, dist = g.AppendBall(pos[:0], dist[:0], center, radius)
		}
	})
}

// BenchmarkCSRConstruction compares graph assembly paths at generator
// scale: Builder (map dedup) vs FromEdges (sort+compact) vs
// FromSortedEdges (trusted). Baselined in BENCH_graph.json.
func BenchmarkCSRConstruction(b *testing.B) {
	proto := Grid(100, 100)
	nodes := proto.Nodes()
	edges := proto.Edges()
	b.Run("builder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bld := NewBuilder(Undirected)
			for _, v := range nodes {
				bld.AddNode(v)
			}
			for _, e := range edges {
				bld.AddEdge(e.U, e.V)
			}
			bld.Graph()
		}
	})
	b.Run("from-edges", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]Edge, len(edges))
		for i := 0; i < b.N; i++ {
			copy(buf, edges)
			FromEdges(Undirected, nodes, buf)
		}
	})
	b.Run("from-sorted-edges", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			FromSortedEdges(Undirected, nodes, edges)
		}
	})
}
