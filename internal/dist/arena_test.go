package dist_test

// A cold check assembles every node's view in its shard's one arena:
// the allocation budget that buys, and the proof that no node sees what
// the arena held for the node before it.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"lcp"
	"lcp/internal/bitstr"
	"lcp/internal/core"
	"lcp/internal/dist"
	"lcp/internal/graph"
	"lcp/internal/partition"
	"lcp/internal/transport"
)

// TestColdCheckAllocs pins the cold dist check's allocation budget: a
// fresh Network and one check on PowerLaw(4096) under leader election.
// Every view is assembled in its shard's arena, and the links and
// transport buffers are made at their final sizes, so what is left is a
// constant number per shard plus the balls that outgrow their first
// slab: not one graph, view and table set per node.
func TestColdCheckAllocs(t *testing.T) {
	in := lcp.NewInstance(lcp.PowerLaw(4096, 4, 1)).SetNodeLabel(1, core.LabelLeader)
	s := lcp.LeaderElectionScheme()
	p, err := s.Prove(in)
	if err != nil {
		t.Fatal(err)
	}
	v := s.Verifier()
	ctx := context.Background()
	opt := dist.Options{Shards: 2, Partitioner: partition.BFSChunks{}}
	allocs := testing.AllocsPerRun(5, func() {
		nw, err := dist.NewNetwork(in, opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := nw.CheckCtx(ctx, p, v)
		nw.Close()
		if err != nil || !res.Accepted() {
			t.Fatalf("honest proof: %v, %v", res, err)
		}
	})
	perNode := allocs / float64(in.G.N())
	t.Logf("%.0f allocs/op, %.2f allocs/node", allocs, perNode)
	if perNode > 1 {
		t.Fatalf("cold dist check on PowerLaw(%d): %.2f allocs/node, want at most 1", in.G.N(), perNode)
	}
}

// TestColdCheckBytes pins the cold dist check's bytes: a fresh Network
// and one check on PowerLaw(4096) under leader election, as in
// TestColdCheckAllocs. A record is seeded once per node and every ball
// and batch holds pointers to it, 16 bytes a ball entry and 8 a batch
// slot, and a record's edges are its node's CSR row, shared, so the
// check allocates about 1,260 bytes per node. When every record copied
// its edges into 48-byte edge records it was about 1,600; when every
// ball entry and batch slot held a copy of a 96-byte record, about
// 2,750.
func TestColdCheckBytes(t *testing.T) {
	const budget = 1400 // bytes per node
	in := lcp.NewInstance(lcp.PowerLaw(4096, 4, 1)).SetNodeLabel(1, core.LabelLeader)
	s := lcp.LeaderElectionScheme()
	p, err := s.Prove(in)
	if err != nil {
		t.Fatal(err)
	}
	v := s.Verifier()
	ctx := context.Background()
	opt := dist.Options{Shards: 2, Partitioner: partition.BFSChunks{}}
	const runs = 5
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		nw, err := dist.NewNetwork(in, opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := nw.CheckCtx(ctx, p, v)
		nw.Close()
		if err != nil || !res.Accepted() {
			t.Fatalf("honest proof: %v, %v", res, err)
		}
	}
	runtime.ReadMemStats(&m1)
	perNode := float64(m1.TotalAlloc-m0.TotalAlloc) / runs / float64(in.G.N())
	t.Logf("%.0f bytes/node", perNode)
	if perNode > budget {
		t.Fatalf("cold dist check on PowerLaw(%d): %.0f bytes/node, want at most %d", in.G.N(), perNode, budget)
	}
}

// TestArenaViewsMatchBuildView: in a cold check on two shards, every
// node's view, assembled in the arena its shard's previous node used,
// equals core.BuildView's, on a directed instance and on one with node
// labels, edge labels, weights and partial proofs, at radii 1 to 3; so
// does every frozen view, in the check that freezes it (in an arena of
// its own) and in a warm check after that. Each case runs on an
// in-process network and on shards wired, as a dist-tcp worker wires
// them, from records that crossed the wire codec (decodedGroup), where
// a directed record's arcs come back with their direction.
// A third of the nodes first complete their view (Graph, and EdgeLabel
// between two boundary members), a third first read only what completes
// nothing, and a third hold every inner member's row across the
// completion that HasEdge between two of the center's neighbours makes,
// as a triangle count would. So a completed rim, a boundary member or a
// proof entry left over from one node would show at the next, and so
// would a completion that rewrites rows a verifier still holds. (A
// label or edge input left over would not: it is the same in every ball
// that holds its node or edge, and absent from the others' views.)
func TestArenaViewsMatchBuildView(t *testing.T) {
	cases := []struct {
		name string
		in   *core.Instance
	}{
		{"decorated", arenaDecorated(lcp.NewInstance(lcp.RandomConnected(40, 0.12, 5)))},
		{"powerlaw", arenaDecorated(lcp.NewInstance(lcp.PowerLaw(80, 3, 2)))},
		{"directed", arenaDecorated(core.NewInstance(arenaDirected(36, 7)))},
	}
	opt := dist.Options{Shards: 2, Partitioner: partition.BFSChunks{}}
	networks := map[string]func(*core.Instance) (*dist.Network, error){
		"inproc":  func(in *core.Instance) (*dist.Network, error) { return dist.NewNetwork(in, opt) },
		"decoded": func(in *core.Instance) (*dist.Network, error) { return dist.NewNetworkWith(in, opt, buildDecoded) },
	}
	for _, tc := range cases {
		for wiring, newNetwork := range networks {
			arenaViewsMatch(t, tc.name+"/"+wiring, tc.in, newNetwork)
		}
	}
}

// arenaViewsMatch is TestArenaViewsMatchBuildView on one instance and
// one kind of network.
func arenaViewsMatch(t *testing.T, name string, in *core.Instance, newNetwork func(*core.Instance) (*dist.Network, error)) {
	rims := 0 // nodes whose two probed boundary members share an edge
	for r := 1; r <= 3; r++ {
		p := core.RandomProof(in, 4, int64(r))
		for i, id := range in.G.Nodes() {
			switch i % 5 {
			case 0:
				delete(p, id)
			case 1:
				p[id] = bitstr.String{}
			}
		}
		var mu sync.Mutex
		var bad []string
		v := core.VerifierFunc{R: r, F: func(w *core.View) bool {
			ref := core.BuildView(in, p, w.Center, r)
			msg, rim := arenaDiff(w, ref, w.Center%3)
			mu.Lock()
			defer mu.Unlock()
			if rim {
				rims++
			}
			if msg != "" {
				bad = append(bad, fmt.Sprintf("center %d: %s", w.Center, msg))
			}
			return true
		}}
		nw, err := newNetwork(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, check := range []string{"cold", "freezing", "warm"} {
			res, err := nw.CheckCtx(context.Background(), p, v)
			if err != nil || len(res.Outputs) != in.G.N() {
				t.Fatalf("%s r=%d, %s check: %v, %v", name, r, check, err, res)
			}
			if len(bad) > 0 {
				t.Fatalf("%s r=%d, %s check: %v", name, r, check, bad)
			}
		}
		nw.Close()
	}
	if rims == 0 {
		t.Fatalf("%s: no probed pair of boundary members shares an edge", name)
	}
}

// decodedGroup is a dist.Group of shards wired as a dist-tcp worker
// wires its shard: from the plan's records after a trip through the
// wire codec, knowing only the graph kind and Global besides. Its runs
// go over an in-process transport group.
type decodedGroup struct{ shards []*dist.Shard }

func buildDecoded(_ context.Context, plans []dist.ShardPlan) (dist.Group, error) {
	g := &decodedGroup{shards: make([]*dist.Shard, len(plans))}
	for i, plan := range plans {
		recs, err := transport.DecodeRecords(transport.AppendRecords(nil, plan.Records()))
		if err != nil {
			return nil, err
		}
		if g.shards[i], err = dist.WireRecords(i, plan.In.G.Kind(), plan.In.Global, recs, plan.Assign); err != nil {
			return nil, err
		}
	}
	return g, nil
}

func (g *decodedGroup) Run(ctx context.Context, p core.Proof, v core.Verifier) ([][]bool, error) {
	trs := transport.NewInProcGroup(len(g.shards))
	out, errs := make([][]bool, len(g.shards)), make([]error, len(g.shards))
	var wg sync.WaitGroup
	for i, s := range g.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = s.Run(ctx, trs[i], p, v)
			if errs[i] != nil {
				_ = trs[i].Close() // unblock the others
			}
		}()
	}
	wg.Wait()
	for _, tr := range trs {
		_ = tr.Close()
	}
	return out, errors.Join(errs...)
}

func (g *decodedGroup) Close() error { return nil }

// arenaDiff compares an arena view with the reference view of its ball,
// first in one of three ways by mode: 0, through what completes nothing
// (members, distances, labels, proof entries, inner rows); 1, after
// completing it (Graph, then EdgeLabel between two boundary members);
// 2, holding every inner member's row while HasEdge probes every pair of
// the center's neighbours, then comparing the held rows. Then it
// compares the whole views. It returns what differs, if anything, and
// whether the two probed boundary members share an edge.
func arenaDiff(w, ref *core.View, mode int) (string, bool) {
	var rim []int
	for _, u := range ref.Nodes() {
		if !ref.KnowsFully(u) {
			rim = append(rim, u)
		}
	}
	shared := len(rim) >= 2 && (ref.HasEdge(rim[0], rim[1]) || ref.HasEdge(rim[1], rim[0]))
	switch mode {
	case 0:
		for _, u := range ref.Nodes() {
			dw, okw := w.Dist(u)
			dr, _ := ref.Dist(u)
			if !okw || dw != dr || w.Label(u) != ref.Label(u) || !w.ProofOf(u).Equal(ref.ProofOf(u)) {
				return fmt.Sprintf("member %d differs", u), shared
			}
			if ref.KnowsFully(u) && (!slices.Equal(w.Neighbors(u), ref.Neighbors(u)) || !slices.Equal(w.InNeighbors(u), ref.InNeighbors(u))) {
				return fmt.Sprintf("rows of inner member %d differ", u), shared
			}
		}
		if len(w.Nodes()) != len(ref.Nodes()) {
			return "members differ", shared
		}
	case 1:
		if !graph.Equal(w.Graph(), ref.Graph()) {
			return "graphs differ", shared
		}
		if len(rim) >= 2 && w.EdgeLabel(rim[0], rim[1]) != ref.EdgeLabel(rim[0], rim[1]) {
			return fmt.Sprintf("edge label of (%d, %d) differs", rim[0], rim[1]), shared
		}
	case 2:
		held := map[int][]int{}
		for _, u := range ref.Nodes() {
			if ref.KnowsFully(u) {
				held[u] = w.Neighbors(u)
			}
		}
		nbs := slices.Clone(ref.Neighbors(w.Center))
		for i, u := range nbs {
			for _, x := range nbs[i+1:] {
				if w.HasEdge(u, x) != ref.HasEdge(u, x) {
					return fmt.Sprintf("edge (%d, %d) differs", u, x), shared
				}
			}
		}
		for u, row := range held {
			if !slices.Equal(row, ref.Neighbors(u)) {
				return fmt.Sprintf("held row of inner member %d changed to %v", u, row), shared
			}
		}
	}
	if !core.ViewsEqual(w, ref) {
		return "views differ", shared
	}
	return "", shared
}

// arenaDecorated labels every third node, gives every other edge a
// label and every third a weight, so that balls differ in which inputs
// they carry.
func arenaDecorated(in *core.Instance) *core.Instance {
	in.Global = core.Global{"k": 3}
	for i, id := range in.G.Nodes() {
		if i%3 == 0 {
			in.SetNodeLabel(id, fmt.Sprintf("L%d", id%4))
		}
	}
	in.EdgeLabel = map[graph.Edge]string{}
	in.Weights = map[graph.Edge]int64{}
	for i, e := range in.G.Edges() {
		k := graph.NormEdge(e.U, e.V)
		if i%2 == 0 {
			in.EdgeLabel[k] = fmt.Sprintf("e%d", i%3)
		}
		if i%3 == 0 {
			in.Weights[k] = int64(i + 1)
		}
	}
	return in
}

// arenaDirected orients a random connected graph's edges by seed
// parity, and adds the reverse arc of every fifth edge.
func arenaDirected(n int, seed int64) *graph.Graph {
	b := lcp.NewDirectedBuilder()
	for i, e := range lcp.RandomConnected(n, 0.12, seed).Edges() {
		if (e.U+e.V+int(seed))%2 == 0 {
			b.AddEdge(e.U, e.V)
		} else {
			b.AddEdge(e.V, e.U)
		}
		if i%5 == 0 {
			b.AddEdge(e.V, e.U)
		}
	}
	return b.Graph()
}
