package dist

// Records are shared, never copied: in process, every ball entry of a
// cold check points at the seeded record of the automaton it describes,
// whichever shard that automaton runs on.

import (
	"context"
	"maps"
	"testing"

	"lcp/internal/core"
	"lcp/internal/graph"
	"lcp/internal/partition"
)

// LabelledGrid is a Grid(4,5) carrying every kind of input — node
// labels, edge labels, weights, a global — so a record that still
// carried its node's knowledge would show it. The package's external
// tests use it too.
func LabelledGrid() *core.Instance {
	g := graph.Grid(4, 5)
	in := core.NewInstance(g).SetNodeLabel(1, core.LabelS).SetNodeLabel(20, core.LabelT)
	in.MarkEdge(1, 2)
	in.MarkEdge(6, 7)
	in.Weights = map[graph.Edge]int64{}
	for i, e := range g.Edges() {
		in.Weights[e] = int64(2*i + 1)
	}
	in.Global = core.Global{"k": 3}
	return in
}

// TestColdBallsShareRecords: after a cold radius-2 check on two shards,
// every entry of every automaton's ball points at the self of the
// automaton it describes, on its own shard or across the cut, so no
// record was copied after seeding; and the verdicts are core.Check's.
func TestColdBallsShareRecords(t *testing.T) {
	in := LabelledGrid()
	v := core.VerifierFunc{R: 2, F: func(w *core.View) bool { return len(w.Nodes())%2 == 0 }}
	p := core.RandomProof(in, 3, 1)
	nw, err := NewNetwork(in, Options{Shards: 2, Partitioner: partition.BFSChunks{}})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	w := nw.idle[0].(*wiring)
	verdicts, err := w.Run(context.Background(), p, v)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MergeVerdicts(nw.plans, verdicts)
	if err != nil {
		t.Fatal(err)
	}
	if want := core.Check(in, p, v); !maps.Equal(res.Outputs, want.Outputs) {
		t.Fatalf("verdicts %v, want core.Check's %v", res.Outputs, want.Outputs)
	}
	owner := map[int]*node{}
	for _, s := range w.shards {
		for id, nd := range s.byID {
			owner[id] = nd
		}
	}
	cross := 0
	for si, s := range w.shards {
		for i := range s.nodes {
			nd := &s.nodes[i]
			if len(nd.ball) < 2 {
				t.Fatalf("shard %d: node %d learned nothing", si, nd.id)
			}
			for _, l := range nd.ball {
				origin := owner[l.rec.ID]
				if l.rec != &origin.self {
					t.Fatalf("shard %d: node %d's ball entry for node %d is a copy, not its self", si, nd.id, l.rec.ID)
				}
				if w.shards[nw.plans[0].Assign[l.rec.ID]] != s {
					cross++
				}
			}
		}
	}
	if cross == 0 {
		t.Fatal("no ball entry crossed the cut")
	}
}
