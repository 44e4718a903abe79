package dist_test

// Round-0 records: an in-process record's neighbours are its node's
// CSR row, shared, not copied; and the records a dist-tcp registration
// ships survive the wire codec as the instance's own edge keys and
// inputs, directed arcs included.

import (
	"testing"

	"lcp"
	"lcp/internal/dist"
	"lcp/internal/graph"
	"lcp/internal/transport"
)

// TestRecordsShareCSR: an undirected instance's records alias each
// node's CSR row (capped at its length, so no append can write into the
// next row), split where the row passes the node, and Records allocates
// the same few slabs on a sparse graph as on a dense one of the same
// order: nothing per edge.
func TestRecordsShareCSR(t *testing.T) {
	in := lcp.NewInstance(lcp.PowerLaw(512, 4, 1))
	plan := dist.ShardPlan{In: in, Owned: in.G.Nodes()}
	for _, rec := range plan.Records() {
		row := in.G.Neighbors(rec.ID)
		if len(rec.Nbrs) != len(row) || cap(rec.Nbrs) != len(row) || len(row) > 0 && &rec.Nbrs[0] != &row[0] {
			t.Fatalf("node %d: record neighbours %v do not alias its CSR row %v", rec.ID, rec.Nbrs, row)
		}
		for i, w := range row {
			if e := rec.Edge(i); e != graph.NormEdge(rec.ID, w) {
				t.Fatalf("node %d: edge %d is %v, want %v", rec.ID, i, e, graph.NormEdge(rec.ID, w))
			}
		}
		if rec.Inputs != nil {
			t.Fatalf("node %d: edge inputs on an instance without any", rec.ID)
		}
	}

	allocs := func(g *graph.Graph) float64 {
		in := lcp.NewInstance(g)
		plan := dist.ShardPlan{In: in, Owned: in.G.Nodes()}
		return testing.AllocsPerRun(10, func() { plan.Records() })
	}
	sparse, dense := allocs(lcp.Cycle(256)), allocs(lcp.PowerLaw(256, 16, 1))
	if sparse != dense || sparse > 1 {
		t.Fatalf("Records made %.0f allocations on Cycle(256) and %.0f on PowerLaw(256, 16): want one, the record slab", sparse, dense)
	}
}

// TestDirectedRecordsRoundTrip: a directed instance with reciprocal
// arcs, edge labels and weights ships records that decode, through
// AppendRecords and DecodeRecords, to exactly the instance's arcs at
// each node (in-arcs then out-arcs) with the labels and weights the
// instance keys them by.
func TestDirectedRecordsRoundTrip(t *testing.T) {
	in := arenaDecorated(lcp.NewInstance(arenaDirected(40, 3)))
	plan := dist.ShardPlan{In: in, Owned: in.G.Nodes()}
	recs, err := transport.DecodeRecords(transport.AppendRecords(nil, plan.Records()))
	if err != nil {
		t.Fatal(err)
	}
	reciprocal := 0
	for _, rec := range recs {
		var want []graph.Edge
		for _, w := range in.G.InNeighbors(rec.ID) {
			want = append(want, graph.Edge{U: w, V: rec.ID})
		}
		for _, w := range in.G.Neighbors(rec.ID) {
			want = append(want, graph.Edge{U: rec.ID, V: w})
			if in.G.HasEdge(w, rec.ID) {
				reciprocal++
			}
		}
		if len(rec.Nbrs) != len(want) {
			t.Fatalf("node %d: decoded %d edges, the instance has %d", rec.ID, len(rec.Nbrs), len(want))
		}
		for i, e := range want {
			if got := rec.Edge(i); got != e {
				t.Fatalf("node %d: edge %d decoded as %v, want %v", rec.ID, i, got, e)
			}
			x, key := rec.Input(i), graph.NormEdge(e.U, e.V)
			label, hasLabel := in.EdgeLabel[key]
			weight, hasWeight := in.Weights[key]
			if x != (transport.EdgeInput{Label: label, Weight: weight, HasLabel: hasLabel, HasWeight: hasWeight}) {
				t.Fatalf("node %d: edge %v decoded with input %+v, the instance has label %q (%v) and weight %d (%v)",
					rec.ID, e, x, label, hasLabel, weight, hasWeight)
			}
		}
		if l, ok := in.NodeLabel[rec.ID]; rec.HasLabel != ok || rec.Label != l {
			t.Fatalf("node %d: label %q (%v), want %q (%v)", rec.ID, rec.Label, rec.HasLabel, l, ok)
		}
	}
	if reciprocal == 0 || len(in.EdgeLabel) == 0 || len(in.Weights) == 0 {
		t.Fatalf("the instance has %d reciprocal arcs, %d edge labels and %d weights: the test needs all three", reciprocal, len(in.EdgeLabel), len(in.Weights))
	}
}
