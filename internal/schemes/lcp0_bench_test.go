package schemes

import (
	"testing"

	"lcp/internal/core"
	"lcp/internal/graph"
)

// BenchmarkLineGraphVerify times the line-graph verifier (radius 2) on
// prebuilt views of a yes-instance, one op per node, and reports
// allocs/node. Each pass verifies fresh views, so the induced ball a
// view builds for the verifier counts toward Verify, as it does in a
// check.
func BenchmarkLineGraphVerify(b *testing.B) {
	in := core.NewInstance(graph.LineGraphOf(graph.RandomTree(65, 1)))
	v := LineGraph{}.Verifier()
	nodes := in.G.Nodes()
	views := make([]*core.View, len(nodes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(nodes) {
		b.StopTimer()
		for j, id := range nodes {
			views[j] = core.BuildView(in, nil, id, v.Radius())
		}
		b.StartTimer()
		for _, w := range views {
			if !v.Verify(w) {
				b.Fatalf("node %d rejects a line graph", w.Center)
			}
		}
	}
}
