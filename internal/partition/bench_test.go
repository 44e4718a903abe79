package partition_test

// BenchmarkPartitioners measures the two costs a partitioner controls,
// on the families the ROADMAP called out (grids, trees, random graphs,
// identifiers scrambled so contiguous ranges cannot free-ride on id
// order):
//
//   - assign: the one-off cost of computing the node→shard assignment,
//     with the resulting cross-shard edge count attached as the
//     "cut-edges" metric — the number BENCH_partition.json tracks;
//   - rounds: the steady-state cost of a full sharded verification run
//     under that assignment (dist.CheckWithCtx, 8 shards), where every cut
//     edge is two ports paying channel traffic each round.
//
// Assignment cost is paid once per wiring and amortized by the engine
// and dist.Network across arbitrarily many proofs, so a partitioner
// whose assign row is 10× slower but whose cut is 5× smaller wins on
// any long-lived instance.

import (
	"context"
	"fmt"
	"testing"

	"lcp/internal/core"
	"lcp/internal/dist"
	"lcp/internal/graph"
	"lcp/internal/partition"
)

const benchShards = 8

func benchFamilies() []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"grid-32x32", graph.RandomPermutationIDs(graph.Grid(32, 32), 1)},
		{"tree-1024", graph.RandomPermutationIDs(graph.RandomTree(1024, 2), 3)},
		{"gnp-512-p01", graph.RandomGNP(512, 0.01, 4)},
	}
}

func BenchmarkPartitioners(b *testing.B) {
	for _, fam := range benchFamilies() {
		in := core.NewInstance(fam.g)
		p := core.RandomProof(in, 4, 7)
		v := core.VerifierFunc{R: 2, F: func(w *core.View) bool { return len(w.Nodes()) > 0 }}
		for _, name := range partition.Names() {
			pt, err := partition.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			cut := partition.CutEdges(fam.g, pt.Assign(fam.g, benchShards))
			b.Run(fmt.Sprintf("%s/%s/assign", fam.name, name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					pt.Assign(fam.g, benchShards)
				}
				b.ReportMetric(float64(cut), "cut-edges")
			})
			b.Run(fmt.Sprintf("%s/%s/rounds", fam.name, name), func(b *testing.B) {
				b.ReportAllocs()
				opt := dist.Options{Sharded: true, Shards: benchShards, Partitioner: pt}
				for i := 0; i < b.N; i++ {
					if _, err := dist.CheckWithCtx(context.Background(), in, p, v, opt); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(cut), "cut-edges")
			})
		}
	}
}
