package remote_test

// Wire-cost benchmark behind BENCH_transport.json: the dist-tcp
// coordinator fanning a bipartiteness check out to a 4-worker loopback
// fleet on a scrambled Grid(32,32), once per partitioner. The
// partitioner is the experiment: Contiguous on scrambled IDs cuts
// almost every edge (every round floods the full frontier across
// shards), while BFSChunks
// recovers the grid's locality, so the same check moves a fraction of
// the bytes. The custom columns — wire_bytes/op for the cut cost and
// rounds/s for protocol throughput — come from the transport.Stats the
// coordinator aggregates, not from host-side proxies.

import (
	"context"
	"fmt"
	"testing"

	"lcp"
	"lcp/internal/core"
	"lcp/internal/graph"
	"lcp/internal/partition"
	"lcp/internal/remote"
	"lcp/internal/transport"
)

func BenchmarkTCPFanout(b *testing.B) {
	g := graph.RandomPermutationIDs(graph.Grid(32, 32), 1)
	in := lcp.NewInstance(g)
	scheme := lcp.BipartiteScheme()
	p, err := scheme.Prove(in)
	if err != nil {
		b.Fatal(err)
	}
	want := core.Check(in, p, scheme.Verifier()).Accepted()

	for _, pt := range []partition.Partitioner{partition.Contiguous{}, partition.BFSChunks{}} {
		pt := pt
		b.Run(pt.Name(), func(b *testing.B) {
			addrs, _ := startFleet(b, 4, catalogSchemes())
			ctx := context.Background()
			coord, err := remote.DialCoordinator(ctx, fmt.Sprintf("bench-%s", pt.Name()), addrs, remote.Options{Partitioner: pt})
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = coord.Close() }()
			if err := coord.Register(ctx, in, scheme.Name()); err != nil {
				b.Fatal(err)
			}

			var total transport.Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, stats, err := coord.Check(ctx, p)
				if err != nil {
					b.Fatal(err)
				}
				if res.Accepted() != want {
					b.Fatalf("accepted=%v, reference says %v", res.Accepted(), want)
				}
				total.Add(stats)
			}
			b.StopTimer()
			wire := total.BytesIn + total.BytesOut
			b.ReportMetric(float64(wire)/float64(b.N), "wire_bytes/op")
			b.ReportMetric(float64(total.FramesOut)/float64(b.N), "frames/op")
			b.ReportMetric(float64(total.Rounds)/b.Elapsed().Seconds(), "rounds/s")
		})
	}
}

// BenchmarkRegister times one registration of a scrambled Grid(64,64)
// on a 2-worker loopback fleet — dial, OpRegister (records out, shards
// wired), OpConnect (mesh built), close — the set-up a dist-tcp checker
// pays before its first check.
func BenchmarkRegister(b *testing.B) {
	in := lcp.NewInstance(graph.RandomPermutationIDs(graph.Grid(64, 64), 1))
	addrs, _ := startFleet(b, 2, catalogSchemes())
	ctx := context.Background()
	opts := remote.Options{Partitioner: partition.BFSChunks{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coord, err := remote.DialCoordinator(ctx, fmt.Sprintf("bench-register-%d", i), addrs, opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := coord.Register(ctx, in, lcp.BipartiteScheme().Name()); err != nil {
			b.Fatal(err)
		}
		if err := coord.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
