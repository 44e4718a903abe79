package remote_test

// Wire-cost benchmark behind BENCH_transport.json: the dist-tcp
// coordinator fanning checks out to a loopback fleet. The grid arms
// check bipartiteness on a scrambled Grid(32,32) with 4 workers, once
// per partitioner. The partitioner is the experiment there: Contiguous
// on scrambled IDs cuts almost every edge (every round floods the full
// frontier across shards), while BFSChunks recovers the grid's
// locality, so the same check moves a fraction of the bytes. The
// powerlaw arm checks leader election on PowerLaw(2048) with 2 workers
// and BFSChunks, alternating the honest proof with bit-flipped ones,
// each verdict compared with core.Check's: hub balls and multi-bit
// proofs, the fleet the benchmark's powerlaw workload runs. Every arm
// times warm checks (the registration's shards have frozen their
// balls, so a check floods proof bits only). The custom columns —
// wire_bytes/op for the cut cost and rounds/s for protocol throughput —
// come from the transport.Stats the coordinator aggregates, not from
// host-side proxies.

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"lcp"
	"lcp/internal/core"
	"lcp/internal/graph"
	"lcp/internal/partition"
	"lcp/internal/remote"
	"lcp/internal/transport"
)

func BenchmarkTCPFanout(b *testing.B) {
	grid := lcp.NewInstance(graph.RandomPermutationIDs(graph.Grid(32, 32), 1))
	bipartite, err := lcp.BipartiteScheme().Prove(grid)
	if err != nil {
		b.Fatal(err)
	}
	for _, pt := range []partition.Partitioner{partition.Contiguous{}, partition.BFSChunks{}} {
		b.Run(pt.Name(), func(b *testing.B) {
			benchFanout(b, grid, lcp.BipartiteScheme(), 4, pt, []core.Proof{bipartite})
		})
	}

	pl := lcp.NewInstance(lcp.PowerLaw(2048, 4, 1))
	ids := pl.G.Nodes()
	pl.NodeLabel = map[int]string{ids[len(ids)-1]: lcp.LabelLeader}
	honest, err := lcp.LeaderElectionScheme().Prove(pl)
	if err != nil {
		b.Fatal(err)
	}
	var proofs []core.Proof
	for seed := range int64(3) {
		proofs = append(proofs, honest, core.FlipBit(honest, seed))
	}
	b.Run("powerlaw", func(b *testing.B) {
		benchFanout(b, pl, lcp.LeaderElectionScheme(), 2, partition.BFSChunks{}, proofs)
	})
}

// benchFanout registers in on a fleet of the given size and times
// checks cycling through proofs, each verdict checked against
// core.Check's rejectors. Two untimed warm-up checks freeze the
// registration's balls first.
func benchFanout(b *testing.B, in *core.Instance, scheme core.Scheme, workers int, pt partition.Partitioner, proofs []core.Proof) {
	want := make([][]int, len(proofs))
	for i, p := range proofs {
		want[i] = core.Check(in, p, scheme.Verifier()).Rejectors()
	}
	addrs, _ := startFleet(b, workers, catalogSchemes())
	ctx := context.Background()
	coord, err := remote.DialCoordinator(ctx, fmt.Sprintf("bench-%s-%d", pt.Name(), in.G.N()), addrs, remote.Options{Partitioner: pt})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = coord.Close() }()
	if err := coord.Register(ctx, in, scheme.Name()); err != nil {
		b.Fatal(err)
	}
	check := func(i int) transport.Stats {
		c := i % len(proofs)
		res, stats, err := coord.Check(ctx, proofs[c])
		if err != nil {
			b.Fatal(err)
		}
		if got := res.Rejectors(); !slices.Equal(got, want[c]) {
			b.Fatalf("proof %d: %d rejectors, core.Check has %d", c, len(got), len(want[c]))
		}
		return stats
	}
	check(0)
	check(0)

	var total transport.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total.Add(check(i))
	}
	b.StopTimer()
	wire := total.BytesIn + total.BytesOut
	b.ReportMetric(float64(wire)/float64(b.N), "wire_bytes/op")
	b.ReportMetric(float64(total.FramesOut)/float64(b.N), "frames/op")
	b.ReportMetric(float64(total.Rounds)/b.Elapsed().Seconds(), "rounds/s")
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
