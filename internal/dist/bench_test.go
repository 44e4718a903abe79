package dist_test

// Runtime benchmarks: how the shard layout and wiring reuse move the
// needle on different topologies. The root bench_test.go holds the
// headline three-way comparison (sequential / parallel-shared /
// message-passing); these benches explain *why* the message-passing
// numbers look the way they do.

import (
	"context"
	"fmt"
	"maps"
	"testing"

	"lcp"
	"lcp/internal/core"
	"lcp/internal/dist"
	"lcp/internal/partition"
)

func benchCheckWith(b *testing.B, in *core.Instance, opt dist.Options) {
	b.Helper()
	scheme := lcp.OddNScheme()
	proof, err := scheme.Prove(in)
	if err != nil {
		b.Fatal(err)
	}
	v := scheme.Verifier()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := dist.CheckWithCtx(context.Background(), in, proof, v, opt)
		if err != nil || !res.Accepted() {
			b.Fatalf("rejected: %v", err)
		}
	}
}

func BenchmarkSchedulerTopology(b *testing.B) {
	for _, tc := range []struct {
		name string
		g    *lcp.Graph
	}{
		{"cycle-255", lcp.Cycle(255)},
		{"grid-15x17", lcp.Grid(15, 17)}, // 255 nodes: odd, so odd-n proves
		{"tree-255", lcp.RandomTree(255, 7)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			benchCheckWith(b, lcp.NewInstance(tc.g), dist.Options{})
		})
	}
}

// BenchmarkSchedulerSharded is the headline layout comparison: one
// shard per node (the goroutine-per-node reading of the LOCAL model)
// versus the default GOMAXPROCS shards, on cycles whose node count
// dwarfs GOMAXPROCS (1023 ≥ 4·GOMAXPROCS on any machine this repo
// targets). Sharding batches the automata onto O(GOMAXPROCS)
// goroutines, delivers same-shard messages by direct merge, and shrinks
// every round gate from n participants to one per shard — the ns/op
// gap between the two rows is what BENCH_dist.json tracks.
func BenchmarkSchedulerSharded(b *testing.B) {
	for _, n := range []int{255, 1023} {
		in := lcp.NewInstance(lcp.Cycle(n))
		for _, tc := range []struct {
			name string
			opt  dist.Options
		}{
			{"goroutine-per-node", dist.Options{Shards: n}},
			{"sharded", dist.Options{}},
		} {
			b.Run(fmt.Sprintf("cycle-%d/%s", n, tc.name), func(b *testing.B) {
				b.ReportAllocs()
				benchCheckWith(b, in, tc.opt)
			})
		}
	}
}

// BenchmarkNetworkReuse measures what the reusable Network entry point
// amortizes: "one-shot" pays partitioning, wiring and flooding per
// proof, "reused-network" wires once and only floods. The allocs/op gap
// is the per-run cost of wiring the shards; BENCH_dist.json tracks
// both.
func BenchmarkNetworkReuse(b *testing.B) {
	in := lcp.NewInstance(lcp.Cycle(255))
	scheme := lcp.OddNScheme()
	proof, err := scheme.Prove(in)
	if err != nil {
		b.Fatal(err)
	}
	v := scheme.Verifier()
	b.Run("one-shot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := dist.CheckWithCtx(context.Background(), in, proof, v, dist.Options{})
			if err != nil || !res.Accepted() {
				b.Fatalf("rejected: %v", err)
			}
		}
	})
	b.Run("reused-network", func(b *testing.B) {
		nw, err := dist.NewNetwork(in, dist.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer nw.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := nw.CheckCtx(context.Background(), proof, v)
			if err != nil || !res.Accepted() {
				b.Fatalf("rejected: %v", err)
			}
		}
	})
}

// BenchmarkColdCheck is the one-shot dist check on hub balls: a fresh
// Network and one cold check per op — what CheckWithCtx and a fresh
// dist checker pay — on PowerLaw(1<<14, 4, 1) under leader election,
// two shards cut by BFSChunks. Each op's verdicts are compared with
// core.Check's outside the timed region. BENCH_dist.json tracks it.
func BenchmarkColdCheck(b *testing.B) {
	in := lcp.NewInstance(lcp.PowerLaw(1<<14, 4, 1)).SetNodeLabel(1, core.LabelLeader)
	scheme := lcp.LeaderElectionScheme()
	proof, err := scheme.Prove(in)
	if err != nil {
		b.Fatal(err)
	}
	v := scheme.Verifier()
	want := core.Check(in, proof, v)
	opt := dist.Options{Shards: 2, Partitioner: partition.BFSChunks{}}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw, err := dist.NewNetwork(in, opt)
		if err != nil {
			b.Fatal(err)
		}
		res, err := nw.CheckCtx(ctx, proof, v)
		nw.Close()
		b.StopTimer()
		if err != nil || !maps.Equal(res.Outputs, want.Outputs) {
			b.Fatalf("verdicts differ from core.Check (error %v)", err)
		}
		b.StartTimer()
	}
}
