package dist_test

// Sanity checks on the runtime's round/message accounting: on a cycle
// the wiring is fully known, so the deltas a run contributes to the
// process-wide counters are exact. The assertions mirror the paper's
// complexity measures — a radius-r verifier costs exactly r rounds, and
// each round delivers one batch per directed communication link.
//
// These tests read global counters, so they must not run in parallel
// with other tests that drive the dist runtime (they don't call
// t.Parallel, and Go runs non-parallel tests of a package sequentially).

import (
	"context"
	"testing"

	"lcp"
	"lcp/internal/core"
	"lcp/internal/dist"
	"lcp/internal/partition"
)

func TestMetricsPerNodeCycle(t *testing.T) {
	const n, r = 12, 3
	in := core.NewInstance(lcp.Cycle(n))
	v := core.VerifierFunc{R: r, F: func(*core.View) bool { return true }}

	before := dist.Metrics()
	if _, err := dist.CheckWithCtx(context.Background(), in, nil, v, dist.Options{Shards: n}); err != nil {
		t.Fatal(err)
	}
	after := dist.Metrics()

	if got := after.Runs - before.Runs; got != 1 {
		t.Errorf("runs delta = %v, want 1", got)
	}
	if got := after.Rounds - before.Rounds; got != r {
		t.Errorf("rounds delta = %v, want %d", got, r)
	}
	// A cycle has n undirected edges = 2n directed links; with one
	// shard per node every link is a cut edge carrying one batch per
	// round, and there are no same-shard links at all.
	if got := after.CrossShardDeliveries - before.CrossShardDeliveries; got != 2*n*r {
		t.Errorf("cross-shard deliveries delta = %v, want %d", got, 2*n*r)
	}
	if got := after.SameShardDeliveries - before.SameShardDeliveries; got != 0 {
		t.Errorf("same-shard deliveries delta = %v, want 0", got)
	}
}

func TestMetricsShardedCycle(t *testing.T) {
	const n, r = 12, 2
	in := core.NewInstance(lcp.Cycle(n))
	v := core.VerifierFunc{R: r, F: func(*core.View) bool { return true }}
	opt := dist.Options{Shards: 2, Partitioner: partition.Contiguous{}}

	before := dist.Metrics()
	if _, err := dist.CheckWithCtx(context.Background(), in, nil, v, opt); err != nil {
		t.Fatal(err)
	}
	after := dist.Metrics()

	if got := after.Runs - before.Runs; got != 1 {
		t.Errorf("runs delta = %v, want 1", got)
	}
	if got := after.Rounds - before.Rounds; got != r {
		t.Errorf("rounds delta = %v, want %d", got, r)
	}
	// A contiguous 2-way split of a cycle cuts exactly 2 undirected
	// edges (4 directed cut-edge links); the remaining n-2 edges stay
	// inside a shard (2n-4 directed merge links).
	if got := after.CrossShardDeliveries - before.CrossShardDeliveries; got != 4*r {
		t.Errorf("cross-shard deliveries delta = %v, want %d", got, 4*r)
	}
	if got := after.SameShardDeliveries - before.SameShardDeliveries; got != (2*n-4)*r {
		t.Errorf("same-shard deliveries delta = %v, want %d", got, (2*n-4)*r)
	}
}
