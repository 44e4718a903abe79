package dist

import (
	"context"
	"fmt"
	"runtime"

	"lcp/internal/core"
	"lcp/internal/partition"
)

// Options configures the runtime. The zero value is the default used
// by Check and Collect: GOMAXPROCS shards cut by the contiguous
// partitioner.
type Options struct {
	// Sharded has no effect: Shards alone picks the layout. The field is
	// kept so existing callers keep compiling.
	Sharded bool
	// Shards is the number of shard goroutines a check runs, each
	// stepping its group of node automata through Shard.Run. 0 means
	// GOMAXPROCS; the count is capped at the node count, so Shards: n
	// is the goroutine-per-node layout of the model's "n independent
	// processors".
	Shards int
	// Partitioner computes the node→shard assignment. nil means
	// partition.Contiguous{}: near-equal chunks of the ascending
	// identifier order. Locality-aware partitioners
	// (partition.BFSChunks, partition.GreedyBalanced) cut fewer edges
	// across shard boundaries, which means less cross-shard traffic on
	// graphs whose identifiers do not follow topology. Verdicts are
	// identical under every assignment.
	Partitioner partition.Partitioner
}

// shardCount resolves the shard count for a network of n ≥ 1 nodes:
// at least 1 and at most n.
func (o Options) shardCount(n int) int {
	if o.Shards <= 0 {
		return min(runtime.GOMAXPROCS(0), n)
	}
	return min(o.Shards, n)
}

// Check runs the verifier on the message-passing runtime: every node
// floods for Radius() rounds, assembles its view, and decides. The
// result is verdict-for-verdict identical to core.Check. The error is
// non-nil only if the network could not run (nil arguments) or a
// verifier panicked.
func Check(in *core.Instance, p core.Proof, v core.Verifier) (*core.Result, error) {
	return CheckWith(in, p, v, Options{})
}

// CheckWith is Check with an explicit layout.
func CheckWith(in *core.Instance, p core.Proof, v core.Verifier, opt Options) (*core.Result, error) {
	//lint:ignore ctxflow ctx-less CheckWith is the documented uncancellable entry point; CheckWithCtx is the threaded variant
	return CheckWithCtx(context.Background(), in, p, v, opt)
}

// CheckWithCtx is CheckWith with context cancellation: the run aborts
// between communication rounds and returns ctx.Err(). It wires a
// Network for the one check; callers verifying many proofs should keep
// a Network instead.
func CheckWithCtx(ctx context.Context, in *core.Instance, p core.Proof, v core.Verifier, opt Options) (*core.Result, error) {
	if v == nil {
		return nil, fmt.Errorf("dist: nil verifier")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	nw, err := NewNetwork(in, opt)
	if err != nil {
		return nil, err
	}
	defer nw.Close()
	return nw.CheckCtx(ctx, p, v)
}

// Collect assembles the radius-r view of center by running the flooding
// protocol: every node participates in r communication rounds, after
// which center reconstructs (G[v,r], P[v,r], v) from what reached it. The
// result is identical to core.BuildView(in, p, center, radius) — the
// property test in the package asserts this — but is produced without
// any shared-memory traversal of the graph.
func Collect(in *core.Instance, p core.Proof, center, radius int) *core.View {
	return CollectWith(in, p, center, radius, Options{})
}

// CollectWith is Collect with an explicit layout: a CheckWith whose
// verifier keeps the center's view. Like Collect it panics on
// impossible inputs — an unknown center, or a custom Partitioner
// returning an invalid assignment.
func CollectWith(in *core.Instance, p core.Proof, center, radius int, opt Options) *core.View {
	if !in.G.Has(center) {
		panic(fmt.Sprintf("dist: unknown node %d", center))
	}
	var view *core.View
	keep := core.VerifierFunc{R: radius, F: func(w *core.View) bool {
		if w.Center == center {
			view = w
		}
		return true
	}}
	if _, err := CheckWith(in, p, keep, opt); err != nil {
		panic(err)
	}
	return view
}
