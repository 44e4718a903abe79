package dist_test

// The transport-backed runner's contract: CheckTransport (the sharded
// four-phase round executed over transport.InProc) is verdict-identical
// to core.Check across the whole catalog — honest, tampered, and
// truncated proofs, every partitioner, shard counts that force real
// cut-edge traffic — and cancellation unblocks the whole group within
// bounded time instead of deadlocking a gate.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"lcp"
	"lcp/internal/core"
	"lcp/internal/dist"
	"lcp/internal/graph"
	"lcp/internal/partition"
	"lcp/internal/transport"
)

func TestCheckTransportMatchesCoreOnCatalog(t *testing.T) {
	const n = 12
	ctx := context.Background()
	partitioners := []partition.Partitioner{partition.Contiguous{}, partition.BFSChunks{}}
	for _, exp := range lcp.Catalog() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			t.Parallel()
			size := n
			if size < exp.MinN {
				size = exp.MinN
			}
			in := exp.MakeYes(size, 1)
			honest, err := exp.Scheme.Prove(in)
			if err != nil {
				t.Fatalf("prove: %v", err)
			}
			v := exp.Scheme.Verifier()
			proofs := []core.Proof{honest, core.FlipBit(honest, 0), honest.Truncated(1)}
			labels := []string{"honest", "tampered", "truncated"}
			for pi, p := range proofs {
				want := core.Check(in, p, v)
				for _, shards := range []int{1, 3, 4} {
					for _, pt := range partitioners {
						got, err := dist.CheckTransport(ctx, in, p, v, shards, pt)
						if err != nil {
							t.Fatalf("%s/%d-shards/%s: %v", labels[pi], shards, pt.Name(), err)
						}
						if !reflect.DeepEqual(got.Outputs, want.Outputs) {
							t.Fatalf("%s/%d-shards/%s: outputs differ:\n got %v\nwant %v",
								labels[pi], shards, pt.Name(), got.Outputs, want.Outputs)
						}
					}
				}
			}
		})
	}
}

// TestCheckTransportCancellation: a cancelled context aborts the group
// between rounds with the context's error, promptly, on every shard.
func TestCheckTransportCancellation(t *testing.T) {
	exp := widestExperiment(t)
	in := exp.MakeYes(64, 1)
	p, err := exp.Scheme.Prove(in)
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() {
		_, err := dist.CheckTransport(ctx, in, p, exp.Scheme.Verifier(), 4, partition.BFSChunks{})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled transport check succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled transport check hung")
	}
}

// widestExperiment picks the catalog experiment with the largest
// verifier radius, so multi-round flooding (and with it mid-run
// cancellation windows) actually happens.
func widestExperiment(t *testing.T) lcp.Experiment {
	t.Helper()
	var best lcp.Experiment
	bestR := -1
	for _, exp := range lcp.Catalog() {
		if r := exp.Scheme.Verifier().Radius(); r > bestR {
			best, bestR = exp, r
		}
	}
	if bestR < 1 {
		t.Fatal("catalog has no scheme with radius >= 1")
	}
	return best
}

// TestCheckTransportPropagatesVerifierPanic: a panicking verifier on
// one shard becomes an error for the whole check, and the poisoned
// group still unwinds every other shard.
func TestCheckTransportPropagatesVerifierPanic(t *testing.T) {
	exp := widestExperiment(t)
	in := exp.MakeYes(24, 1)
	p, err := exp.Scheme.Prove(in)
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	bomb := core.VerifierFunc{
		R: exp.Scheme.Verifier().Radius(),
		F: func(w *core.View) bool { panic(fmt.Sprintf("bomb at %d", w.Center)) },
	}
	if _, err := dist.CheckTransport(context.Background(), in, p, bomb, 3, nil); err == nil {
		t.Fatal("panicking verifier produced no error")
	}
}

// cancelAt wraps one shard's transport and cancels the check's context
// as that shard enters the given round: a deterministic mid-flood
// abort.
type cancelAt struct {
	transport.Transport
	round  int
	cancel context.CancelFunc
}

func (c cancelAt) Exchange(ctx context.Context, round int) ([]transport.Delivery, error) {
	if round == c.round {
		c.cancel()
	}
	return c.Transport.Exchange(ctx, round)
}

// runShards runs one check over shards wired once, each check over a
// fresh in-process group — the way a worker keeps its shard across
// checks but opens a fresh data plane for each. wrap, when non-nil,
// wraps shard 0's transport.
func runShards(ctx context.Context, shards []*dist.Shard, p core.Proof, v core.Verifier, wrap func(transport.Transport) transport.Transport) (map[int]bool, error) {
	trs := transport.NewInProcGroup(len(shards))
	outs := make([][]bool, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for s, sh := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { _ = trs[s].Close() }()
			var tr transport.Transport = trs[s]
			if s == 0 && wrap != nil {
				tr = wrap(tr)
			}
			outs[s], errs[s] = sh.Run(ctx, tr, p, v)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	merged := map[int]bool{}
	for s, sh := range shards {
		for i, id := range sh.Owned() {
			merged[id] = outs[s][i]
		}
	}
	return merged, nil
}

// TestShardReuseMatchesCore: on every catalog instance, shards wired
// once by NewShard serve alternating honest, tampered and truncated
// proofs with core.Check's verdicts every time, and a run aborted
// mid-flood leaves them reusable — the next run reseeds every
// automaton.
func TestShardReuseMatchesCore(t *testing.T) {
	const n, shardCount = 12, 3
	rejecting := 0
	for _, exp := range lcp.Catalog() {
		size := n
		if size < exp.MinN {
			size = exp.MinN
		}
		in := exp.MakeYes(size, 1)
		honest, err := exp.Scheme.Prove(in)
		if err != nil {
			t.Fatalf("%s: prove: %v", exp.ID, err)
		}
		v := exp.Scheme.Verifier()
		assign := partition.BFSChunks{}.Assign(in.G, shardCount)
		groups := partition.Groups(in.G, assign, shardCount)
		assignByID := map[int]int{}
		for i, id := range in.G.Nodes() {
			assignByID[id] = assign[i]
		}
		shards := make([]*dist.Shard, shardCount)
		for s := range shards {
			if shards[s], err = dist.NewShard(dist.ShardPlan{In: in, Owned: groups[s], Assign: assignByID}, s); err != nil {
				t.Fatalf("%s: shard %d: %v", exp.ID, s, err)
			}
		}
		ctx := context.Background()
		check := func(label string, p core.Proof) {
			t.Helper()
			got, err := runShards(ctx, shards, p, v, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", exp.ID, label, err)
			}
			want := core.Check(in, p, v)
			if !reflect.DeepEqual(got, want.Outputs) {
				t.Fatalf("%s/%s: outputs differ:\n got %v\nwant %v", exp.ID, label, got, want.Outputs)
			}
			if !want.Accepted() {
				rejecting++
			}
		}
		tampered, truncated := core.FlipBit(honest, 0), honest.Truncated(1)
		for i, p := range []core.Proof{honest, tampered, truncated, honest, truncated, tampered} {
			check(fmt.Sprintf("check-%d", i), p)
		}
		if v.Radius() < 1 {
			continue
		}
		cctx, cancel := context.WithCancel(ctx)
		_, err = runShards(cctx, shards, tampered, v, func(tr transport.Transport) transport.Transport {
			return cancelAt{Transport: tr, round: v.Radius(), cancel: cancel}
		})
		cancel()
		if err == nil {
			t.Fatalf("%s: run cancelled in its last round succeeded", exp.ID)
		}
		check("honest-after-abort", honest)
	}
	if rejecting == 0 {
		t.Fatal("no check rejected anywhere: the proof sequence cannot tell a stale shard from a reseeded one")
	}
}

// TestNewShardRejectsMalformedPlan: every plan error surfaces when the
// shard is wired, before any check.
func TestNewShardRejectsMalformedPlan(t *testing.T) {
	in := lcp.NewInstance(graph.Path(3))
	for _, tc := range []struct {
		name string
		plan dist.ShardPlan
	}{
		{"owned-node-absent", dist.ShardPlan{In: in, Owned: []int{1, 9}, Assign: map[int]int{1: 0, 2: 0, 9: 0}}},
		{"neighbor-unassigned", dist.ShardPlan{In: in, Owned: []int{1}, Assign: map[int]int{1: 0}}},
		{"neighbor-assigned-not-owned", dist.ShardPlan{In: in, Owned: []int{1}, Assign: map[int]int{1: 0, 2: 0}}},
	} {
		if _, err := dist.NewShard(tc.plan, 0); err == nil {
			t.Fatalf("%s: NewShard accepted the plan", tc.name)
		}
	}
}
