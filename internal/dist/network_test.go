package dist_test

// Tests for the reusable Network entry point: one wiring, many proofs,
// verdicts always identical to core.Check.

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"lcp"
	"lcp/internal/core"
	"lcp/internal/dist"
	"lcp/internal/partition"
)

func TestNetworkReusedAcrossProofs(t *testing.T) {
	in := lcp.NewInstance(lcp.Cycle(15))
	scheme := lcp.OddNScheme()
	honest, err := scheme.Prove(in)
	if err != nil {
		t.Fatal(err)
	}
	v := scheme.Verifier()
	nw, err := dist.NewNetwork(in, dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	proofs := []core.Proof{honest, nil, core.Proof{}, honest.Truncated(1)}
	for seed := int64(0); seed < 6; seed++ {
		proofs = append(proofs, core.FlipBit(honest, seed), core.RandomProof(in, 5, seed))
	}
	for i, p := range proofs {
		want := core.Check(in, p, v)
		got, err := nw.CheckCtx(context.Background(), p, v)
		if err != nil {
			t.Fatalf("proof %d: %v", i, err)
		}
		resultsEqual(t, fmt.Sprintf("reused run %d", i), got, want)
	}
}

func TestNetworkReusedAcrossVerifierRadii(t *testing.T) {
	// The same wiring must serve verifiers of different radii: the round
	// count is a per-run parameter, not part of the network.
	in := lcp.NewInstance(lcp.RandomConnected(14, 0.25, 3))
	p := core.RandomProof(in, 4, 1)
	nw, err := dist.NewNetwork(in, dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	for _, r := range []int{0, 1, 3, 2, 0, 5} {
		v := core.VerifierFunc{R: r, F: func(w *core.View) bool {
			return w.Radius == r && w.Graph().N() == len(w.Nodes())
		}}
		want := core.Check(in, p, v)
		got, err := nw.CheckCtx(context.Background(), p, v)
		if err != nil {
			t.Fatalf("radius %d: %v", r, err)
		}
		resultsEqual(t, fmt.Sprintf("radius %d", r), got, want)
	}
}

func TestNetworkSchedulerVariants(t *testing.T) {
	in := lcp.NewInstance(lcp.Grid(4, 4))
	p := core.RandomProof(in, 6, 2)
	v := lcp.BipartiteScheme().Verifier()
	want := core.Check(in, p, v)
	for _, opt := range []dist.Options{
		{},
		{Shards: 1},
		{Shards: in.G.N()},
		{Shards: 3, Partitioner: partition.BFSChunks{}},
	} {
		nw, err := dist.NewNetwork(in, opt)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 3; run++ {
			got, err := nw.CheckCtx(context.Background(), p, v)
			if err != nil {
				t.Fatalf("opts=%+v run %d: %v", opt, run, err)
			}
			resultsEqual(t, fmt.Sprintf("opts=%+v run %d", opt, run), got, want)
		}
		nw.Close()
	}
}

// TestNetworkConcurrentChecks: concurrent CheckCtx callers on one
// Network each get a wiring of their own (built on demand past the
// idle ones) and the exact verdicts for their own proof — at one
// shard, GOMAXPROCS shards and one shard per node. Run under -race it
// also pins that concurrent runs share no mutable state.
func TestNetworkConcurrentChecks(t *testing.T) {
	in := lcp.NewInstance(lcp.Cycle(9))
	scheme := lcp.OddNScheme()
	honest, err := scheme.Prove(in)
	if err != nil {
		t.Fatal(err)
	}
	v := scheme.Verifier()
	for _, shards := range []int{1, runtime.GOMAXPROCS(0), in.G.N()} {
		nw, err := dist.NewNetwork(in, dist.Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 16)
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				p := honest
				if i%2 == 1 {
					p = core.FlipBit(honest, int64(i))
				}
				want := core.Check(in, p, v)
				got, err := nw.CheckCtx(context.Background(), p, v)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got.Outputs, want.Outputs) {
					errs <- fmt.Errorf("shards=%d goroutine %d: outputs differ", shards, i)
				}
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		nw.Close()
	}
}

func TestNetworkDegenerateInputs(t *testing.T) {
	if _, err := dist.NewNetwork(nil, dist.Options{}); err == nil {
		t.Error("nil instance: want error")
	}
	nw, err := dist.NewNetwork(lcp.NewInstance(lcp.NewBuilder().Graph()), dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.CheckCtx(context.Background(), core.Proof{}, lcp.BipartiteScheme().Verifier())
	if err != nil || len(res.Outputs) != 0 {
		t.Errorf("empty graph: got %v, %v", res, err)
	}
	if _, err := nw.CheckCtx(context.Background(), nil, nil); err == nil {
		t.Error("nil verifier: want error")
	}
	nw.Close()
	if _, err := nw.CheckCtx(context.Background(), core.Proof{}, lcp.BipartiteScheme().Verifier()); err != nil {
		t.Errorf("closed empty network: empty result expected, got error %v", err)
	}
}

func TestNetworkCheckAfterCloseErrors(t *testing.T) {
	nw, err := dist.NewNetwork(lcp.NewInstance(lcp.Cycle(4)), dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nw.Close()
	if _, err := nw.CheckCtx(context.Background(), core.Proof{}, lcp.BipartiteScheme().Verifier()); err == nil {
		t.Error("check after close: want error")
	}
}
