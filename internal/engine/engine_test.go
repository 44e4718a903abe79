package engine_test

// Property tests for the amortized engine: every serving shape must be
// verdict-for-verdict identical to core.Check, across the whole scheme
// catalog, including adversarial (tampered, truncated, random) proofs,
// and regardless of worker configuration.

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"lcp"
	"lcp/internal/core"
	"lcp/internal/engine"
	"lcp/internal/graph"
	"lcp/internal/partition"
	"lcp/internal/ports"
)

func resultsEqual(t *testing.T, ctx string, got, want *core.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Outputs, want.Outputs) {
		t.Fatalf("%s: outputs differ:\n got %v\nwant %v", ctx, got.Outputs, want.Outputs)
	}
	if !reflect.DeepEqual(got.Rejectors(), want.Rejectors()) {
		t.Fatalf("%s: rejectors differ: %v vs %v", ctx, got.Rejectors(), want.Rejectors())
	}
}

// checkProof runs one uncancellable CheckProofCtx, failing t on an
// error.
func checkProof(t *testing.T, e *engine.Engine, p core.Proof, v core.Verifier) *core.Result {
	t.Helper()
	res, err := e.CheckProofCtx(context.Background(), p, v)
	if err != nil {
		t.Fatalf("CheckProofCtx: %v", err)
	}
	return res
}

// checkAllPaths runs one proof through every engine path — a single
// check, column 1 of a two-column walk, and the stream — and demands
// agreement with the sequential reference.
func checkAllPaths(t *testing.T, ctx string, e *engine.Engine, in *core.Instance, p core.Proof, v core.Verifier) {
	t.Helper()
	want := core.Check(in, p, v)
	resultsEqual(t, ctx+" [check-proof]", checkProof(t, e, p, v), want)
	pair, err := e.CheckBatchCtx(context.Background(), []core.Proof{{}, p}, v)
	if err != nil {
		t.Fatalf("%s: CheckBatchCtx: %v", ctx, err)
	}
	resultsEqual(t, ctx+" [batch column 1]", pair[1], want)

	stream := &core.Result{Outputs: make(map[int]bool, in.G.N())}
	for verdict := range e.CheckStream(context.Background(), p, v) {
		if _, dup := stream.Outputs[verdict.Node]; dup {
			t.Fatalf("%s: duplicate verdict for node %d", ctx, verdict.Node)
		}
		stream.Outputs[verdict.Node] = verdict.Accept
	}
	resultsEqual(t, ctx+" [stream]", stream, want)
}

func TestEngineAgreesWithCoreAcrossCatalog(t *testing.T) {
	const n = 14
	for _, exp := range lcp.Catalog() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			t.Parallel()
			size := n
			if size < exp.MinN {
				size = exp.MinN
			}
			v := exp.Scheme.Verifier()
			in := exp.MakeYes(size, 1)
			e := engine.New(in, engine.Options{Workers: 3})
			p, err := exp.Scheme.Prove(in)
			if err != nil {
				t.Fatalf("prove yes-instance: %v", err)
			}
			checkAllPaths(t, "honest", e, in, p, v)
			for seed := int64(0); seed < 3; seed++ {
				checkAllPaths(t, fmt.Sprintf("tampered-%d", seed), e, in, core.FlipBit(p, seed), v)
			}
			checkAllPaths(t, "truncated", e, in, p.Truncated(1), v)
			if exp.MakeNo != nil {
				no := exp.MakeNo(size, 2)
				ne := engine.New(no, engine.Options{Workers: 2})
				checkAllPaths(t, "no-empty-proof", ne, no, core.Proof{}, v)
				for _, bits := range []int{1, 16} {
					checkAllPaths(t, fmt.Sprintf("no-random-%d", bits), ne, no,
						core.RandomProof(no, bits, 9), v)
				}
			}
		})
	}
}

// TestEngineWorkerShardConfigurations: the verdict map is invariant
// under every worker-pool size, on an instance where nodes reject.
func TestEngineWorkerShardConfigurations(t *testing.T) {
	in := lcp.NewInstance(lcp.Cycle(16)) // even cycle
	v := lcp.OddNScheme().Verifier()     // rejects somewhere
	p := core.RandomProof(in, 8, 4)
	want := core.Check(in, p, v)
	if want.Accepted() {
		t.Fatal("setup: random odd-n proof unexpectedly accepted on even cycle")
	}
	for _, opt := range []engine.Options{
		{},
		{Workers: 1},
		{Workers: 5},
		{Workers: 16}, // one node per worker
		{Workers: 99}, // more workers than nodes
	} {
		e := engine.New(in, opt)
		checkAllPaths(t, fmt.Sprintf("opts=%+v", opt), e, in, p, v)
	}
}

// TestEngineCachedViewsSurviveManyProofs: a single engine serves a long
// proof stream with per-radius caches warm, never diverging from the
// reference.
func TestEngineCachedViewsSurviveManyProofs(t *testing.T) {
	in := lcp.NewInstance(lcp.Cycle(21))
	scheme := lcp.OddNScheme()
	p, err := scheme.Prove(in)
	if err != nil {
		t.Fatal(err)
	}
	v := scheme.Verifier()
	e := engine.New(in, engine.Options{})
	for i := 0; i < 50; i++ {
		proof := core.FlipBit(p, int64(i))
		want := core.Check(in, proof, v)
		resultsEqual(t, fmt.Sprintf("proof %d", i), checkProof(t, e, proof, v), want)
	}
}

// TestEngineStreamEarlyExit: cancelling after the first rejection stops
// the stream without waiting for the rest of the graph.
func TestEngineStreamEarlyExit(t *testing.T) {
	in := lcp.NewInstance(lcp.Cycle(64)) // even cycle: odd-n must reject
	v := lcp.OddNScheme().Verifier()
	e := engine.New(in, engine.Options{})
	node, found := firstReject(e, core.Proof{}, v)
	if !found {
		t.Fatal("odd-n on even cycle with empty proof: expected a rejection")
	}
	if !in.G.Has(node) {
		t.Fatalf("rejecting node %d not in graph", node)
	}
	// On an accepting proof, no rejection is found.
	yes := lcp.NewInstance(lcp.Cycle(9))
	p, err := lcp.OddNScheme().Prove(yes)
	if err != nil {
		t.Fatal(err)
	}
	if node, found := firstReject(engine.New(yes, engine.Options{}), p, v); found {
		t.Fatalf("honest proof: unexpected rejection at %d", node)
	}
}

// firstReject streams the proof's verdicts and returns the first
// rejecting node, cancelling the rest of the stream once it arrives.
func firstReject(e *engine.Engine, p core.Proof, v core.Verifier) (node int, ok bool) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for verdict := range e.CheckStream(ctx, p, v) {
		if !verdict.Accept {
			return verdict.Node, true
		}
	}
	return 0, false
}

// TestEngineStreamCancelledContext: a cancelled context closes the
// stream promptly instead of delivering all n verdicts.
func TestEngineStreamCancelledContext(t *testing.T) {
	in := lcp.NewInstance(lcp.Cycle(128))
	v := lcp.OddNScheme().Verifier()
	e := engine.New(in, engine.Options{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	got := 0
	for range e.CheckStream(ctx, core.Proof{}, v) {
		got++
		if got == 3 {
			cancel()
		}
	}
	cancel()
	if got >= in.G.N() {
		t.Fatalf("cancelled stream still delivered all %d verdicts", got)
	}
}

// TestEngineCheckBatch matches per-proof results element-wise.
func TestEngineCheckBatch(t *testing.T) {
	in := lcp.NewInstance(lcp.Cycle(21))
	scheme := lcp.OddNScheme()
	p, err := scheme.Prove(in)
	if err != nil {
		t.Fatal(err)
	}
	v := scheme.Verifier()
	proofs := []core.Proof{p, nil, p.Truncated(1)}
	for seed := int64(0); seed < 5; seed++ {
		proofs = append(proofs, core.FlipBit(p, seed))
	}
	results, err := engine.New(in, engine.Options{}).CheckBatchCtx(context.Background(), proofs, v)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(proofs) {
		t.Fatalf("got %d results for %d proofs", len(results), len(proofs))
	}
	for i, res := range results {
		resultsEqual(t, fmt.Sprintf("batch[%d]", i), res, core.Check(in, proofs[i], v))
	}
}

// TestEngineConcurrentChecks: many goroutines share one engine.
func TestEngineConcurrentChecks(t *testing.T) {
	in := lcp.NewInstance(lcp.Cycle(33))
	scheme := lcp.OddNScheme()
	p, err := scheme.Prove(in)
	if err != nil {
		t.Fatal(err)
	}
	v := scheme.Verifier()
	e := engine.New(in, engine.Options{})
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			proof := p
			if i%2 == 1 {
				proof = core.FlipBit(p, int64(i))
			}
			want := core.Check(in, proof, v)
			var got *core.Result
			switch i % 3 {
			case 0:
				batch, err := e.CheckBatchCtx(context.Background(), []core.Proof{proof, p}, v)
				if err != nil {
					errs <- err
					return
				}
				got = batch[0]
			case 1:
				var err error
				got, err = e.CheckProofCtx(context.Background(), proof, v)
				if err != nil {
					errs <- err
					return
				}
			default:
				got = &core.Result{Outputs: map[int]bool{}}
				for verdict := range e.CheckStream(context.Background(), proof, v) {
					got.Outputs[verdict.Node] = verdict.Accept
				}
			}
			if !reflect.DeepEqual(got.Outputs, want.Outputs) {
				errs <- fmt.Errorf("goroutine %d: outputs diverge", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestEngineInvalidate: caches rebuild after invalidation and verdicts
// stay correct.
func TestEngineInvalidate(t *testing.T) {
	in := lcp.NewInstance(lcp.Cycle(11))
	scheme := lcp.OddNScheme()
	p, err := scheme.Prove(in)
	if err != nil {
		t.Fatal(err)
	}
	v := scheme.Verifier()
	e := engine.New(in, engine.Options{})
	want := core.Check(in, p, v)
	resultsEqual(t, "warm", checkProof(t, e, p, v), want)
	e.InvalidateRadius(v.Radius())
	resultsEqual(t, "after radius invalidate", checkProof(t, e, p, v), want)
	e.Invalidate()
	resultsEqual(t, "after full invalidate", checkProof(t, e, p, v), want)
}

// TestEngineMultipleRadiiShareInstance: verifiers with different
// horizons get per-radius caches that do not interfere.
func TestEngineMultipleRadiiShareInstance(t *testing.T) {
	in := lcp.NewInstance(lcp.Grid(4, 5))
	p := core.RandomProof(in, 4, 1)
	e := engine.New(in, engine.Options{})
	for _, r := range []int{0, 2, 1, 2, 0} {
		v := core.VerifierFunc{R: r, F: func(w *core.View) bool {
			return w.Radius == r && len(w.Dist) == w.G.N()
		}}
		resultsEqual(t, fmt.Sprintf("radius %d", r), checkProof(t, e, p, v), core.Check(in, p, v))
	}
}

// TestEngineEmptyGraph: degenerate instance serves empty results.
func TestEngineEmptyGraph(t *testing.T) {
	e := engine.New(lcp.NewInstance(lcp.NewBuilder().Graph()), engine.Options{})
	v := lcp.BipartiteScheme().Verifier()
	if res := checkProof(t, e, core.Proof{}, v); len(res.Outputs) != 0 || !res.Accepted() {
		t.Errorf("empty graph CheckProofCtx: %v", res)
	}
	for range e.CheckStream(context.Background(), core.Proof{}, v) {
		t.Error("empty graph stream delivered a verdict")
	}
}

// TestEngineCheckProofRepanicsOnCallerGoroutine: a verifier panic in a
// pool worker surfaces as a panic of CheckProofCtx itself (recoverable
// by the caller), not a process-killing panic in a bare goroutine.
func TestEngineCheckProofRepanicsOnCallerGoroutine(t *testing.T) {
	in := lcp.NewInstance(lcp.Cycle(16))
	v := core.VerifierFunc{R: 1, F: func(w *core.View) bool {
		if w.Center == 7 {
			panic("node 7 misbehaves")
		}
		return true
	}}
	for _, workers := range []int{1, 4} {
		e := engine.New(in, engine.Options{Workers: workers})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("workers=%d: want verifier panic to reach the caller", workers)
				}
			}()
			_, _ = e.CheckProofCtx(context.Background(), core.Proof{}, v)
		}()
	}
}

// TestEngineFlatProofBallRestriction: the cached-view paths share one
// flat proof table for the whole instance across every node's view; a
// verifier probing a node outside its radius-r ball must still see ε,
// exactly as the map-restricted reference views guarantee. A leak makes
// every node reject below, so any divergence from core.Check flags it.
func TestEngineFlatProofBallRestriction(t *testing.T) {
	in := lcp.NewInstance(lcp.Path(9))
	p := core.RandomProof(in, 3, 1) // every node carries 3 proof bits
	v := core.VerifierFunc{R: 1, F: func(w *core.View) bool {
		// Node 9 is outside the radius-1 ball of nodes 1..7: they must
		// see ε for it even though the full-instance table has its bits.
		return w.ProofOf(9).Len() == 0
	}}
	want := core.Check(in, p, v)
	if len(want.Rejectors()) == 0 || want.Accepted() {
		t.Fatal("setup: expected nodes 8 and 9 to reject")
	}
	e := engine.New(in, engine.Options{Workers: 3})
	checkAllPaths(t, "flat-restriction", e, in, p, v)
}

// TestEngineM2WrappedScheme: the §7.1 M2 translation's verifier is the
// one catalog citizen that needs the proof restriction as a value (it
// re-addresses the ball with virtual identifiers via View.BallProof),
// not just per-node ProofOf lookups. Routing it through the engine pins
// the regression where the flat-proof views left View.Proof nil and the
// wrapper silently saw an empty proof — honest M2 proofs must verify on
// every engine path exactly as they do under core.Check.
func TestEngineM2WrappedScheme(t *testing.T) {
	in := lcp.NewInstance(lcp.Cycle(9)).SetNodeLabel(1, core.LabelLeader)
	m2 := ports.M2Scheme{Inner: lcp.OddNScheme()}
	p, err := m2.Prove(in)
	if err != nil {
		t.Fatal(err)
	}
	v := m2.Verifier()
	if !core.Check(in, p, v).Accepted() {
		t.Fatal("setup: honest M2 proof rejected by the reference runner")
	}
	e := engine.New(in, engine.Options{Workers: 2})
	checkAllPaths(t, "m2-honest", e, in, p, v)
	checkAllPaths(t, "m2-tampered", e, in, core.FlipBit(p, 5), v)
}

// TestEngineHaloShrinksWithLocalityPartitioner: HaloInstance cuts the
// union of radius-r balls around an owned set, and every node it adds
// beyond the owned ones is a duplicated carrier. On a scrambled grid
// the contiguous owned sets are scattered — nearly every owned node
// sits on a boundary and drags a radius-r ball of carriers in — while
// BFS-chunked owned sets are tight regions with thin boundaries. The
// halo must still see every owned node's full ball: core.Check on the
// halo agrees with the full instance on every owned node.
func TestEngineHaloShrinksWithLocalityPartitioner(t *testing.T) {
	in := lcp.NewInstance(graph.RandomPermutationIDs(lcp.Grid(16, 16), 7))
	const radius, shards = 2, 4
	p := core.RandomProof(in, 3, 2)
	v := core.VerifierFunc{R: radius, F: func(w *core.View) bool { return w.G.N() > 6 }}
	want := core.Check(in, p, v)
	sum := func(pt partition.Partitioner) int {
		groups := partition.Groups(in.G, pt.Assign(in.G, shards), shards)
		n := 0
		for _, owned := range groups {
			halo := engine.HaloInstance(in, owned, radius)
			n += halo.G.N()
			got := core.Check(halo, p, v)
			for _, id := range owned {
				if got.Outputs[id] != want.Outputs[id] {
					t.Fatalf("%s: node %d decides %v on its halo, %v on the full instance", pt.Name(), id, got.Outputs[id], want.Outputs[id])
				}
			}
		}
		return n
	}
	contig, bfs := sum(partition.Contiguous{}), sum(partition.BFSChunks{})
	sum(partition.GreedyBalanced{})
	if bfs >= contig {
		t.Errorf("summed halo sizes: bfs=%d contiguous=%d — want strictly smaller", bfs, contig)
	}
}

// TestEngineDirectedInstances: the cached views follow undirected
// reachability on directed graphs while keeping their arcs directed.
func TestEngineDirectedInstances(t *testing.T) {
	b := lcp.NewDirectedBuilder()
	for i := 1; i < 10; i++ {
		b.AddEdge(i, i+1)
	}
	b.AddEdge(10, 1).AddEdge(4, 1).AddEdge(7, 2)
	in := core.NewInstance(b.Graph()).SetNodeLabel(1, core.LabelS).SetNodeLabel(9, core.LabelT)
	p := core.RandomProof(in, 4, 11)
	v := core.VerifierFunc{R: 2, F: func(w *core.View) bool {
		// Depends on arcs, labels and proofs in the view, so any ball
		// clipping bug flips verdicts somewhere.
		return w.G.M()%2 == 0 || w.ProofOf(w.Center).Len() > 0 || w.Label(w.Center) != ""
	}}
	e := engine.New(in, engine.Options{Workers: 3})
	checkAllPaths(t, "directed", e, in, p, v)
}

// TestEngineWarmCheckAllocs pins the allocation budget of a warm single
// check: the walk reuses one View per range worker and a pooled proof
// table, so what remains is the result map and a few per-check slices
// and goroutines — not one allocation per node. The instance is the
// benchmark's 64×64 scrambled grid under the bipartite scheme.
func TestEngineWarmCheckAllocs(t *testing.T) {
	in := lcp.NewInstance(graph.RandomPermutationIDs(lcp.Grid(64, 64), 1))
	scheme := lcp.BipartiteScheme()
	p, err := scheme.Prove(in)
	if err != nil {
		t.Fatal(err)
	}
	v := scheme.Verifier()
	e := engine.New(in, engine.Options{})
	ctx := context.Background()
	checkProof(t, e, p, v) // warm the radius cache and the table pool
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := e.CheckProofCtx(ctx, p, v); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/op = %.0f", allocs)
	if allocs > 64 {
		t.Fatalf("warm CheckProofCtx on %d nodes: %.0f allocs/op, want at most 64", in.G.N(), allocs)
	}
}
