package lcp_test

// Benchmark harness: one testing.B benchmark per row of Table 1(a)/(b)
// and per lower-bound construction (Figure 1 and §5.4–§6.3). Each
// benchmark measures the full prove+verify pipeline and reports the
// measured proof size as the custom metric "bits/node", which is the
// quantity the paper's Table 1 catalogues. Run with
//
//	go test -bench=. -benchmem
//
// and see EXPERIMENTS.md for the paper-vs-measured record.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"lcp"
	"lcp/internal/core"
	"lcp/internal/dist"
	"lcp/internal/lowerbound"
	"lcp/internal/ports"
	"lcp/internal/schemes"
)

// benchSize is the default instance size for the table benchmarks; the
// poly(n) rows use benchSizeSmall to keep certificate construction sane.
const (
	benchSize      = 64
	benchSizeSmall = 24
)

func benchExperiment(b *testing.B, exp lcp.Experiment, n int) {
	b.Helper()
	if n < exp.MinN {
		n = exp.MinN
	}
	in := exp.MakeYes(n, 42)
	proof, err := exp.Scheme.Prove(in)
	if err != nil {
		b.Fatalf("%s: %v", exp.ID, err)
	}
	v := exp.Scheme.Verifier()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := exp.Scheme.Prove(in)
		if err != nil {
			b.Fatal(err)
		}
		if !coreCheck(b, in, p, v).Accepted() {
			b.Fatalf("%s: rejected", exp.ID)
		}
	}
	b.ReportMetric(float64(proof.Size()), "bits/node")
	b.ReportMetric(float64(in.G.N()), "nodes")
}

func findExperiment(b *testing.B, id string) lcp.Experiment {
	b.Helper()
	for _, exp := range lcp.Catalog() {
		if exp.ID == id {
			return exp
		}
	}
	b.Fatalf("experiment %s not in catalog", id)
	return lcp.Experiment{}
}

// ---- Table 1(a) ----

func BenchmarkT1a01Eulerian(b *testing.B)  { benchExperiment(b, findExperiment(b, "T1a-01"), benchSize) }
func BenchmarkT1a02LineGraph(b *testing.B) { benchExperiment(b, findExperiment(b, "T1a-02"), 32) }
func BenchmarkT1a03Reachability(b *testing.B) {
	benchExperiment(b, findExperiment(b, "T1a-03"), benchSize)
}
func BenchmarkT1a04UnreachUndir(b *testing.B) {
	benchExperiment(b, findExperiment(b, "T1a-04"), benchSize)
}
func BenchmarkT1a05UnreachDir(b *testing.B) {
	benchExperiment(b, findExperiment(b, "T1a-05"), benchSize)
}
func BenchmarkT1a06ConnectivityPlanar(b *testing.B) {
	benchExperiment(b, findExperiment(b, "T1a-06"), benchSize)
}
func BenchmarkT1a07Bipartite(b *testing.B) {
	benchExperiment(b, findExperiment(b, "T1a-07"), benchSize)
}
func BenchmarkT1a08EvenCycle(b *testing.B) {
	benchExperiment(b, findExperiment(b, "T1a-08"), benchSize)
}
func BenchmarkT1a09ConnectivityK(b *testing.B) {
	benchExperiment(b, findExperiment(b, "T1a-09"), benchSize)
}
func BenchmarkT1a10ChromaticLeK(b *testing.B) {
	benchExperiment(b, findExperiment(b, "T1a-10"), benchSize)
}
func BenchmarkT1a11CoLCP0(b *testing.B)  { benchExperiment(b, findExperiment(b, "T1a-11"), benchSize) }
func BenchmarkT1a12Sigma11(b *testing.B) { benchExperiment(b, findExperiment(b, "T1a-12"), benchSize) }
func BenchmarkT1a13OddN(b *testing.B)    { benchExperiment(b, findExperiment(b, "T1a-13"), benchSize) }
func BenchmarkT1a14NonBipartite(b *testing.B) {
	benchExperiment(b, findExperiment(b, "T1a-14"), benchSize)
}
func BenchmarkT1a15FixpointFree(b *testing.B) {
	benchExperiment(b, findExperiment(b, "T1a-15"), benchSizeSmall)
}
func BenchmarkT1a16Symmetric(b *testing.B) {
	benchExperiment(b, findExperiment(b, "T1a-16"), benchSizeSmall)
}
func BenchmarkT1a17Non3Col(b *testing.B) {
	benchExperiment(b, findExperiment(b, "T1a-17"), benchSizeSmall)
}
func BenchmarkT1a18Universal(b *testing.B) {
	benchExperiment(b, findExperiment(b, "T1a-18"), benchSizeSmall)
}

// BenchmarkT1a19ConnectivityImpossible is the "—" row: the disjoint-union
// fooling runs end to end (prove two components, splice, watch the
// universal connectivity verifier accept a disconnected graph).
func BenchmarkT1a19ConnectivityImpossible(b *testing.B) {
	g1 := lcp.Cycle(12)
	g2 := lcp.Cycle(13).ShiftIDs(20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := lowerbound.RunUnionFooling(lowerbound.ConnectedUniversal(), g1, g2)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Fooled {
			b.Fatal("union fooling failed")
		}
	}
}

// ---- Table 1(b) ----

func BenchmarkT1b01MaximalMatching(b *testing.B) {
	benchExperiment(b, findExperiment(b, "T1b-01"), benchSize)
}
func BenchmarkT1b02LCL(b *testing.B) { benchExperiment(b, findExperiment(b, "T1b-02"), benchSize) }
func BenchmarkT1b03LD(b *testing.B)  { benchExperiment(b, findExperiment(b, "T1b-03"), benchSize) }
func BenchmarkT1b04MaxMatchingBip(b *testing.B) {
	benchExperiment(b, findExperiment(b, "T1b-04"), benchSize)
}
func BenchmarkT1b05MaxWeightMatching(b *testing.B) {
	benchExperiment(b, findExperiment(b, "T1b-05"), benchSize)
}
func BenchmarkT1b06CoLCP0(b *testing.B) { benchExperiment(b, findExperiment(b, "T1b-06"), benchSize) }
func BenchmarkT1b07LeaderElection(b *testing.B) {
	benchExperiment(b, findExperiment(b, "T1b-07"), benchSize)
}
func BenchmarkT1b08SpanningTree(b *testing.B) {
	benchExperiment(b, findExperiment(b, "T1b-08"), benchSize)
}
func BenchmarkT1b09MaxMatchingCycle(b *testing.B) {
	benchExperiment(b, findExperiment(b, "T1b-09"), benchSize)
}
func BenchmarkT1b10Hamiltonian(b *testing.B) {
	benchExperiment(b, findExperiment(b, "T1b-10"), benchSize)
}
func BenchmarkT1b11Universal(b *testing.B) {
	benchExperiment(b, findExperiment(b, "T1b-11"), benchSizeSmall)
}

// ---- Figure 1 and the lower-bound constructions ----

// BenchmarkF1Gluing runs the complete §5.3 adversary (169 cycle
// instances, signature colouring, monochromatic C4, glue, verify) against
// the weak odd-n scheme.
func BenchmarkF1Gluing(b *testing.B) {
	target := lowerbound.OddNTarget()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := lowerbound.RunGluing(target, 15)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Fooled {
			b.Fatal("gluing failed")
		}
	}
}

func benchGluing(b *testing.B, target lowerbound.GluingTarget) {
	b.Helper()
	r := target.Scheme.Verifier().Radius()
	n := 4*r + 10
	if target.OddLength {
		n++
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := lowerbound.RunGluing(target, n)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Fooled {
			b.Fatal("gluing failed")
		}
	}
}

func BenchmarkLBOddN(b *testing.B)         { benchGluing(b, lowerbound.OddNTarget()) }
func BenchmarkLBNonBipartite(b *testing.B) { benchGluing(b, lowerbound.NonBipartiteTarget()) }
func BenchmarkLBLeader(b *testing.B)       { benchGluing(b, lowerbound.LeaderTarget()) }
func BenchmarkLBSpanningTree(b *testing.B) {
	benchGluing(b, lowerbound.SpanningTreeTarget())
}
func BenchmarkLBMatching(b *testing.B) { benchGluing(b, lowerbound.MaxMatchingTarget()) }

// BenchmarkLBSymmetric runs the §6.1 graph-gluing fooling over the
// asymmetric 6-node family.
func BenchmarkLBSymmetric(b *testing.B) {
	family := lowerbound.EnumerateAsymmetricConnected(6)
	isYes := func(g *lcp.Graph) bool { return g != nil && symHolds(g) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := lowerbound.RunGraphGluing("symmetric", lcp.SymmetricScheme(), family, isYes, 1, 8)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.CollisionFound || !rep.ViewsIdentical || rep.FooledIsYes {
			b.Fatal("symmetric gluing failed")
		}
	}
}

func symHolds(g *lcp.Graph) bool {
	_, err := lcp.SymmetricScheme().Prove(lcp.NewInstance(g))
	return err == nil
}

// BenchmarkLBFixpointFree runs the §6.2 rooted-tree variant.
func BenchmarkLBFixpointFree(b *testing.B) {
	family := lowerbound.EnumerateRootedTrees(6)
	isYes := func(g *lcp.Graph) bool {
		_, err := lcp.FixpointFreeScheme().Prove(lcp.NewInstance(g))
		return err == nil
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := lowerbound.RunTreeGluing(lcp.FixpointFreeScheme(), family, 1, 2, isYes)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.CollisionFound || !rep.ViewsIdentical || rep.FooledIsYes {
			b.Fatal("tree gluing failed")
		}
	}
}

// BenchmarkLB3Col runs the §6.3 gadget fooling (16 G_{A,Ā} instances,
// wire-window collision, splice, colourability flip).
func BenchmarkLB3Col(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := lowerbound.RunThreeColFooling(schemes.NonThreeColorable(), 1, 2, 48)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.CollisionFound || !rep.ViewsIdentical || !rep.FooledColorable {
			b.Fatal("3col fooling failed")
		}
	}
}

// BenchmarkXM1M2 measures the §7.1 M2 translation overhead: the wrapped
// odd-n scheme on a port-numbered cycle with a leader.
func BenchmarkXM1M2(b *testing.B) {
	in := lcp.NewInstance(lcp.Cycle(65)).SetNodeLabel(1, lcp.LabelLeader)
	m2 := ports.M2Scheme{Inner: lcp.OddNScheme()}
	proof, err := m2.Prove(in)
	if err != nil {
		b.Fatal(err)
	}
	v := m2.Verifier()
	b.ResetTimer()
	defer b.ReportMetric(float64(proof.Size()), "bits/node")
	for i := 0; i < b.N; i++ {
		p, err := m2.Prove(in)
		if err != nil {
			b.Fatal(err)
		}
		if !coreCheck(b, in, p, v).Accepted() {
			b.Fatal("rejected")
		}
	}
}

// BenchmarkDistributedRuntime compares the sequential reference runner
// with the goroutine-per-node LOCAL runtime on the same verifier.
func BenchmarkDistributedRuntime(b *testing.B) {
	in := lcp.NewInstance(lcp.Cycle(127))
	proof, err := lcp.OddNScheme().Prove(in)
	if err != nil {
		b.Fatal(err)
	}
	v := lcp.OddNScheme().Verifier()
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !coreCheck(b, in, proof, v).Accepted() {
				b.Fatal("rejected")
			}
		}
	})
	b.Run("goroutine-per-node", func(b *testing.B) {
		// One shard per node, wired per check: the one-shot LOCAL run.
		for i := 0; i < b.N; i++ {
			chk, err := lcp.NewChecker(in, lcp.WithVerifier(v), lcp.WithBackend(lcp.BackendDist), lcp.WithShards(in.G.N()))
			if err != nil {
				b.Fatal(err)
			}
			rep, err := chk.Check(context.Background(), proof)
			lcp.CloseChecker(chk)
			if err != nil || !rep.Accepted() {
				b.Fatalf("rejected: %v", err)
			}
		}
	})
}

// BenchmarkEngineAmortized is the headline number for the amortized
// engine: the same 100 proofs (one honest, 99 single-bit tamperings)
// verified on Cycle(255), once with the one-shot sequential runner that
// rebuilds every radius-r view per proof, once on an Engine whose views
// are cached. The gap is the per-proof view-construction cost the
// engine amortizes away; BENCH_engine.json tracks it.
func BenchmarkEngineAmortized(b *testing.B) {
	in := lcp.NewInstance(lcp.Cycle(255))
	scheme := lcp.OddNScheme()
	honest, err := scheme.Prove(in)
	if err != nil {
		b.Fatal(err)
	}
	v := scheme.Verifier()
	proofs := make([]lcp.Proof, 100)
	proofs[0] = honest
	for i := 1; i < len(proofs); i++ {
		proofs[i] = core.FlipBit(honest, int64(i))
	}
	perProof := func(b *testing.B, total time.Duration) {
		b.Helper()
		b.ReportMetric(float64(total.Nanoseconds())/float64(b.N*len(proofs)), "ns/proof")
	}
	b.Run("one-shot-core-check", func(b *testing.B) {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			for _, p := range proofs {
				if coreCheck(b, in, p, v) == nil {
					b.Fatal("nil result")
				}
			}
		}
		perProof(b, time.Since(start))
	})
	b.Run("engine-cached-views", func(b *testing.B) {
		eng := lcp.NewEngine(in)
		ctx := context.Background()
		if _, err := eng.CheckProofCtx(ctx, proofs[0], v); err != nil { // warm the radius cache
			b.Fatal(err)
		}
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			for _, p := range proofs {
				if _, err := eng.CheckProofCtx(ctx, p, v); err != nil {
					b.Fatal(err)
				}
			}
		}
		perProof(b, time.Since(start))
	})
	b.Run("engine-single-worker", func(b *testing.B) {
		// Same cached views without parallelism: isolates amortization
		// from the worker pool.
		chk, err := lcp.NewChecker(in, lcp.WithVerifier(v), lcp.WithWorkers(1))
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		if _, err := chk.Check(ctx, proofs[0]); err != nil { // warm the radius cache
			b.Fatal(err)
		}
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			for _, p := range proofs {
				if _, err := chk.Check(ctx, p); err != nil {
					b.Fatal(err)
				}
			}
		}
		perProof(b, time.Since(start))
	})
}

// BenchmarkEngineBatchColumns measures the engine's column walk on the
// workload of BenchmarkEngineAmortized (one honest proof followed by
// single-bit tamperings on Cycle(255)) at k = 1, 2, 3 and 100 proofs
// per walk, so its ns/proof is directly comparable with the
// engine-cached-views number (BENCH_engine.json). k=1 is a single
// check; from k=2 on, ball-restriction dedup collapses near-identical
// columns to roughly one verification per node plus cheap compares.
func BenchmarkEngineBatchColumns(b *testing.B) {
	in := lcp.NewInstance(lcp.Cycle(255))
	scheme := lcp.OddNScheme()
	honest, err := scheme.Prove(in)
	if err != nil {
		b.Fatal(err)
	}
	v := scheme.Verifier()
	all := make([]lcp.Proof, 100)
	all[0] = honest
	for i := 1; i < len(all); i++ {
		all[i] = core.FlipBit(honest, int64(i))
	}
	ctx := context.Background()
	for _, k := range []int{1, 2, 3, 100} {
		proofs := all[:k]
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			eng := lcp.NewEngine(in)
			if _, err := eng.CheckProofCtx(ctx, honest, v); err != nil { // warm the radius cache
				b.Fatal(err)
			}
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				res, err := eng.CheckBatchCtx(ctx, proofs, v)
				if err != nil || len(res) != k || !res[0].Accepted() || (k > 1 && res[1].Accepted()) {
					b.Fatalf("unexpected verdicts: %v", err)
				}
			}
			b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N*k), "ns/proof")
		})
	}
}

// sizeSweep prints measured proof sizes across n for a growth-shape
// sanity check inside the benchmark log (cmd/lcpbench does the full
// table).
func BenchmarkProofSizeGrowth(b *testing.B) {
	rows := []string{"T1a-13", "T1a-15", "T1a-16"}
	for _, id := range rows {
		exp := findExperiment(b, id)
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, n := range []int{16, 32, 64} {
					in := exp.MakeYes(n, 1)
					p, err := exp.Scheme.Prove(in)
					if err != nil {
						b.Fatal(err)
					}
					if i == 0 {
						b.ReportMetric(float64(p.Size()), fmt.Sprintf("bits@n=%d", in.G.N()))
					}
				}
			}
		})
	}
}

// ---- Ablations: design choices called out in DESIGN.md ----

// BenchmarkAblationSymmetricWitness compares the witnessed Θ(n²)
// symmetric-graph certificate (polynomial-time verification: check one
// permutation) against the unwitnessed variant (the verifier searches for
// an automorphism itself). Same proof-size class, very different
// verification cost profile.
func BenchmarkAblationSymmetricWitness(b *testing.B) {
	in := lcp.NewInstance(lcp.Cycle(24))
	witnessed := lcp.SymmetricScheme()
	unwitnessed := schemes.SymmetricUnwitnessed()
	pw, err := witnessed.Prove(in)
	if err != nil {
		b.Fatal(err)
	}
	pu, err := unwitnessed.Prove(in)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("witnessed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !coreCheck(b, in, pw, witnessed.Verifier()).Accepted() {
				b.Fatal("rejected")
			}
		}
		b.ReportMetric(float64(pw.Size()), "bits/node")
	})
	b.Run("unwitnessed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !coreCheck(b, in, pu, unwitnessed.Verifier()).Accepted() {
				b.Fatal("rejected")
			}
		}
		b.ReportMetric(float64(pu.Size()), "bits/node")
	})
}

// BenchmarkAblationConnectivityCompression measures the §4.2 planar
// index-compression trick: interior grid nodes reach the grid maximum
// κ(s,t) = 4, and the conflict graph of the four disjoint paths is
// sparse, so compressed indices replace the four distinct ones — smaller
// labels at identical soundness.
func BenchmarkAblationConnectivityCompression(b *testing.B) {
	g := lcp.Grid(6, 10)
	s, t := 22, 29 // interior nodes (row 2, columns 1 and 8): κ = 4
	mk := func() *lcp.Instance {
		in := lcp.NewInstance(g).SetNodeLabel(s, lcp.LabelS).SetNodeLabel(t, lcp.LabelT)
		in.Global = lcp.Global{lcp.GlobalK: 4}
		return in
	}
	for _, variant := range []struct {
		name   string
		scheme lcp.Scheme
	}{
		{"plain-indices", lcp.STConnectivityScheme()},
		{"compressed-indices", lcp.STConnectivityPlanarScheme()},
	} {
		variant := variant
		b.Run(variant.name, func(b *testing.B) {
			in := mk()
			p, _, err := lcp.ProveAndCheck(in, variant.scheme)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := variant.scheme.Prove(in); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(p.Size()), "bits/node")
		})
	}
}

// BenchmarkAblationViewConstruction compares the two uncached verifier
// execution strategies: sequential BFS views and the full
// message-passing runtime (GOMAXPROCS shards). The cached in-process
// parallel path is the engine (BenchmarkEngineAmortized).
func BenchmarkAblationViewConstruction(b *testing.B) {
	in := lcp.NewInstance(lcp.Cycle(255))
	scheme := lcp.OddNScheme()
	proof, err := scheme.Prove(in)
	if err != nil {
		b.Fatal(err)
	}
	v := scheme.Verifier()
	b.Run("sequential-bfs-views", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !coreCheck(b, in, proof, v).Accepted() {
				b.Fatal("rejected")
			}
		}
	})
	b.Run("message-passing-sharded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := dist.Check(in, proof, v)
			if err != nil || !res.Accepted() {
				b.Fatal("rejected")
			}
		}
	})
}
