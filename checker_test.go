package lcp_test

// The cross-backend equivalence matrix: every execution path reachable
// through lcp.NewChecker must be verdict-for-verdict identical to the
// sequential reference core.Check, across the whole scheme catalog,
// including adversarial (tampered, truncated, random) proofs — and the
// façade's batch, stream, and cancellation behaviour must be uniform
// over all of them.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"

	"lcp"
	"lcp/internal/core"
	"lcp/internal/remote"
)

// tcpFleet lazily starts the in-process lcpworker fleet the dist-tcp
// matrix row fans out to: three workers on loopback listeners, serving
// every catalog scheme, shared by all matrix subtests and reaped with
// the test process.
var tcpFleet struct {
	once  sync.Once
	addrs []string
}

func tcpFleetAddrs() []string {
	tcpFleet.once.Do(func() {
		schemes := lcp.BuiltinSchemes()
		for _, exp := range lcp.Catalog() {
			schemes[exp.Scheme.Name()] = exp.Scheme
		}
		schemes[inputScheme{}.Name()] = inputScheme{}
		for i := 0; i < 3; i++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				panic(fmt.Sprintf("tcp fleet: %v", err))
			}
			w := remote.NewWorker(ln, schemes)
			tcpFleet.addrs = append(tcpFleet.addrs, w.Addr())
			go func() {
				_ = w.Serve(context.Background())
			}()
		}
	})
	return tcpFleet.addrs
}

// backendMatrix enumerates every backend reachable through NewChecker,
// including scheduler variants of the message-passing paths.
type backendCase struct {
	name string
	opts []lcp.CheckerOption
	// batches lists the CheckBatch sizes the matrix runs; nil means one
	// batch of the four base proofs.
	batches []int
}

func backendMatrix() []backendCase {
	return []backendCase{
		{"core", []lcp.CheckerOption{lcp.WithBackend(lcp.BackendCore)}, nil},
		{"dist", []lcp.CheckerOption{lcp.WithBackend(lcp.BackendDist)}, nil},
		{"dist-sharded", []lcp.CheckerOption{lcp.WithBackend(lcp.BackendDist), lcp.WithShards(3)}, nil},
		{"dist-bfs", []lcp.CheckerOption{
			lcp.WithBackend(lcp.BackendDist), lcp.WithShards(3),
			lcp.WithPartitioner(lcp.BFSChunksPartitioner()),
		}, nil},
		// One shard per node: the shard count is capped at n.
		{"dist-per-node", []lcp.CheckerOption{lcp.WithBackend(lcp.BackendDist), lcp.WithShards(1 << 20)}, nil},
		// Every engine check is the column walk: Check is one column,
		// CheckBatch k of them with ball-restriction dedup. The small
		// sizes pin the walk where a one-column table and few
		// representatives per node are the whole cost; 16 is the size
		// the benchmark's serve phase sends.
		{"engine", []lcp.CheckerOption{lcp.WithBackend(lcp.BackendEngine), lcp.WithWorkers(3)}, []int{1, 2, 3, 16}},
		// The greedy partitioner cuts the dist shards differently again.
		{"dist-greedy", []lcp.CheckerOption{
			lcp.WithBackend(lcp.BackendDist), lcp.WithShards(3),
			lcp.WithPartitioner(lcp.GreedyBalancedPartitioner()),
		}, nil},
		// The multi-process path: real lcpworker fleet on loopback TCP,
		// the checker acting as fan-out coordinator. Same matrix, same
		// reference — the verdicts cross process boundaries and come
		// back identical.
		{"dist-tcp", []lcp.CheckerOption{
			lcp.WithBackend(lcp.BackendDistTCP),
			lcp.WithWorkerAddrs(tcpFleetAddrs()...),
			lcp.WithPartitioner(lcp.BFSChunksPartitioner()),
		}, nil},
	}
}

func reportMatches(t *testing.T, ctx string, rep *lcp.Report, want *core.Result) {
	t.Helper()
	if !reflect.DeepEqual(rep.Outputs, want.Outputs) {
		t.Fatalf("%s: outputs differ:\n got %v\nwant %v", ctx, rep.Outputs, want.Outputs)
	}
	if rep.Accepted() != want.Accepted() {
		t.Fatalf("%s: accepted %v, want %v", ctx, rep.Accepted(), want.Accepted())
	}
	if !reflect.DeepEqual(rep.Rejectors(), want.Rejectors()) {
		t.Fatalf("%s: rejectors differ: %v vs %v", ctx, rep.Rejectors(), want.Rejectors())
	}
	if node, ok := rep.FirstReject(); ok != !want.Accepted() ||
		(ok && node != want.Rejectors()[0]) {
		t.Fatalf("%s: FirstReject (%d, %v) inconsistent with rejectors %v", ctx, node, ok, want.Rejectors())
	}
	if rep.Nodes() != len(want.Outputs) {
		t.Fatalf("%s: %d nodes reported, want %d", ctx, rep.Nodes(), len(want.Outputs))
	}
}

// TestCheckerBackendEquivalenceMatrix is the acceptance matrix: for
// every catalog row and every backend, Check / CheckBatch / CheckStream
// agree with core.Check on honest, tampered and truncated proofs.
func TestCheckerBackendEquivalenceMatrix(t *testing.T) {
	const n = 12
	ctx := context.Background()
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
				t.Fatalf("prove yes-instance: %v", err)
			}
			proofs := []core.Proof{honest, core.FlipBit(honest, 0), core.FlipBit(honest, 1), honest.Truncated(1)}
			labels := []string{"honest", "tampered-0", "tampered-1", "truncated"}
			// The larger batches extend the base proofs with more
			// single-bit tamperings, so one batch mixes columns that
			// deduplicate with columns that do not.
			for seed := int64(2); len(proofs) < 16; seed++ {
				proofs = append(proofs, core.FlipBit(honest, seed))
				labels = append(labels, fmt.Sprintf("tampered-%d", seed))
			}
			v := exp.Scheme.Verifier()
			wants := make([]*core.Result, len(proofs))
			for i, p := range proofs {
				wants[i] = core.Check(in, p, v)
			}
			for _, bc := range backendMatrix() {
				chk, err := lcp.NewChecker(in, append([]lcp.CheckerOption{lcp.WithScheme(exp.Scheme)}, bc.opts...)...)
				if err != nil {
					t.Fatalf("%s: NewChecker: %v", bc.name, err)
				}
				for i, p := range proofs[:4] {
					rep, err := chk.Check(ctx, p)
					if err != nil {
						t.Fatalf("%s/%s: Check: %v", bc.name, labels[i], err)
					}
					if rep.Backend == "" {
						t.Fatalf("%s: report missing backend label", bc.name)
					}
					reportMatches(t, fmt.Sprintf("%s/%s [check]", bc.name, labels[i]), rep, wants[i])
				}
				batches := bc.batches
				if batches == nil {
					batches = []int{4}
				}
				for _, k := range batches {
					reps, err := chk.CheckBatch(ctx, proofs[:k])
					if err != nil {
						t.Fatalf("%s: CheckBatch k=%d: %v", bc.name, k, err)
					}
					if len(reps) != k {
						t.Fatalf("%s: CheckBatch returned %d reports for %d proofs", bc.name, len(reps), k)
					}
					for i, rep := range reps {
						reportMatches(t, fmt.Sprintf("%s/%s [batch k=%d]", bc.name, labels[i], k), rep, wants[i])
					}
				}
				stream, err := chk.CheckStream(ctx, proofs[1])
				if err != nil {
					t.Fatalf("%s: CheckStream: %v", bc.name, err)
				}
				got := &core.Result{Outputs: make(map[int]bool, size)}
				for verdict := range stream {
					if _, dup := got.Outputs[verdict.Node]; dup {
						t.Fatalf("%s: duplicate stream verdict for node %d", bc.name, verdict.Node)
					}
					got.Outputs[verdict.Node] = verdict.Accept
				}
				if !reflect.DeepEqual(got.Outputs, wants[1].Outputs) {
					t.Fatalf("%s [stream]: outputs differ:\n got %v\nwant %v", bc.name, got.Outputs, wants[1].Outputs)
				}
			}
		})
	}
}

// TestCheckerReportBackendLabel pins the Report.Backend label to the
// selected backend name on every in-process path.
// inputScheme's radius-1 verifier rejects any input it sees in its
// view: a node label, an edge label, a weight, a global. A backend that
// drops or alters an input shows it as a verdict.
type inputScheme struct{}

func (inputScheme) Name() string { return "test-input" }
func (inputScheme) Verifier() lcp.Verifier {
	return lcp.VerifierFunc{R: 1, F: func(w *lcp.View) bool {
		if len(w.Global) > 0 {
			return false
		}
		for _, u := range w.Nodes() {
			if w.Label(u) != "" {
				return false
			}
			for _, x := range w.Neighbors(u) {
				if w.EdgeLabel(u, x) != "" || w.Weight(u, x) != 0 {
					return false
				}
			}
		}
		return true
	}}
}
func (inputScheme) Prove(*lcp.Instance) (lcp.Proof, error) { return lcp.Proof{}, nil }

// TestCheckerBackendsKeepEveryInput: every backend agrees with core.Check
// on 8-cycles carrying one input each that only some nodes see — among
// them inputs a text document cannot hold (an edge label other than the
// solution mark, node labels with '#' or whitespace), a weight, a global,
// a directed instance, and directed instances whose only input sits on
// an arc from a larger id to a smaller one.
func TestCheckerBackendsKeepEveryInput(t *testing.T) {
	cycle := func() *lcp.Instance { return lcp.NewInstance(lcp.Cycle(8)) }
	edgeLabel := cycle()
	edgeLabel.EdgeLabel = map[lcp.Edge]string{{U: 1, V: 2}: "x"}
	weight := cycle()
	weight.Weights = map[lcp.Edge]int64{{U: 5, V: 6}: 4}
	global := cycle()
	global.Global = lcp.Global{"k": 1}
	b := lcp.NewDirectedBuilder()
	for v := 1; v <= 8; v++ {
		b.AddEdge(v, v%8+1)
	}
	directed := lcp.NewInstance(b.Graph()).SetNodeLabel(3, "a b").MarkEdge(6, 7)
	directed.Weights = map[lcp.Edge]int64{{U: 1, V: 2}: -3}
	// The only input sits on arc 8→1, from the larger id to the smaller:
	// it is keyed normalized, {1, 8}, which is not an arc.
	reversedMark := lcp.NewInstance(b.Graph()).MarkEdge(8, 1)
	reversedWeight := lcp.NewInstance(b.Graph())
	reversedWeight.Weights = map[lcp.Edge]int64{{U: 1, V: 8}: 5}
	cases := map[string]*lcp.Instance{
		"edge-label":          edgeLabel,
		"label-hash":          cycle().SetNodeLabel(3, "#"),
		"label-space":         cycle().SetNodeLabel(3, "a b"),
		"weight":              weight,
		"global":              global,
		"directed":            directed,
		"reversed-arc-mark":   reversedMark,
		"reversed-arc-weight": reversedWeight,
	}
	ctx := context.Background()
	for name, in := range cases {
		want := core.Check(in, lcp.Proof{}, inputScheme{}.Verifier())
		if want.Accepted() {
			t.Fatalf("%s: no node sees the input", name)
		}
		for _, bc := range backendMatrix() {
			chk, err := lcp.NewChecker(in, append([]lcp.CheckerOption{lcp.WithScheme(inputScheme{})}, bc.opts...)...)
			if err != nil {
				t.Fatalf("%s/%s: NewChecker: %v", name, bc.name, err)
			}
			rep, err := chk.Check(ctx, lcp.Proof{})
			if err != nil {
				t.Fatalf("%s/%s: Check: %v", name, bc.name, err)
			}
			reportMatches(t, name+"/"+bc.name, rep, want)
		}
	}
}

func TestCheckerReportBackendLabel(t *testing.T) {
	in := lcp.NewInstance(lcp.Cycle(8))
	scheme := lcp.BipartiteScheme()
	p, err := lcp.Prove(scheme, in)
	if err != nil {
		t.Fatal(err)
	}
	for name, label := range map[string]string{
		lcp.BackendCore:   lcp.BackendCore,
		lcp.BackendDist:   lcp.BackendDist,
		lcp.BackendEngine: lcp.BackendEngine,
	} {
		chk, err := lcp.NewChecker(in, lcp.WithScheme(scheme), lcp.WithBackend(name))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := chk.Check(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Backend != label {
			t.Fatalf("%s: Report.Backend = %q, want %q", name, rep.Backend, label)
		}
		if rep.Elapsed < 0 {
			t.Fatalf("negative elapsed %v", rep.Elapsed)
		}
	}
}

// TestCheckerDefaultsAndErrors pins the construction contract: engine
// is the default backend, a verifier is mandatory, and bad options fail
// loudly at construction, not at first check.
func TestCheckerDefaultsAndErrors(t *testing.T) {
	in := lcp.NewInstance(lcp.Cycle(6))
	scheme := lcp.BipartiteScheme()
	chk, err := lcp.NewChecker(in, lcp.WithScheme(scheme))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := chk.Check(context.Background(), core.Proof{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Backend != lcp.BackendEngine {
		t.Fatalf("default backend %q, want %q", rep.Backend, lcp.BackendEngine)
	}

	if _, err := lcp.NewChecker(nil, lcp.WithScheme(scheme)); err == nil {
		t.Fatal("nil instance accepted")
	}
	if _, err := lcp.NewChecker(in); err == nil {
		t.Fatal("missing verifier accepted")
	}
	if _, err := lcp.NewChecker(in, lcp.WithScheme(scheme), lcp.WithBackend("warp-drive")); err == nil {
		t.Fatal("unknown backend accepted")
	}
	if _, err := lcp.NewChecker(in, lcp.WithScheme(scheme), lcp.WithBackend(lcp.BackendCore),
		lcp.WithEngine(lcp.NewEngine(in))); err == nil {
		t.Fatal("WithEngine accepted on the core backend")
	}
	if _, err := lcp.NewChecker(in, lcp.WithScheme(scheme), lcp.WithBackend(lcp.BackendDist),
		lcp.WithEngine(lcp.NewEngine(in))); err == nil {
		t.Fatal("WithEngine accepted on the dist backend")
	}
	if _, err := lcp.NewChecker(in, lcp.WithScheme(scheme), lcp.WithBackend("engine-dist")); err == nil {
		t.Fatal("the removed engine-dist alias accepted")
	}
	other := lcp.NewInstance(lcp.Cycle(4))
	if _, err := lcp.NewChecker(in, lcp.WithScheme(scheme), lcp.WithEngine(lcp.NewEngine(other))); err == nil {
		t.Fatal("WithEngine accepted with a mismatched instance")
	}
}

// TestCheckerSharedEngine: two checkers over one engine answer
// identically, one proof at a time and in a batch (the serve wiring
// pattern).
func TestCheckerSharedEngine(t *testing.T) {
	in := lcp.NewInstance(lcp.Cycle(16))
	scheme := lcp.BipartiteScheme()
	p, err := lcp.Prove(scheme, in)
	if err != nil {
		t.Fatal(err)
	}
	eng := lcp.NewEngine(in)
	shared, err := lcp.NewChecker(in, lcp.WithScheme(scheme), lcp.WithEngine(eng))
	if err != nil {
		t.Fatal(err)
	}
	second, err := lcp.NewChecker(in, lcp.WithScheme(scheme), lcp.WithEngine(eng))
	if err != nil {
		t.Fatal(err)
	}
	tampered := core.FlipBit(p, 3)
	want := core.Check(in, p, scheme.Verifier())
	wantTampered := core.Check(in, tampered, scheme.Verifier())
	for name, chk := range map[string]lcp.Checker{"engine": shared, "engine-second": second} {
		rep, err := chk.Check(context.Background(), p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		reportMatches(t, name, rep, want)
		reps, err := chk.CheckBatch(context.Background(), []core.Proof{p, tampered})
		if err != nil {
			t.Fatalf("%s batch: %v", name, err)
		}
		reportMatches(t, name+" [batch honest]", reps[0], want)
		reportMatches(t, name+" [batch tampered]", reps[1], wantTampered)
	}
}

// TestCheckerCancelledContext: a pre-cancelled context fails every
// backend's Check, CheckBatch and CheckStream without touching a node.
func TestCheckerCancelledContext(t *testing.T) {
	in := lcp.NewInstance(lcp.Cycle(12))
	scheme := lcp.BipartiteScheme()
	p, err := lcp.Prove(scheme, in)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, bc := range backendMatrix() {
		chk, err := lcp.NewChecker(in, append([]lcp.CheckerOption{lcp.WithScheme(scheme)}, bc.opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := chk.Check(ctx, p); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: Check error = %v, want context.Canceled", bc.name, err)
		}
		_, err = chk.CheckBatch(ctx, []core.Proof{p, p})
		var be *lcp.BatchError
		if !errors.As(err, &be) || !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: CheckBatch error = %v, want *BatchError wrapping context.Canceled", bc.name, err)
		}
		if _, err := chk.CheckStream(ctx, p); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: CheckStream error = %v, want context.Canceled", bc.name, err)
		}
	}
}

// TestCheckerBatchCancelMidway: the core backend's per-proof batch
// loop, cancelled while proof 0's last node is being verified, lets
// proof 0 finish and aborts at the next proof boundary with the failing
// index in the BatchError.
func TestCheckerBatchCancelMidway(t *testing.T) {
	in := lcp.NewInstance(lcp.Cycle(12))
	nodes := in.G.Nodes()
	last := nodes[len(nodes)-1]
	ctx, cancel := context.WithCancel(context.Background())
	v := core.VerifierFunc{R: 1, F: func(w *core.View) bool {
		if w.Center == last {
			cancel() // fires at proof 0's last node; later proofs must not start
		}
		return true
	}}
	chk, err := lcp.NewChecker(in, lcp.WithVerifier(v), lcp.WithBackend(lcp.BackendCore))
	if err != nil {
		t.Fatal(err)
	}
	_, err = chk.CheckBatch(ctx, []core.Proof{{}, {}, {}})
	var be *lcp.BatchError
	if !errors.As(err, &be) {
		t.Fatalf("error = %v, want *BatchError", err)
	}
	if be.Index != 1 {
		t.Fatalf("BatchError.Index = %d, want 1 (cancelled between proofs 0 and 1)", be.Index)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("BatchError does not unwrap to context.Canceled: %v", err)
	}
}

// TestCheckerBatchColumnsCancelMidway: the engine's column walk fails
// the batch as a unit — no column has a complete verdict until the
// walk finishes — so a cancellation mid-walk reports BatchError.Index 0
// (the first proof without a report) and still unwraps to
// context.Canceled.
func TestCheckerBatchColumnsCancelMidway(t *testing.T) {
	in := lcp.NewInstance(lcp.Cycle(12))
	ctx, cancel := context.WithCancel(context.Background())
	v := core.VerifierFunc{R: 1, F: func(w *core.View) bool {
		cancel() // fires during the first node's columns; the walk must abort at the next node
		return true
	}}
	chk, err := lcp.NewChecker(in, lcp.WithVerifier(v),
		lcp.WithBackend(lcp.BackendEngine), lcp.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	reps, err := chk.CheckBatch(ctx, []core.Proof{{}, {}, {}})
	if reps != nil {
		t.Fatalf("cancelled columns batch returned %d reports, want none", len(reps))
	}
	var be *lcp.BatchError
	if !errors.As(err, &be) {
		t.Fatalf("error = %v, want *BatchError", err)
	}
	if be.Index != 0 {
		t.Fatalf("BatchError.Index = %d, want 0 (the columns walk fails as a unit)", be.Index)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("BatchError does not unwrap to context.Canceled: %v", err)
	}
}

// coreCheck verifies p on every node through the façade's sequential
// reference backend, failing tb on a checker error. It skips
// tb.Helper so that benchmarks timing it measure only the check.
func coreCheck(tb testing.TB, in *lcp.Instance, p lcp.Proof, v lcp.Verifier) *lcp.Result {
	chk, err := lcp.NewChecker(in, lcp.WithVerifier(v), lcp.WithBackend(lcp.BackendCore))
	if err != nil {
		tb.Fatal(err)
	}
	rep, err := chk.Check(context.Background(), p)
	if err != nil {
		tb.Fatal(err)
	}
	return rep.Result()
}

// TestCheckerReportStages: every backend attaches a per-stage timing
// breakdown to its Report, containing the stages of the layers that
// actually ran (and nothing negative or zero-count).
func TestCheckerReportStages(t *testing.T) {
	in := lcp.NewInstance(lcp.Cycle(8))
	scheme := lcp.BipartiteScheme()
	p, err := lcp.Prove(scheme, in)
	if err != nil {
		t.Fatal(err)
	}
	// The stages each of a fresh checker's first checks must report, and
	// on dist-tcp the one the second must not: its pooled registration
	// is reused.
	type stages struct{ want, not []string }
	wantStages := map[string][]stages{
		lcp.BackendCore:   {{want: []string{"core.check"}}},
		lcp.BackendDist:   {{want: []string{"dist.wire", "dist.seed", "dist.flood", "dist.run"}}},
		lcp.BackendEngine: {{want: []string{"engine.views", "engine.verify"}}},
		lcp.BackendDistTCP: {
			{want: []string{"remote.register", "remote.fanout"}},
			{want: []string{"remote.fanout"}, not: []string{"remote.register"}},
		},
	}
	for backend, checks := range wantStages {
		chk, err := lcp.NewChecker(in, lcp.WithScheme(scheme), lcp.WithBackend(backend), lcp.WithWorkerAddrs(tcpFleetAddrs()...))
		if err != nil {
			t.Fatal(err)
		}
		for i, check := range checks {
			rep, err := chk.Check(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Stages) == 0 {
				t.Fatalf("%s: Report.Stages empty", backend)
			}
			seen := make(map[string]lcp.Stage, len(rep.Stages))
			for _, st := range rep.Stages {
				if st.Total < 0 || st.Count < 1 {
					t.Fatalf("%s: malformed stage %+v", backend, st)
				}
				seen[st.Name] = st
			}
			for _, name := range check.want {
				if _, ok := seen[name]; !ok {
					t.Errorf("%s check %d: stage %q missing from %v", backend, i+1, name, rep.Stages)
				}
			}
			for _, name := range check.not {
				if _, ok := seen[name]; ok {
					t.Errorf("%s check %d: unexpected stage %q in %v", backend, i+1, name, rep.Stages)
				}
			}
		}
		lcp.CloseChecker(chk)
	}
}
