package remote_test

// The multi-process contract, exercised over real loopback TCP: a
// coordinator + worker fleet produces verdicts identical to core.Check
// across the whole catalog (honest, tampered, truncated), worker death
// — mid-round and mid-handshake — surfaces as a bounded-time error
// instead of a hang, and a failed check poisons nothing: surviving
// workers serve the next session.

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"lcp"
	"lcp/internal/core"
	"lcp/internal/graph"
	"lcp/internal/partition"
	"lcp/internal/remote"
)

// startFleet launches n in-process workers on loopback listeners
// speaking the given scheme registry, torn down with the test.
func startFleet(t testing.TB, n int, schemes map[string]core.Scheme) ([]string, []*remote.Worker) {
	addrs, workers, _ := startLoggedFleet(t, n, schemes)
	return addrs, workers
}

// startLoggedFleet is startFleet with every worker's listener wrapped
// in a connLog, so a test can count and sever the accepted connections.
func startLoggedFleet(t testing.TB, n int, schemes map[string]core.Scheme) ([]string, []*remote.Worker, []*connLog) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	addrs := make([]string, n)
	workers := make([]*remote.Worker, n)
	logs := make([]*connLog, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		logs[i] = &connLog{Listener: ln}
		w := remote.NewWorker(logs[i], schemes)
		workers[i] = w
		addrs[i] = w.Addr()
		go func() {
			_ = w.Serve(ctx)
		}()
		t.Cleanup(func() { _ = w.Close() })
	}
	return addrs, workers, logs
}

// catalogSchemes is every built-in scheme plus the catalog's extras
// (some experiment rows use derived schemes outside the named
// registry), keyed by Name() — the registry a test fleet serves.
func catalogSchemes() map[string]core.Scheme {
	schemes := lcp.BuiltinSchemes()
	for _, exp := range lcp.Catalog() {
		schemes[exp.Scheme.Name()] = exp.Scheme
	}
	return schemes
}

func TestCoordinatorMatchesCoreOnCatalog(t *testing.T) {
	const n = 12
	schemes := catalogSchemes()
	configs := []struct {
		workers int
		pt      partition.Partitioner
	}{
		{2, partition.Contiguous{}},
		{4, partition.BFSChunks{}},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(fmt.Sprintf("%d-workers-%s", cfg.workers, cfg.pt.Name()), func(t *testing.T) {
			addrs, _ := startFleet(t, cfg.workers, schemes)
			ctx := context.Background()
			for ei, exp := range lcp.Catalog() {
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
				coord, err := remote.DialCoordinator(ctx, fmt.Sprintf("eq-%s-%d", exp.ID, ei), addrs,
					remote.Options{Partitioner: cfg.pt})
				if err != nil {
					t.Fatalf("%s: dial: %v", exp.ID, err)
				}
				if err := coord.Register(ctx, in, exp.Scheme.Name()); err != nil {
					coord.Close()
					t.Fatalf("%s: register: %v", exp.ID, err)
				}
				// One registration serves every check: the worker-resident
				// shard is reseeded per check, so alternating honest,
				// tampered and truncated proofs pins that no knowledge
				// leaks from one check into the next.
				tampered, truncated := core.FlipBit(honest, 0), honest.Truncated(1)
				proofs := []core.Proof{honest, tampered, truncated, honest, truncated, tampered, honest}
				labels := []string{"honest", "tampered", "truncated", "honest-again", "truncated-again", "tampered-again", "honest-last"}
				for pi, p := range proofs {
					want := core.Check(in, p, v)
					got, stats, err := coord.Check(ctx, p)
					if err != nil {
						coord.Close()
						t.Fatalf("%s/%s: check: %v", exp.ID, labels[pi], err)
					}
					if !reflect.DeepEqual(got.Outputs, want.Outputs) {
						coord.Close()
						t.Fatalf("%s/%s: outputs differ:\n got %v\nwant %v", exp.ID, labels[pi], got.Outputs, want.Outputs)
					}
					if v.Radius() > 0 && cfg.workers > 1 && stats.Rounds == 0 {
						t.Errorf("%s/%s: no transport rounds recorded for a radius-%d check", exp.ID, labels[pi], v.Radius())
					}
				}
				if err := coord.Close(); err != nil {
					t.Fatalf("%s: close: %v", exp.ID, err)
				}
			}
		})
	}
}

// TestCoordinatorMoreWorkersThanNodes: extra workers get empty shards
// — an empty record list, no peers, no verdicts — and the merged
// result still matches core.
func TestCoordinatorMoreWorkersThanNodes(t *testing.T) {
	schemes := map[string]core.Scheme{"test-ping": pingScheme{r: 2}}
	addrs, _ := startFleet(t, 4, schemes)
	in := pathInstance(2)
	ctx := context.Background()
	coord, err := remote.DialCoordinator(ctx, "tiny", addrs, remote.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer coord.Close()
	if err := coord.Register(ctx, in, "test-ping"); err != nil {
		t.Fatalf("register: %v", err)
	}
	want := core.Check(in, core.Proof{}, pingScheme{r: 2}.Verifier())
	got, _, err := coord.Check(ctx, core.Proof{})
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if !reflect.DeepEqual(got.Outputs, want.Outputs) {
		t.Fatalf("outputs differ:\n got %v\nwant %v", got.Outputs, want.Outputs)
	}
}

// TestCoordinatorTinyFleetWideInstance runs the widest-radius catalog
// scheme so the flood spans many rounds over the wire.
func TestCoordinatorTinyFleetWideInstance(t *testing.T) {
	schemes := catalogSchemes()
	addrs, _ := startFleet(t, 3, schemes)
	exp := widestCatalogExperiment(t)
	size := 48
	if size < exp.MinN {
		size = exp.MinN
	}
	runCoordinatorCheck(t, addrs, exp, exp.MakeYes(size, 7))
}

func runCoordinatorCheck(t *testing.T, addrs []string, exp lcp.Experiment, in *lcp.Instance) {
	t.Helper()
	ctx := context.Background()
	honest, err := exp.Scheme.Prove(in)
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	coord, err := remote.DialCoordinator(ctx, "single-"+t.Name(), addrs, remote.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer coord.Close()
	if err := coord.Register(ctx, in, exp.Scheme.Name()); err != nil {
		t.Fatalf("register: %v", err)
	}
	want := core.Check(in, honest, exp.Scheme.Verifier())
	got, _, err := coord.Check(ctx, honest)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if !reflect.DeepEqual(got.Outputs, want.Outputs) {
		t.Fatalf("outputs differ:\n got %v\nwant %v", got.Outputs, want.Outputs)
	}
}

func widestCatalogExperiment(t *testing.T) lcp.Experiment {
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

// pingScheme floods for a configurable number of rounds and accepts
// everything — a pure round-trip generator, so fault tests can pin a
// check in its communication phase long enough to kill a worker
// mid-round.
type pingScheme struct{ r int }

func (s pingScheme) Name() string { return "test-ping" }
func (s pingScheme) Verifier() core.Verifier {
	return core.VerifierFunc{R: s.r, F: func(*core.View) bool { return true }}
}
func (s pingScheme) Prove(*core.Instance) (core.Proof, error) { return core.Proof{}, nil }

func pathInstance(n int) *core.Instance {
	nodes := make([]int, n)
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i < n; i++ {
		nodes[i] = i + 1
		if i > 0 {
			edges = append(edges, graph.NormEdge(i, i+1))
		}
	}
	return &core.Instance{G: graph.FromEdges(graph.Undirected, nodes, edges)}
}

// TestWorkerDeathMidRound kills one worker of three while a
// many-thousand-round check is mid-flood: the coordinator must return a
// transport error well within its timeouts (no hang), and the
// surviving workers must serve a fresh session afterwards — a failed
// check's poison dies with the registration it ends. The check runs
// under a 30 s deadline, tighter than the fixed round-trip bound.
func TestWorkerDeathMidRound(t *testing.T) {
	schemes := map[string]core.Scheme{
		"test-ping":       pingScheme{r: 200000},
		"test-ping-short": pingScheme{r: 4},
	}
	addrs, workers := startFleet(t, 3, schemes)
	in := pathInstance(30)
	ctx := context.Background()
	coord, err := remote.DialCoordinator(ctx, "death-mid-round", addrs, remote.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer coord.Close()
	if err := coord.Register(ctx, in, "test-ping"); err != nil {
		t.Fatalf("register: %v", err)
	}
	errc := make(chan error, 1)
	start := time.Now()
	go func() {
		cctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
		_, _, err := coord.Check(cctx, core.Proof{})
		errc <- err
	}()
	// 200k rounds of loopback ping-pong take far longer than this, so
	// the kill lands mid-flood.
	time.Sleep(100 * time.Millisecond)
	if err := workers[2].Close(); err != nil {
		t.Fatalf("kill worker: %v", err)
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("check over a killed worker succeeded")
		}
		t.Logf("check failed after %v: %v", time.Since(start), err)
	case <-time.After(40 * time.Second):
		t.Fatal("check over a killed worker hung past every timeout")
	}

	// The survivors are not poisoned: a fresh session over the two
	// remaining workers registers and checks cleanly, because the failed
	// registration's mesh and transport state died with it.
	coord2, err := remote.DialCoordinator(ctx, "death-aftermath", []string{addrs[0], addrs[1]}, remote.Options{})
	if err != nil {
		t.Fatalf("dial survivors: %v", err)
	}
	defer coord2.Close()
	if err := coord2.Register(ctx, pathInstance(10), "test-ping-short"); err != nil {
		t.Fatalf("register on survivors: %v", err)
	}
	got, _, err := coord2.Check(ctx, core.Proof{})
	if err != nil {
		t.Fatalf("check on survivors after a killed session: %v", err)
	}
	if len(got.Outputs) != 10 {
		t.Fatalf("survivor check decided %d nodes, want 10", len(got.Outputs))
	}
}

// TestWorkerDeathMidHandshake points the coordinator at a listener that
// accepts and then goes silent: registration under a 2 s deadline must
// fail within it, not hang on the half-open control plane.
func TestWorkerDeathMidHandshake(t *testing.T) {
	schemes := lcp.BuiltinSchemes()
	addrs, _ := startFleet(t, 1, schemes)
	stall, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer stall.Close()
	go func() {
		for {
			conn, err := stall.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold it open and silent until the test ends
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	coord, err := remote.DialCoordinator(ctx, "death-mid-handshake", append(addrs, stall.Addr().String()), remote.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err) // dial+hello succeed; the stall is in the reply
	}
	defer coord.Close()
	exp := lcp.Catalog()[0]
	in := exp.MakeYes(exp.MinN, 1)
	start := time.Now()
	err = coord.Register(ctx, in, exp.Scheme.Name())
	if err == nil {
		t.Fatal("register through a stalled worker succeeded")
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("register took %v, want bounded by the 2s deadline", elapsed)
	}
}

// TestRegisterUnknownScheme: the worker rejects a scheme name outside
// its registry with a clear error, not a crash at check time.
func TestRegisterUnknownScheme(t *testing.T) {
	addrs, _ := startFleet(t, 2, lcp.BuiltinSchemes())
	ctx := context.Background()
	coord, err := remote.DialCoordinator(ctx, "bad-scheme", addrs, remote.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer coord.Close()
	exp := lcp.Catalog()[0]
	in := exp.MakeYes(exp.MinN, 1)
	err = coord.Register(ctx, in, "no-such-scheme")
	if err == nil || !strings.Contains(err.Error(), "no-such-scheme") {
		t.Fatalf("register with bogus scheme: err = %v, want mention of the scheme name", err)
	}
}

// TestCheckCancellation: a context cancelled mid-flood aborts the
// coordinator promptly with the context's error.
func TestCheckCancellation(t *testing.T) {
	schemes := map[string]core.Scheme{"test-ping": pingScheme{r: 200000}}
	addrs, _ := startFleet(t, 2, schemes)
	ctx := context.Background()
	coord, err := remote.DialCoordinator(ctx, "cancel-mid-flood", addrs, remote.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer coord.Close()
	if err := coord.Register(ctx, pathInstance(16), "test-ping"); err != nil {
		t.Fatalf("register: %v", err)
	}
	cctx, cancel := context.WithCancel(ctx)
	errc := make(chan error, 1)
	go func() {
		_, _, err := coord.Check(cctx, core.Proof{})
		errc <- err
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("cancelled check succeeded")
		}
	case <-time.After(20 * time.Second):
		t.Fatal("cancelled check hung")
	}
}
