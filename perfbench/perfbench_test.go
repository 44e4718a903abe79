package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"syscall"
	"testing"

	"lcp"
	"lcp/internal/core"
)

// fakeWorkerEnv makes the test binary act as a worker subprocess: it
// prints the lcpworker listen line and waits for SIGTERM, then exits 0
// ("clean") or 3 ("unclean").
const fakeWorkerEnv = "PERFBENCH_FAKE_WORKER"

func TestMain(m *testing.M) {
	if mode := os.Getenv(fakeWorkerEnv); mode != "" {
		os.Exit(fakeWorker(mode == "clean"))
	}
	os.Exit(m.Run())
}

func fakeWorker(clean bool) int {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer ln.Close()
	fmt.Printf("%s%s\n", listenPrefix, ln.Addr())
	<-sig
	if !clean {
		return 3
	}
	return 0
}

func TestTailLevelHasTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 0.999, true},
		{9999, 0.99, true},
		{1000, 0.99, true},
		{999, 0.95, true},
		{200, 0.95, true},
		{199, 0.90, true},
		{100, 0.90, true},
		{40, 0.75, true},
		{20, 0.50, true},
		{19, 0, false},
	} {
		q, ok := tailLevel(tc.n)
		if q != tc.want || ok != tc.ok {
			t.Errorf("tailLevel(%d) = %v, %v; want %v, %v", tc.n, q, ok, tc.want, tc.ok)
		}
	}
	// The rule itself, for every size: the level chosen has at least ten
	// samples beyond it, and the next level up has fewer.
	for n := 1; n <= 20000; n++ {
		q, ok := tailLevel(n)
		for i, level := range tailLevels {
			if ok && level == q {
				if beyond(n, q) < 10 {
					t.Fatalf("n=%d: p%g has %d samples beyond it", n, q*100, beyond(n, q))
				}
				if i > 0 && beyond(n, tailLevels[i-1]) >= 10 {
					t.Fatalf("n=%d: p%g chosen, but p%g also has ten beyond", n, q*100, tailLevels[i-1]*100)
				}
			}
		}
		if !ok && beyond(n, 0.5) >= 10 {
			t.Fatalf("n=%d: no level chosen, but the median has ten beyond", n)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python: statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1}, 0, 6}, // the exclusive method extrapolates past the ends
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestOracleCatchesWrongVerdict(t *testing.T) {
	in := lcp.NewInstance(lcp.Grid(4, 4))
	scheme := lcp.BipartiteScheme()
	v := scheme.Verifier()
	honest, err := scheme.Prove(in)
	if err != nil {
		t.Fatal(err)
	}
	cases, err := oracle(in, v, honest, 4, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cases {
		if err := c.verifyResult(core.Check(in, c.proof, v), in.G.N()); err != nil {
			t.Fatalf("case %d: the reference's own verdict fails: %v", i, err)
		}
	}
	bad := cases[1]
	if len(bad.rejectors) == 0 {
		t.Fatal("a one-bit flip of a bipartite proof should be rejected somewhere")
	}
	var tl tally
	for _, wrong := range []error{
		bad.verify(true, nil),                                                         // rejected proof reported accepted
		bad.verify(false, append(bad.rejectors[1:], 1<<20)),                           // right outcome, wrong rejectors
		cases[0].verify(false, []int{1}),                                              // honest proof reported rejected
		cases[0].verifyResult(&core.Result{Outputs: map[int]bool{1: true}}, in.G.N()), // nodes missing
	} {
		if !errors.Is(wrong, errWrongVerdict) {
			t.Errorf("wrong verdict not caught: %v", wrong)
		}
		tl.record(wrong)
	}
	if tl.wrong.Load() != 4 || tl.failed.Load() != 4 {
		t.Errorf("tally: %d wrong, %d failed; want 4, 4", tl.wrong.Load(), tl.failed.Load())
	}
}

// reaped reports whether every worker's process has been waited for.
func reaped(f fleet) bool {
	for _, w := range f {
		select {
		case <-w.exited:
		default:
			return false
		}
		if w.cmd.ProcessState == nil {
			return false
		}
	}
	return true
}

func TestWithFleetStopsWorkersOnSuccessAndFailure(t *testing.T) {
	argv := []string{os.Args[0]}
	env := []string{fakeWorkerEnv + "=clean"}
	for _, fnErr := range []error{nil, errors.New("phase failed")} {
		var seen fleet
		var tl tally
		err := withFleet(argv, env, 2, &tl, func(f fleet) error {
			seen = f
			if len(f.addrs()) != 2 || f.addrs()[0] == "" {
				t.Errorf("addresses not scraped: %q", f.addrs())
			}
			return fnErr
		})
		if err != fnErr {
			t.Errorf("withFleet returned %v, want %v", err, fnErr)
		}
		if !reaped(seen) {
			t.Errorf("fn error %v: workers not reaped", fnErr)
		}
		for _, w := range seen {
			if ws := w.cmd.ProcessState.Sys().(syscall.WaitStatus); ws.Signaled() || ws.ExitStatus() != 0 {
				t.Errorf("worker did not exit cleanly on SIGTERM: %v", w.cmd.ProcessState)
			}
		}
		if tl.attempted.Load() != 2 || tl.failed.Load() != 0 {
			t.Errorf("tally: %d attempted, %d failed; want 2, 0", tl.attempted.Load(), tl.failed.Load())
		}
	}
}

func TestUncleanWorkerExitIsAFailure(t *testing.T) {
	var seen fleet
	var tl tally
	err := withFleet([]string{os.Args[0]}, []string{fakeWorkerEnv + "=unclean"}, 2, &tl, func(f fleet) error {
		seen = f
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reaped(seen) {
		t.Fatal("workers not reaped")
	}
	if tl.failed.Load() != 2 {
		t.Errorf("%d of 2 unclean exits counted as failures", tl.failed.Load())
	}
}

func TestSpawnRejectsWorkerWithoutListenLine(t *testing.T) {
	// The rejected worker is stopped before spawnFleet returns; its
	// SIGTERM death is reported with the rejection.
	_, err := spawnFleet([]string{"/bin/sh", "-c", "echo not-a-listen-line; exec sleep 60"}, nil, 1)
	if err == nil {
		t.Fatal("spawn accepted a worker without a listen line")
	}
}
