package dist

// Cancellation tests for the round loop: a cancelled context stops
// every shard of the run, and — critically — the wiring stays reusable:
// the next run on the same network must produce full, correct verdicts.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"lcp/internal/core"
	"lcp/internal/graph"
	"lcp/internal/transport"
)

// slowVerifier gives the flood a few rounds to abort in.
func slowVerifier(radius int) core.Verifier {
	return core.VerifierFunc{R: radius, F: func(w *core.View) bool { return true }}
}

// runAborts drives one wiring directly with an already-cancelled
// context, so the run must abort with the context's error —
// deterministically, whatever the layout — and then re-runs the same
// wiring to completion.
func runAborts(t *testing.T, opt Options) {
	t.Helper()
	in := core.NewInstance(graph.Cycle(24))
	v := slowVerifier(4)
	nw, err := NewNetwork(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w, err := nw.acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(ctx, core.Proof{}, v); !errors.Is(err, context.Canceled) {
		t.Fatalf("aborted run error = %v, want context.Canceled", err)
	}
	// The wiring must be clean after the abort: every automaton
	// reseedable. A full re-run must match core.Check.
	verdicts, err := w.Run(context.Background(), core.Proof{}, v)
	if err != nil {
		t.Fatalf("re-run after abort: %v", err)
	}
	res, err := MergeVerdicts(nw.plans, verdicts)
	if err != nil {
		t.Fatal(err)
	}
	want := core.Check(in, core.Proof{}, v)
	if !reflect.DeepEqual(res.Outputs, want.Outputs) {
		t.Fatalf("re-run after abort diverged:\n got %v\nwant %v", res.Outputs, want.Outputs)
	}
}

func TestRunAbortsOnCancelPerNode(t *testing.T) {
	runAborts(t, Options{Shards: 24})
}

func TestRunAbortsOnCancelSharded(t *testing.T) {
	runAborts(t, Options{Shards: 3})
}

// TestNetworkCheckCtx covers the public surface: a pre-cancelled
// context is rejected up front, a mid-run cancellation either aborts
// with the context's error or completes with correct verdicts (timing
// decides which), and the network keeps serving afterwards.
func TestNetworkCheckCtx(t *testing.T) {
	in := core.NewInstance(graph.Cycle(64))
	v := slowVerifier(6)
	nw, err := NewNetwork(in, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	want := core.Check(in, core.Proof{}, v)

	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	if _, err := nw.CheckCtx(pre, core.Proof{}, v); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled CheckCtx error = %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Microsecond)
		cancel()
	}()
	res, err := nw.CheckCtx(ctx, core.Proof{}, v)
	switch {
	case err == nil:
		if !reflect.DeepEqual(res.Outputs, want.Outputs) {
			t.Fatalf("completed run diverged under racing cancel")
		}
	case errors.Is(err, context.Canceled):
		// aborted between rounds — the expected fast path
	default:
		t.Fatalf("CheckCtx error = %v", err)
	}

	res, err = nw.CheckCtx(context.Background(), core.Proof{}, v)
	if err != nil {
		t.Fatalf("Check after cancelled run: %v", err)
	}
	if !reflect.DeepEqual(res.Outputs, want.Outputs) {
		t.Fatalf("network unusable after cancelled run")
	}
}

// TestWiringKeepsTransportGroup: a wiring's runs share one in-process
// transport group while they succeed, so a warm check builds no
// transport buffers; a cancelled run closes the group, which never runs
// again, and the next run builds a fresh one.
func TestWiringKeepsTransportGroup(t *testing.T) {
	in := core.NewInstance(graph.Cycle(24))
	v := slowVerifier(3)
	want := core.Check(in, core.Proof{}, v)
	nw, err := NewNetwork(in, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	w := nw.idle[0].(*wiring)
	check := func(label string) {
		t.Helper()
		verdicts, err := w.Run(context.Background(), core.Proof{}, v)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		res, err := MergeVerdicts(nw.plans, verdicts)
		if err != nil || !reflect.DeepEqual(res.Outputs, want.Outputs) {
			t.Fatalf("%s: verdicts differ from core.Check (%v)", label, err)
		}
	}
	check("first run")
	first := w.trs
	for i := range 3 {
		check(fmt.Sprintf("run %d", i+2))
		if &w.trs[0] != &first[0] {
			t.Fatalf("run %d rebuilt the transport group of a successful run", i+2)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := w.Run(ctx, core.Proof{}, v); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run error = %v, want context.Canceled", err)
	}
	if w.trs != nil {
		t.Fatal("the wiring kept the group of a cancelled run")
	}
	// One member's exchange waits for all three at a live group's gate.
	if _, err := first[0].Exchange(context.Background(), 1); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("the cancelled run's group exchanged again: %v", err)
	}
	check("run after the cancelled one")
	if w.trs == nil || &w.trs[0] == &first[0] {
		t.Fatal("the run after a cancelled one did not build a fresh group")
	}
}
