package engine_test

// Context-cancellation tests for the engine's batch paths (the façade
// relies on them behaving uniformly).

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"lcp"
	"lcp/internal/core"
	"lcp/internal/engine"
)

// TestCheckBatchCtxAbortsBetweenProofs: a context cancelled during
// proof 0's verification stops the batch at the next proof boundary,
// returning the completed prefix plus the context's error.
func TestCheckBatchCtxAbortsBetweenProofs(t *testing.T) {
	in := lcp.NewInstance(lcp.Cycle(10))
	ctx, cancel := context.WithCancel(context.Background())
	v := core.VerifierFunc{R: 1, F: func(w *core.View) bool {
		cancel()
		return true
	}}
	e := engine.New(in, engine.Options{Workers: 1})
	results, err := e.CheckBatchCtx(ctx, []core.Proof{{}, {}, {}}, v)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if len(results) != 1 {
		t.Fatalf("completed %d proofs before aborting, want 1", len(results))
	}
	if !results[0].Accepted() {
		t.Fatal("proof 0's result corrupted by the abort")
	}
}

// TestCheckBatchCtxBackgroundMatchesCheckBatch: without cancellation
// the ctx variant is CheckBatch.
func TestCheckBatchCtxBackgroundMatchesCheckBatch(t *testing.T) {
	in := lcp.NewInstance(lcp.Cycle(12))
	scheme := lcp.BipartiteScheme()
	p, err := scheme.Prove(in)
	if err != nil {
		t.Fatal(err)
	}
	proofs := []core.Proof{p, core.FlipBit(p, 1), p.Truncated(1)}
	e := engine.New(in, engine.Options{})
	got, err := e.CheckBatchCtx(context.Background(), proofs, scheme.Verifier())
	if err != nil {
		t.Fatal(err)
	}
	want := e.CheckBatch(proofs, scheme.Verifier())
	if len(got) != len(want) {
		t.Fatalf("length mismatch: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i].Outputs, want[i].Outputs) {
			t.Fatalf("proof %d diverged", i)
		}
	}
}
