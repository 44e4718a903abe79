package engine_test

// Context-cancellation tests for the engine's column walk (the façade
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

// TestCheckBatchCtxFailsAsAUnit: a context cancelled while the walk is
// at its first node stops it at the next node boundary. No column has a
// complete verdict yet, so the whole batch fails: nil results and the
// context's error, and the verifier ran at no later node.
func TestCheckBatchCtxFailsAsAUnit(t *testing.T) {
	in := lcp.NewInstance(lcp.Cycle(10))
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	v := core.VerifierFunc{R: 1, F: func(w *core.View) bool {
		calls++
		cancel()
		return w.ProofOf(w.Center).Len() == 0
	}}
	e := engine.New(in, engine.Options{Workers: 1})
	// Two distinct columns at every node (the third repeats the first):
	// the first node runs the verifier twice before the walk reaches a
	// boundary.
	results, err := e.CheckBatchCtx(ctx, []core.Proof{{}, core.RandomProof(in, 1, 1), {}}, v)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if results != nil {
		t.Fatalf("cancelled walk returned %d results, want none", len(results))
	}
	if calls != 2 {
		t.Fatalf("verifier ran %d times, want 2 (both distinct columns of the first node, then the abort)", calls)
	}
	if _, err := e.CheckProofCtx(ctx, core.Proof{}, v); !errors.Is(err, context.Canceled) {
		t.Fatalf("single check on a done context: error = %v, want context.Canceled", err)
	}
}

// TestCheckBatchCtxMatchesCheckProofCtx: without cancellation every
// column of a walk is exactly the one-column walk of its proof.
func TestCheckBatchCtxMatchesCheckProofCtx(t *testing.T) {
	in := lcp.NewInstance(lcp.Cycle(12))
	scheme := lcp.BipartiteScheme()
	p, err := scheme.Prove(in)
	if err != nil {
		t.Fatal(err)
	}
	proofs := []core.Proof{p, core.FlipBit(p, 1), p.Truncated(1)}
	e := engine.New(in, engine.Options{})
	ctx := context.Background()
	got, err := e.CheckBatchCtx(ctx, proofs, scheme.Verifier())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(proofs) {
		t.Fatalf("length mismatch: %d vs %d", len(got), len(proofs))
	}
	for i, proof := range proofs {
		want, err := e.CheckProofCtx(ctx, proof, scheme.Verifier())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i].Outputs, want.Outputs) {
			t.Fatalf("proof %d diverged", i)
		}
	}
}
