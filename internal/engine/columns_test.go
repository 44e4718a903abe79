package engine_test

// Tests for the column walk: concurrent walks of every width against
// one shared Engine (the serve /check and /check/batch fan-out, run
// under -race), degenerate batch shapes, and cancellation semantics. The catalog-wide
// equivalence lives in the checker matrix and the fuzz target; these
// pin the concurrency and edge-shape behaviour.

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"lcp/internal/core"
	"lcp/internal/engine"
	"lcp/internal/graph"
	"lcp/internal/schemes"
)

// columnsFixture is a Cycle instance with a mixed batch: honest,
// tampered, truncated, and entry-dropped proofs.
func columnsFixture(t *testing.T, n, k int) (*core.Instance, []core.Proof, core.Verifier) {
	t.Helper()
	in := core.NewInstance(graph.Cycle(n))
	scheme := schemes.ParityCount{WantOdd: n%2 == 1}
	honest, err := scheme.Prove(in)
	if err != nil {
		t.Fatal(err)
	}
	proofs := make([]core.Proof, k)
	for j := range proofs {
		switch j % 4 {
		case 0:
			proofs[j] = honest
		case 1:
			proofs[j] = core.FlipBit(honest, int64(j))
		case 2:
			proofs[j] = honest.Truncated(1)
		default:
			p := honest.Clone()
			delete(p, in.G.Nodes()[j%n])
			proofs[j] = p
		}
	}
	return in, proofs, scheme.Verifier()
}

// TestCheckBatchColumnsConcurrentStress mirrors serve's fan-out: many
// goroutines firing walks at one shared Engine on one instance, whole
// batches and single checks interleaved, so pooled tables of different
// widths are drawn and returned concurrently. Run under -race this pins
// that the pooled ProofColumns tables, the lazily built ball-index
// cache, and the shared skeletons never alias across concurrent walks.
func TestCheckBatchColumnsConcurrentStress(t *testing.T) {
	const (
		goroutines = 8
		iterations = 5
	)
	in, proofs, v := columnsFixture(t, 33, 12)
	want := make([]*core.Result, len(proofs))
	for j, p := range proofs {
		want[j] = core.Check(in, p, v)
	}
	eng := engine.New(in, engine.Options{Workers: 4})
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iterations; it++ {
				if g%2 == 0 {
					got, err := eng.CheckBatchCtx(context.Background(), proofs, v)
					if err != nil {
						errs <- err
						return
					}
					for j := range got {
						if !reflect.DeepEqual(got[j].Outputs, want[j].Outputs) {
							t.Errorf("goroutine %d iter %d proof %d: outputs diverged", g, it, j)
							return
						}
					}
				} else {
					j := (g + it) % len(proofs)
					got, err := eng.CheckProofCtx(context.Background(), proofs[j], v)
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(got.Outputs, want[j].Outputs) {
						t.Errorf("goroutine %d iter %d single check of proof %d: outputs diverged", g, it, j)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent batch: %v", err)
	}
}

// TestCheckBatchColumnsShapes sweeps the degenerate batch shapes: the
// empty batch, a single column, more columns than nodes, a batch where
// every column rejects, and a cancelled context.
func TestCheckBatchColumnsShapes(t *testing.T) {
	t.Run("empty-batch", func(t *testing.T) {
		in, _, v := columnsFixture(t, 9, 1)
		eng := engine.New(in, engine.Options{})
		for _, proofs := range [][]core.Proof{nil, {}} {
			got, err := eng.CheckBatchCtx(context.Background(), proofs, v)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 0 {
				t.Fatalf("empty batch returned %d results", len(got))
			}
		}
	})
	t.Run("single-column", func(t *testing.T) {
		in, proofs, v := columnsFixture(t, 9, 1)
		eng := engine.New(in, engine.Options{})
		got, err := eng.CheckBatchCtx(context.Background(), proofs, v)
		if err != nil {
			t.Fatal(err)
		}
		want := core.Check(in, proofs[0], v)
		if !reflect.DeepEqual(got[0].Outputs, want.Outputs) {
			t.Fatalf("k=1 outputs differ:\n got %v\nwant %v", got[0].Outputs, want.Outputs)
		}
	})
	t.Run("more-columns-than-nodes", func(t *testing.T) {
		in, proofs, v := columnsFixture(t, 5, 23)
		eng := engine.New(in, engine.Options{Workers: 3})
		got, err := eng.CheckBatchCtx(context.Background(), proofs, v)
		if err != nil {
			t.Fatal(err)
		}
		for j, p := range proofs {
			want := core.Check(in, p, v)
			if !reflect.DeepEqual(got[j].Outputs, want.Outputs) {
				t.Fatalf("k>n proof %d outputs differ", j)
			}
		}
	})
	t.Run("all-rejecting", func(t *testing.T) {
		in, proofs, v := columnsFixture(t, 9, 6)
		for j := range proofs {
			proofs[j] = core.FlipBit(proofs[j], int64(100+j))
		}
		eng := engine.New(in, engine.Options{Workers: 2})
		got, err := eng.CheckBatchCtx(context.Background(), proofs, v)
		if err != nil {
			t.Fatal(err)
		}
		for j, p := range proofs {
			want := core.Check(in, p, v)
			if want.Accepted() {
				// A flipped parity certificate must reject somewhere;
				// if not, the fixture is too weak to test.
				t.Fatalf("fixture proof %d unexpectedly accepted", j)
			}
			if !reflect.DeepEqual(got[j].Outputs, want.Outputs) {
				t.Fatalf("proof %d outputs differ:\n got %v\nwant %v", j, got[j].Outputs, want.Outputs)
			}
		}
	})
	t.Run("cancelled-context", func(t *testing.T) {
		in, proofs, v := columnsFixture(t, 9, 4)
		eng := engine.New(in, engine.Options{})
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		got, err := eng.CheckBatchCtx(ctx, proofs, v)
		if err == nil || got != nil {
			t.Fatalf("cancelled batch returned (%v, %v), want (nil, ctx error)", got, err)
		}
	})
}
