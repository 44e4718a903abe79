package engine_test

// Native fuzz target for the column walk: under random instance
// shapes, batch sizes, worker counts, and proof mutations (honest,
// bit-flipped, truncated, entry-dropped), CheckBatchCtx must stay
// verdict-for-verdict identical to the sequential reference core.Check,
// and so must CheckProofCtx, the one-column walk, on column 0. This is
// the property layer that keeps a data-layout-heavy path (strided
// columns, ball-restriction dedup) honest.

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"lcp/internal/core"
	"lcp/internal/engine"
	"lcp/internal/graph"
	"lcp/internal/schemes"
)

func FuzzBatchColumnsEquivalence(f *testing.F) {
	f.Add(uint8(5), uint8(3), int64(1), uint8(1))
	f.Add(uint8(0), uint8(0), int64(7), uint8(0))   // empty batch
	f.Add(uint8(0), uint8(8), int64(42), uint8(2))  // k > n on the smallest graph
	f.Add(uint8(29), uint8(1), int64(99), uint8(3)) // k = 1
	f.Fuzz(func(t *testing.T, nRaw, kRaw uint8, seed int64, workersRaw uint8) {
		n := 3 + int(nRaw%30)
		k := int(kRaw % 9)
		// Everything random is drawn from one seeded source, so a corpus
		// entry reproduces exactly.
		rng := rand.New(rand.NewSource(seed))
		var g *graph.Graph
		switch rng.Intn(3) {
		case 0:
			g = graph.Cycle(n)
		case 1:
			g = graph.Path(n)
		default:
			g = graph.Grid(2, (n+1)/2)
		}
		in := core.NewInstance(g)
		scheme := schemes.ParityCount{WantOdd: g.N()%2 == 1}
		honest, err := scheme.Prove(in)
		if err != nil {
			t.Fatalf("prove on %d nodes: %v", g.N(), err)
		}
		v := scheme.Verifier()
		proofs := make([]core.Proof, k)
		for j := range proofs {
			switch rng.Intn(4) {
			case 0:
				proofs[j] = honest
			case 1:
				proofs[j] = core.FlipBit(honest, rng.Int63())
			case 2:
				proofs[j] = honest.Truncated(rng.Intn(3))
			default:
				// Drop one entry (deterministically chosen: map
				// iteration order would make the target irreproducible).
				p := honest.Clone()
				ids := make([]int, 0, len(p))
				for id := range p {
					ids = append(ids, id)
				}
				sort.Ints(ids)
				if len(ids) > 0 {
					delete(p, ids[rng.Intn(len(ids))])
				}
				proofs[j] = p
			}
		}
		eng := engine.New(in, engine.Options{Workers: 1 + int(workersRaw%4)})
		want := make([]*core.Result, k)
		for j, p := range proofs {
			want[j] = core.Check(in, p, v)
		}
		got, err := eng.CheckBatchCtx(context.Background(), proofs, v)
		if err != nil {
			t.Fatalf("CheckBatchCtx: %v", err)
		}
		if len(got) != k {
			t.Fatalf("got %d results, want %d", len(got), k)
		}
		for j := range got {
			if !reflect.DeepEqual(got[j].Outputs, want[j].Outputs) {
				t.Fatalf("proof %d: columns outputs differ from core.Check:\n got %v\nwant %v", j, got[j].Outputs, want[j].Outputs)
			}
		}
		if k == 0 {
			return
		}
		single, err := eng.CheckProofCtx(context.Background(), proofs[0], v)
		if err != nil {
			t.Fatalf("CheckProofCtx: %v", err)
		}
		if !reflect.DeepEqual(single.Outputs, want[0].Outputs) {
			t.Fatalf("column 0 alone: outputs differ from core.Check:\n got %v\nwant %v", single.Outputs, want[0].Outputs)
		}
	})
}
