// Quickstart: prove that a graph is bipartite with a 1-bit-per-node
// locally checkable proof, verify it distributedly, and watch soundness
// in action on an odd cycle.
package main

import (
	"context"
	"fmt"
	"log"

	"lcp"
	"lcp/internal/core"
)

func main() {
	// An 8-cycle is bipartite. The proof is a proper 2-colouring: one
	// bit per node.
	even := lcp.NewInstance(lcp.Cycle(8))
	scheme := lcp.BipartiteScheme()

	proof, res, err := lcp.ProveAndCheck(even, scheme)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("C8: %s with %d bit(s) per node\n", res, proof.Size())

	// Verify on the LOCAL-model runtime through the unified façade:
	// one shard (and so one goroutine) per node, views flooded for
	// radius rounds. The same NewChecker call with a different
	// WithBackend selects the sequential reference or the cached-view
	// engine instead.
	chk, err := lcp.NewChecker(even, lcp.WithScheme(scheme), lcp.WithBackend(lcp.BackendDist), lcp.WithShards(even.G.N()))
	if err != nil {
		log.Fatal(err)
	}
	dres, err := chk.Check(context.Background(), proof)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("C8 (distributed): %s\n", dres.Result())

	// A 9-cycle is not bipartite: the prover refuses…
	odd := lcp.NewInstance(lcp.Cycle(9))
	if _, err := lcp.Prove(scheme, odd); err != nil {
		fmt.Printf("C9: prover says: %v\n", err)
	}

	// …and no proof exists at all, which we can certify exhaustively at
	// this size: all 2^9 one-bit assignments are rejected somewhere.
	sound, _ := core.CertifySoundness(odd, scheme.Verifier(), 1)
	fmt.Printf("C9: exhaustive search over all 1-bit proofs: every one rejected = %v\n", sound)

	// Tampering with a valid proof trips the verifier; the checker
	// reuses its wiring from the honest check above.
	tampered := core.FlipBit(proof, 1)
	res2, err := chk.Check(context.Background(), tampered)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("C8 with a flipped bit: %s (alarms at %v)\n", res2.Result(), res2.Rejectors())
}
