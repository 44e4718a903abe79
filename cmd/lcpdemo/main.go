// Command lcpdemo walks through the life of a locally checkable proof:
// build a network, have the prover construct a certificate, verify it
// with the goroutine-per-node distributed runtime, then tamper with the
// proof and with the network and watch nodes raise the alarm.
//
// Usage:
//
//	lcpdemo [-n 24] [-seed 7]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"lcp"
	"lcp/internal/core"
)

func main() {
	n := flag.Int("n", 24, "network size")
	seed := flag.Int64("seed", 7, "random seed")
	flag.Parse()
	if err := run(*n, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "lcpdemo:", err)
		os.Exit(1)
	}
}

func run(n int, seed int64) error {
	fmt.Printf("Building a random connected network with n = %d …\n", n)
	g := lcp.RandomConnected(n, 0.12, seed)
	in := lcp.NewInstance(g).SetNodeLabel(g.Nodes()[0], lcp.LabelLeader)
	scheme := lcp.LeaderElectionScheme()

	fmt.Printf("Scheme: %s (Θ(log n) bits per node)\n\n", scheme.Name())

	fmt.Println("1. The prover constructs a certificate: a spanning tree rooted")
	fmt.Println("   at the leader, each node holding (root id, parent id, depth).")
	proof, err := scheme.Prove(in)
	if err != nil {
		return err
	}
	fmt.Printf("   proof size: %d bits per node (%d bits total)\n\n", proof.Size(), proof.TotalBits())

	fmt.Println("2. Every node verifies its radius-1 view — one goroutine per")
	fmt.Println("   node, views collected by synchronous flooding:")
	// One façade checker on the message-passing backend, one shard (and
	// so one goroutine) per node, serves both the honest and the
	// tampered check; the network wiring is built once.
	chk, err := lcp.NewChecker(in, lcp.WithScheme(scheme), lcp.WithBackend(lcp.BackendDist), lcp.WithShards(in.G.N()))
	if err != nil {
		return err
	}
	ctx := context.Background()
	res, err := chk.Check(ctx, proof)
	if err != nil {
		return err
	}
	fmt.Printf("   verdict: %s (%s backend, %v)\n\n", res.Result(), res.Backend, res.Elapsed.Round(time.Microsecond))

	fmt.Println("3. An adversary flips one proof bit:")
	tampered := core.FlipBit(proof, seed)
	res2, err := chk.Check(ctx, tampered)
	if err != nil {
		return err
	}
	fmt.Printf("   verdict: %s\n", res2.Result())
	if node, rejected := res2.FirstReject(); rejected {
		fmt.Printf("   alarm raised first by node %d (all alarms: %v)\n\n", node, res2.Rejectors())
	} else {
		fmt.Println("   (the flip produced another valid certificate — rare but legal)")
		fmt.Println()
	}

	fmt.Println("4. An adversary duplicates the leader label (two leaders):")
	in2 := in.Clone().SetNodeLabel(g.Nodes()[n/2], lcp.LabelLeader)
	chk2, err := lcp.NewChecker(in2, lcp.WithScheme(scheme), lcp.WithBackend(lcp.BackendCore))
	if err != nil {
		return err
	}
	res3, err := chk2.Check(ctx, proof)
	if err != nil {
		return err
	}
	fmt.Printf("   verdict with the old proof: %s\n", res3.Result())
	if _, err := scheme.Prove(in2); err != nil {
		fmt.Printf("   prover refuses the two-leader instance: %v\n\n", err)
	}

	fmt.Println("5. Condition (ii) of the paper, exhaustively, on a tiny instance:")
	tiny := lcp.NewInstance(lcp.Cycle(5)) // no leader at all
	sound, fooling := core.CertifySoundness(tiny, scheme.Verifier(), 2)
	if sound {
		fmt.Println("   no ≤2-bit proof convinces C5 that it has exactly one leader —")
		fmt.Println("   every assignment is rejected by at least one node. QED (by search).")
	} else {
		fmt.Printf("   UNSOUND: fooling proof %v\n", fooling)
	}
	return nil
}
