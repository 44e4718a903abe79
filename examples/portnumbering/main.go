// Port numbering: locally checkable proofs WITHOUT unique identifiers.
//
// §7.1 of Göös–Suomela shows LogLCP is the same class in two different
// models: M1 (nodes have unique IDs) and M2 (nodes are anonymous, only a
// port numbering and a single distinguished leader exist). The
// translation packs a spanning tree — encoded purely as "my parent is my
// port #3" — plus DFS discovery/finishing times into the certificate;
// the interval-nesting discipline forces the times to be globally
// distinct, giving every node a verified virtual identity.
//
// This example runs the odd-n counting scheme in the M2 model and then
// demonstrates the punchline: re-assigning every real identifier (order-
// preservingly, so the port structure is untouched) leaves the SAME
// certificate valid — the proof genuinely never reads the identifiers.
// The raw M1 certificate breaks immediately under the same renaming.
package main

import (
	"context"
	"fmt"
	"log"

	"lcp"
	"lcp/internal/ports"
)

func main() {
	// An anonymous sensor ring of 33 nodes with one gateway (the leader).
	ring := lcp.Cycle(33)
	in := lcp.NewInstance(ring).SetNodeLabel(17, lcp.LabelLeader)

	m2 := ports.M2Scheme{Inner: lcp.OddNScheme()}
	cert, res, err := lcp.ProveAndCheck(in, m2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("M2 certificate for \"n is odd\" on an anonymous 33-ring: %d bits/node, %s\n",
		cert.Size(), res)

	m1 := lcp.OddNScheme()
	rawCert, _, err := lcp.ProveAndCheck(in, m1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("M1 certificate (uses identifiers):                      %d bits/node\n\n", rawCert.Size())

	// The hardware is re-flashed: every node gets a new serial number.
	// Relative order is preserved, so each node's ports still point at
	// the same neighbours.
	renaming := ports.OrderPreservingRelabel(ring, 13, 1000)
	in2 := in.Relabel(renaming)

	fmt.Println("After re-assigning all identifiers (order-preserving):")
	if check(in2, cert.Relabel(renaming), m2.Verifier()).Accepted() {
		fmt.Println("  M2 certificate: STILL VALID — it never read the identifiers")
	} else {
		log.Fatal("  M2 certificate broke; §7.1 translation is faulty")
	}
	if !check(in2, rawCert.Relabel(renaming), m1.Verifier()).Accepted() {
		fmt.Println("  M1 certificate: INVALID — its tree labels embed the old identifiers")
	} else {
		log.Fatal("  M1 certificate survived renaming?!")
	}

	fmt.Println()
	fmt.Println("A forged anonymous certificate still cannot claim the wrong parity:")
	even := lcp.NewInstance(lcp.Cycle(34)).SetNodeLabel(17, lcp.LabelLeader)
	if _, err := m2.Prove(even); err != nil {
		fmt.Printf("  prover on a 34-ring: %v\n", err)
	}
}

// check verifies p on every node with the façade's sequential
// reference backend.
func check(in *lcp.Instance, p lcp.Proof, v lcp.Verifier) *lcp.Result {
	chk, err := lcp.NewChecker(in, lcp.WithVerifier(v), lcp.WithBackend(lcp.BackendCore))
	if err != nil {
		log.Fatal(err)
	}
	rep, err := chk.Check(context.Background(), p)
	if err != nil {
		log.Fatal(err)
	}
	return rep.Result()
}
