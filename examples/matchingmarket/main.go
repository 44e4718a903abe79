// Matching market: verifiable optimality via LP duality (§2.3).
//
// A platform assigns workers to jobs to maximize total value. Workers do
// not trust the platform — so alongside the assignment, the platform
// publishes an O(log W)-bit dual certificate y_v per participant. Each
// participant checks only its own neighbourhood:
//
//   - y_me + y_job ≥ value(me, job) for every job I could take
//     (no blocking pair is undervalued), and
//   - y_me + y_match = value(me, match) on my actual assignment
//     (my potential is fully backed by real value), and
//   - if y_me > 0 then I am matched (no phantom potentials).
//
// If every participant accepts, complementary slackness forces the
// assignment to be a maximum-weight matching — certified optimality with
// constant-radius checks.
package main

import (
	"context"
	"fmt"
	"log"

	"lcp"
	"lcp/internal/core"
	"lcp/internal/graphalg"
)

func main() {
	// 6 workers (1..6), 7 jobs (7..13); values are synthetic skill fits.
	const workers, jobs = 6, 7
	g := lcp.RandomBipartite(workers, jobs, 0.7, 2026)
	values := graphalg.Weights{}
	const W = 100
	rng := int64(99)
	for _, e := range g.Edges() {
		rng = rng*6364136223846793005 + 1442695040888963407
		values[e] = (rng >> 40) % (W + 1)
		if values[e] < 0 {
			values[e] = -values[e]
		}
	}

	// The platform computes the optimal assignment (Hungarian) and its
	// integral dual certificate.
	var left []int
	for v := 1; v <= workers; v++ {
		left = append(left, v)
	}
	assignment := graphalg.MaxWeightMatching(g, left, values)
	fmt.Printf("market: %d workers, %d jobs, %d offers\n", workers, jobs, g.M())
	fmt.Printf("optimal assignment: %d pairs, total value %d\n",
		len(assignment), graphalg.MatchingWeight(assignment, values))

	in := lcp.NewInstance(g)
	in.Weights = map[lcp.Edge]int64{}
	for e, w := range values {
		in.Weights[e] = w
	}
	for e := range assignment {
		in.MarkEdge(e.U, e.V)
	}
	in.Global = lcp.Global{lcp.GlobalW: W}

	scheme := lcp.MaxWeightMatchingScheme()
	cert, res, err := lcp.ProveAndCheck(in, scheme)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dual certificate: %d bits per participant (W = %d → ⌈log₂(W+1)⌉ = %d)\n",
		cert.Size(), W, cert.Size())
	fmt.Printf("all participants verified their own neighbourhood: %s\n\n", res)

	// A worker suspects underpayment and swaps to a "better" job by
	// force — the local checks catch the now-suboptimal assignment.
	fmt.Println("attack: delete one matched pair (making the assignment suboptimal)…")
	tampered := in.Clone()
	e := in.MarkedEdges()[0] // sorted, so every run removes the same pair
	delete(tampered.EdgeLabel, e)
	fmt.Printf("  removed pair %d–%d (value %d)\n", e.U, e.V, values[e])
	if _, err := scheme.Prove(tampered); err != nil {
		fmt.Printf("  platform cannot certify it: %v\n", err)
	}
	res = check(tampered, cert, scheme.Verifier())
	fmt.Printf("  old certificate on tampered assignment: %s (alarms: %v)\n\n",
		res, res.Rejectors())

	// The platform cannot cheat with inflated duals either: tampered
	// certificates break tightness somewhere.
	fmt.Println("attack: platform inflates a dual value to hide a bad assignment…")
	forged := core.FlipBit(cert, 5)
	res = check(in, forged, scheme.Verifier())
	fmt.Printf("  forged certificate: %s (alarms: %v)\n", res, res.Rejectors())
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
