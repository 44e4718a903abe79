package schemes

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"lcp/internal/core"
	"lcp/internal/dist"
	"lcp/internal/graph"
)

// schemeCase drives the generic conformance harness. Every scheme in the
// package gets: completeness on yes-instances, prover refusal and
// random-proof soundness on no-instances, identifier-relabeling
// invariance, advertised size bounds, and sequential ≡ distributed
// verdicts.
type schemeCase struct {
	name   string
	scheme core.Scheme
	yes    []*core.Instance
	no     []*core.Instance
	// maxBits bounds the proof size on yes-instances; nil = no bound
	// asserted.
	maxBits func(in *core.Instance) int
	// skipRelabel disables the invariance check for schemes whose proofs
	// embed identifiers in ways the generic relabeler cannot rewrite
	// (the proof must be regenerated instead — still checked, just via
	// fresh Prove on the relabelled instance).
	skipRelabelProofReuse bool
}

func runSchemeCase(t *testing.T, c schemeCase) {
	t.Helper()
	v := c.scheme.Verifier()
	for i, in := range c.yes {
		p, res, err := core.ProveAndCheck(in, c.scheme)
		if err != nil {
			t.Fatalf("%s yes[%d]: %v", c.name, i, err)
		}
		_ = res
		if c.maxBits != nil {
			if got, want := p.Size(), c.maxBits(in); got > want {
				t.Errorf("%s yes[%d]: proof size %d bits > bound %d", c.name, i, got, want)
			}
		}
		// Distributed run agrees.
		dres, err := dist.CheckWithCtx(context.Background(), in, p, v, dist.Options{})
		if err != nil {
			t.Fatalf("%s yes[%d]: dist: %v", c.name, i, err)
		}
		if !dres.Accepted() {
			t.Errorf("%s yes[%d]: distributed verifier rejected at %v", c.name, i, dres.Rejectors())
		}
		// Relabeling invariance: fresh identifiers, regenerated or
		// relabelled proof must be accepted.
		m := relabelMap(in.G, int64(i)+1)
		in2 := in.Relabel(m)
		if c.skipRelabelProofReuse {
			p2, err := c.scheme.Prove(in2)
			if err != nil {
				t.Fatalf("%s yes[%d]: prove after relabel: %v", c.name, i, err)
			}
			if !core.Check(in2, p2, v).Accepted() {
				t.Errorf("%s yes[%d]: rejected after relabel+reprove", c.name, i)
			}
		} else {
			if !core.Check(in2, p.Relabel(m), v).Accepted() {
				t.Errorf("%s yes[%d]: rejected after relabel", c.name, i)
			}
		}
	}
	for i, in := range c.no {
		if _, err := c.scheme.Prove(in); err == nil {
			t.Errorf("%s no[%d]: prover produced a proof for a no-instance", c.name, i)
		} else if !errors.Is(err, core.ErrNotInProperty) {
			// Provers may also fail for malformed instances; surface
			// unexpected errors to keep the table honest.
			t.Logf("%s no[%d]: prover error (not ErrNotInProperty): %v", c.name, i, err)
		}
		// Adversarial proofs must be rejected. Empty, small random, and
		// larger random proofs.
		for _, bits := range []int{0, 1, 8, 32} {
			for seed := int64(0); seed < 3; seed++ {
				p := core.RandomProof(in, bits, seed*31+int64(bits))
				if core.Check(in, p, v).Accepted() {
					t.Errorf("%s no[%d]: accepted a random %d-bit proof (seed %d)", c.name, i, bits, seed)
				}
			}
		}
	}
}

// relabelMap gives fresh ids: v -> 2v + 5 shuffled within a bounded
// space, keeping determinism per seed.
func relabelMap(g *graph.Graph, seed int64) map[int]int {
	rng := rand.New(rand.NewSource(seed))
	n := g.N()
	space := 3*g.MaxID() + 7
	perm := rng.Perm(space)
	m := make(map[int]int, n)
	for i, v := range g.Nodes() {
		m[v] = perm[i] + 1
	}
	return m
}

// --- Instance builders ---

func stInstance(g *graph.Graph, s, t int) *core.Instance {
	return core.NewInstance(g).SetNodeLabel(s, core.LabelS).SetNodeLabel(t, core.LabelT)
}

func leaderInstance(g *graph.Graph, leaders ...int) *core.Instance {
	in := core.NewInstance(g)
	for _, l := range leaders {
		in.SetNodeLabel(l, core.LabelLeader)
	}
	return in
}

func markedInstance(g *graph.Graph, edges ...graph.Edge) *core.Instance {
	in := core.NewInstance(g)
	for _, e := range edges {
		in.MarkEdge(e.U, e.V)
	}
	return in
}

func withK(in *core.Instance, k int64) *core.Instance {
	if in.Global == nil {
		in.Global = core.Global{}
	}
	in.Global[GlobalK] = k
	return in
}

func log2ceil(n int) int {
	b := 0
	for v := n - 1; v > 0; v >>= 1 {
		b++
	}
	return b
}

// pathEdges marks consecutive edges of a node sequence.
func pathEdges(ids ...int) []graph.Edge {
	var es []graph.Edge
	for i := 1; i < len(ids); i++ {
		es = append(es, graph.NormEdge(ids[i-1], ids[i]))
	}
	return es
}

func TestSchemesSequentialEqualsDistributedOnVerdicts(t *testing.T) {
	// One paranoid cross-check on a scheme with a bigger radius: line
	// graph (radius 2) on mid-sized graphs, including rejected runs.
	lg := LineGraph{}
	v := lg.Verifier()
	for _, g := range []*graph.Graph{
		graph.LineGraphOf(graph.RandomTree(8, 3)),
		graph.Star(3), // claw: rejects
		graph.Cycle(11),
	} {
		in := core.NewInstance(g)
		seq := core.Check(in, core.Proof{}, v)
		dst, err := dist.CheckWithCtx(context.Background(), in, core.Proof{}, v, dist.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq.Outputs, dst.Outputs) {
			t.Errorf("%v: sequential and distributed verdicts differ", g)
		}
	}
}
