package core

import (
	"testing"

	"lcp/internal/bitstr"
	"lcp/internal/graph"
)

// evenDegreeVerifier is the Eulerian LCP(0) verifier: accept iff my degree
// is even. Radius 1 suffices to see incident edges.
var evenDegreeVerifier = VerifierFunc{R: 1, F: func(w *View) bool {
	return w.Degree(w.Center)%2 == 0
}}

// twoColorVerifier is the bipartiteness LCP(1) verifier.
var twoColorVerifier = VerifierFunc{R: 1, F: func(w *View) bool {
	my := w.ProofOf(w.Center)
	if my.Len() != 1 {
		return false
	}
	for _, u := range w.Neighbors(w.Center) {
		p := w.ProofOf(u)
		if p.Len() != 1 || p.Bit(0) == my.Bit(0) {
			return false
		}
	}
	return true
}}

func TestBuildViewBall(t *testing.T) {
	in := NewInstance(graph.Path(9))
	w := BuildView(in, nil, 5, 2)
	if len(w.Nodes()) != 5 {
		t.Fatalf("ball size %d, want 5", len(w.Nodes()))
	}
	if d3, _ := w.Dist(3); d3 != 2 {
		t.Errorf("dist(3) = %d, want 2", d3)
	}
	if d5, ok := w.Dist(5); d5 != 0 || !ok {
		t.Errorf("dist(5) = %d, %v, want 0, true", d5, ok)
	}
	if !w.KnowsFully(4) || w.KnowsFully(3) {
		t.Error("KnowsFully boundary wrong")
	}
}

func TestBuildViewIncludesBoundaryEdges(t *testing.T) {
	// In C4 with radius 1 from node 1, nodes 2 and 4 are both at distance
	// 1; the induced view contains no 2–4 edge (there is none), but in C3
	// radius 1 from node 1 includes edge 2–3.
	w := BuildView(NewInstance(graph.Cycle(3)), nil, 1, 1)
	if !w.HasEdge(2, 3) || !w.Graph().HasEdge(2, 3) {
		t.Error("induced boundary edge 2–3 missing")
	}
}

func TestCheckEulerianStyle(t *testing.T) {
	if res := Check(NewInstance(graph.Cycle(6)), nil, evenDegreeVerifier); !res.Accepted() {
		t.Errorf("cycle rejected: %s", res)
	}
	res := Check(NewInstance(graph.Path(4)), nil, evenDegreeVerifier)
	if res.Accepted() {
		t.Error("path accepted")
	}
	rej := res.Rejectors()
	if len(rej) != 2 || rej[0] != 1 || rej[1] != 4 {
		t.Errorf("rejectors = %v, want [1 4]", rej)
	}
}

func TestProofSizeAccounting(t *testing.T) {
	p := Proof{1: bitstr.Parse("101"), 2: bitstr.Parse(""), 3: bitstr.Parse("1")}
	if p.Size() != 3 {
		t.Errorf("Size = %d, want 3", p.Size())
	}
	if p.TotalBits() != 4 {
		t.Errorf("TotalBits = %d, want 4", p.TotalBits())
	}
	tr := p.Truncated(1)
	if tr.Size() != 1 {
		t.Errorf("truncated Size = %d", tr.Size())
	}
	if !p[1].Equal(bitstr.Parse("101")) {
		t.Error("Truncated mutated the original")
	}
}

func TestInstanceLabelsAndClone(t *testing.T) {
	in := NewInstance(graph.Path(3)).SetNodeLabel(1, LabelS).SetNodeLabel(3, LabelT).MarkEdge(2, 1)
	if got := in.FindLabel(LabelS); len(got) != 1 || got[0] != 1 {
		t.Errorf("FindLabel(s) = %v", got)
	}
	if es := in.MarkedEdges(); len(es) != 1 || es[0] != graph.NormEdge(1, 2) {
		t.Errorf("MarkedEdges = %v", es)
	}
	cp := in.Clone()
	cp.SetNodeLabel(2, "x")
	if _, ok := in.NodeLabel[2]; ok {
		t.Error("Clone shares NodeLabel map")
	}
}

func TestInstanceRelabel(t *testing.T) {
	in := NewInstance(graph.Path(3)).SetNodeLabel(1, LabelS).MarkEdge(1, 2)
	in.Weights = map[graph.Edge]int64{graph.NormEdge(2, 3): 7}
	m := map[int]int{1: 10, 2: 20, 3: 30}
	out := in.Relabel(m)
	if out.NodeLabel[10] != LabelS {
		t.Error("node label not relabelled")
	}
	if out.EdgeLabel[graph.NormEdge(10, 20)] != EdgeInSolution {
		t.Error("edge label not relabelled")
	}
	if out.Weights[graph.NormEdge(20, 30)] != 7 {
		t.Error("weight not relabelled")
	}
}

func TestProofRelabelAndVerdictInvariance(t *testing.T) {
	// Bipartiteness on C6: verdict must be invariant under relabeling.
	in := NewInstance(graph.Cycle(6))
	p := Proof{}
	for i := 1; i <= 6; i++ {
		p[i] = bitstr.FromUint(uint64(i%2), 1)
	}
	if !Check(in, p, twoColorVerifier).Accepted() {
		t.Fatal("2-colouring rejected")
	}
	m := map[int]int{1: 42, 2: 17, 3: 99, 4: 3, 5: 55, 6: 28}
	in2 := in.Relabel(m)
	p2 := p.Relabel(m)
	if !Check(in2, p2, twoColorVerifier).Accepted() {
		t.Error("relabelled 2-colouring rejected")
	}
}

func TestCheckOddCycleNoValidProof(t *testing.T) {
	in := NewInstance(graph.Cycle(5))
	// Exhaustive: no 1-bit proof 2-colours an odd cycle.
	sound, fooling := CertifySoundness(in, twoColorVerifier, 1)
	if !sound {
		t.Errorf("odd cycle fooled the 2-colouring verifier with %v", fooling)
	}
	// Even cycle: a valid proof exists and is found.
	even := NewInstance(graph.Cycle(4))
	if FindValidProof(even, twoColorVerifier, 1) == nil {
		t.Error("no proof found for even cycle")
	}
	if got := MinProofSize(even, twoColorVerifier, 2); got != 1 {
		t.Errorf("MinProofSize = %d, want 1", got)
	}
}

func TestRandomProofAndFlipBit(t *testing.T) {
	in := NewInstance(graph.Cycle(5))
	p := RandomProof(in, 8, 3)
	if p.Size() != 8 || len(p) != 5 {
		t.Fatalf("RandomProof shape wrong: size %d, nodes %d", p.Size(), len(p))
	}
	q := FlipBit(p, 7)
	diff := 0
	for v := range p {
		if !p[v].Equal(q[v]) {
			diff++
		}
	}
	if diff != 1 {
		t.Errorf("FlipBit changed %d labels, want 1", diff)
	}
}

func TestResultReporting(t *testing.T) {
	r := &Result{Outputs: map[int]bool{1: true, 2: false, 3: true}}
	if r.Accepted() {
		t.Error("rejecting result Accepted")
	}
	if got := r.Rejectors(); len(got) != 1 || got[0] != 2 {
		t.Errorf("Rejectors = %v", got)
	}
}

// failingScheme is a deliberately broken scheme for ProveAndCheck's
// completeness guard.
type failingScheme struct{}

func (failingScheme) Name() string { return "broken" }
func (failingScheme) Verifier() Verifier {
	return VerifierFunc{R: 0, F: func(*View) bool { return false }}
}
func (failingScheme) Prove(*Instance) (Proof, error) {
	return Proof{}, nil
}

func TestProveAndCheckFlagsCompletenessViolation(t *testing.T) {
	_, _, err := ProveAndCheck(NewInstance(graph.Path(2)), failingScheme{})
	if err == nil {
		t.Error("broken scheme passed ProveAndCheck")
	}
}

// TestFlipBitChoicePinned pins the (node, bit) FlipBit picks on three
// seeded proofs over scrambled identifiers, some nodes holding ε, so
// that the order FlipBit sorts its candidates in, and hence every
// seeded tampering in the repository, stays put.
func TestFlipBitChoicePinned(t *testing.T) {
	for _, tc := range []struct {
		seed      int64
		node, bit int
	}{
		{1, 447, 3},
		{2, 1107, 1},
		{3, 62, 9},
	} {
		in := NewInstance(graph.RandomPermutationIDs(graph.Cycle(300), tc.seed))
		p := RandomProof(in, 1+int(tc.seed)*5, tc.seed)
		for i, v := range in.G.Nodes() {
			if i%3 == 0 {
				p[v] = bitstr.Empty
			}
		}
		q := FlipBit(p, tc.seed)
		node, bit := -1, -1
		for v := range p {
			if p[v].Equal(q[v]) {
				continue
			}
			for i := 0; i < p[v].Len(); i++ {
				if p[v].Bit(i) != q[v].Bit(i) {
					node, bit = v, i
				}
			}
		}
		if node != tc.node || bit != tc.bit {
			t.Errorf("seed %d: FlipBit flipped bit %d of node %d, want bit %d of node %d", tc.seed, bit, node, tc.bit, tc.node)
		}
	}
}
