package core

import (
	"strings"
	"testing"

	"lcp/internal/bitstr"
	"lcp/internal/graph"
)

func TestViewRestrictMatchesDirectBuild(t *testing.T) {
	g := graph.RandomConnected(20, 0.15, 9)
	in := NewInstance(g).SetNodeLabel(3, "x").MarkEdge(g.Edges()[0].U, g.Edges()[0].V)
	in.Weights = map[graph.Edge]int64{g.Edges()[1]: 5}
	p := RandomProof(in, 6, 4)
	for _, center := range []int{1, 7, 20} {
		big := BuildView(in, p, center, 3)
		for r := 0; r <= 3; r++ {
			sub := big.Restrict(r, p)
			direct := BuildView(in, p, center, r)
			if !graph.Equal(sub.Graph(), direct.Graph()) {
				t.Fatalf("center %d r=%d: restricted ball differs", center, r)
			}
			for _, v := range direct.Nodes() {
				if !sub.ProofOf(v).Equal(direct.ProofOf(v)) {
					t.Fatalf("center %d r=%d: proof of %d differs", center, r, v)
				}
				if sub.Label(v) != direct.Label(v) {
					t.Fatalf("center %d r=%d: label of %d differs", center, r, v)
				}
				if ds, _ := sub.Dist(v); ds != mustDist(t, direct, v) {
					t.Fatalf("center %d r=%d: dist of %d differs", center, r, v)
				}
			}
			for _, e := range direct.Graph().Edges() {
				if sub.EdgeMarked(e.U, e.V) != direct.EdgeMarked(e.U, e.V) {
					t.Fatalf("center %d r=%d: mark of %v differs", center, r, e)
				}
				if sub.Weight(e.U, e.V) != direct.Weight(e.U, e.V) {
					t.Fatalf("center %d r=%d: weight of %v differs", center, r, e)
				}
			}
		}
	}
}

func TestViewRestrictSubstitutesProof(t *testing.T) {
	in := NewInstance(graph.Path(5))
	p := RandomProof(in, 4, 1)
	big := BuildView(in, p, 3, 2)
	empty := big.Restrict(1, Proof{})
	for _, v := range empty.Nodes() {
		if empty.ProofOf(v).Len() != 0 {
			t.Fatalf("node %d kept proof bits after substitution", v)
		}
	}
}

func TestViewHelpers(t *testing.T) {
	in := NewInstance(graph.Cycle(5)).MarkEdge(1, 2)
	in.Weights = map[graph.Edge]int64{graph.NormEdge(2, 3): 7}
	w := BuildView(in, Proof{1: bitstr.Parse("01")}, 2, 1)
	if !w.EdgeMarked(2, 1) {
		t.Error("EdgeMarked direction sensitivity")
	}
	if w.Weight(3, 2) != 7 {
		t.Error("Weight direction sensitivity")
	}
	if w.Degree(2) != 2 {
		t.Errorf("Degree = %d", w.Degree(2))
	}
	if got := w.ProofOf(99); got.Len() != 0 {
		t.Error("unknown node proof not ε")
	}
	if !w.KnowsFully(2) || w.KnowsFully(1) {
		t.Error("KnowsFully wrong inside the ball")
	}
	if w.KnowsFully(4) || w.KnowsFully(99) {
		t.Error("KnowsFully true for a node outside the ball")
	}
	if _, ok := w.Dist(4); ok {
		t.Error("Dist reports a node outside the ball")
	}
}

func TestResultString(t *testing.T) {
	ok := &Result{Outputs: map[int]bool{1: true}}
	if !strings.Contains(ok.String(), "accepted") {
		t.Errorf("String = %q", ok.String())
	}
	bad := &Result{Outputs: map[int]bool{1: false, 2: true}}
	if !strings.Contains(bad.String(), "rejected by 1 of 2") {
		t.Errorf("String = %q", bad.String())
	}
}

func TestProofCloneIndependence(t *testing.T) {
	p := Proof{1: bitstr.Parse("101")}
	q := p.Clone()
	q[1] = bitstr.Parse("000")
	if !p[1].Equal(bitstr.Parse("101")) {
		t.Error("Clone shares storage")
	}
}

func TestInstanceCloneNilMaps(t *testing.T) {
	in := NewInstance(graph.Path(2))
	cp := in.Clone()
	if cp.NodeLabel != nil || cp.EdgeLabel != nil || cp.Weights != nil || cp.Global != nil {
		t.Error("Clone materialized nil maps")
	}
	in2 := NewInstance(graph.Path(2))
	in2.Global = Global{"k": 1}
	cp2 := in2.Clone()
	cp2.Global["k"] = 9
	if in2.Global["k"] != 1 {
		t.Error("Clone shares Global map")
	}
}

func TestFindValidProofReturnsAcceptedProof(t *testing.T) {
	// The search result, when non-nil, must itself verify.
	in := NewInstance(graph.Cycle(4))
	v := VerifierFunc{R: 1, F: func(w *View) bool {
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
	p := FindValidProof(in, v, 1)
	if p == nil {
		t.Fatal("no proof found")
	}
	if !Check(in, p, v).Accepted() {
		t.Fatal("returned proof does not verify")
	}
}

func TestMinProofSizeUnreachable(t *testing.T) {
	// A verifier that always rejects: MinProofSize reports -1.
	in := NewInstance(graph.Path(2))
	never := VerifierFunc{R: 0, F: func(*View) bool { return false }}
	if got := MinProofSize(in, never, 2); got != -1 {
		t.Errorf("MinProofSize = %d, want -1", got)
	}
}

func TestFlipBitOnEmptyProof(t *testing.T) {
	p := Proof{1: bitstr.Empty, 2: bitstr.Empty}
	q := FlipBit(p, 3)
	for v := range p {
		if !q[v].Equal(p[v]) {
			t.Error("FlipBit invented bits on empty labels")
		}
	}
}

func TestBuildViewRadiusZero(t *testing.T) {
	in := NewInstance(graph.Cycle(5)).SetNodeLabel(2, "z")
	w := BuildView(in, Proof{2: bitstr.Parse("1")}, 2, 0)
	if g := w.Graph(); g.N() != 1 || g.M() != 0 {
		t.Errorf("radius-0 view: %v", g)
	}
	if w.Label(2) != "z" || w.ProofOf(2).Len() != 1 {
		t.Error("radius-0 view lost center data")
	}
}

// mustDist is the distance of a ball member, failing t for a non-member.
func mustDist(t *testing.T, w *View, v int) int {
	t.Helper()
	d, ok := w.Dist(v)
	if !ok {
		t.Fatalf("node %d is not in the view of %d", v, w.Center)
	}
	return d
}
