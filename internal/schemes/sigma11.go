package schemes

import (
	"lcp/internal/bitstr"
	"lcp/internal/core"
	"lcp/internal/graph"
	"lcp/internal/logic"
)

// Sigma11 is the §7.5 scheme: every monadic Σ¹₁ property (in
// Schwentick–Barthelmann local normal form ∃X₁…∃X_k ∃x ∀y φ) of
// connected graphs admits O(log n) locally checkable proofs. The
// certificate is a spanning tree rooted at the witness x (O(log n) bits)
// plus each node's k relation-membership bits; every node evaluates φ on
// its radius-r view.
type Sigma11 struct {
	PropertyName string
	S            logic.Sentence
	// FindWitness supplies (witness, relations) for yes-instances. If
	// nil, Prove falls back to exhaustive search, feasible only for tiny
	// k·n.
	FindWitness func(in *core.Instance) (witness int, rel []map[int]bool, ok bool)
	// BruteForceLimit caps k·n for the exhaustive fallback (default 24).
	BruteForceLimit int
}

// Name implements core.Scheme.
func (s Sigma11) Name() string { return "sigma11-" + s.PropertyName }

// Verifier implements core.Scheme.
func (s Sigma11) Verifier() core.Verifier {
	r := s.S.Radius()
	if r < 1 {
		r = 1 // the tree certificate needs radius 1
	}
	k := s.S.K
	return core.VerifierFunc{R: r, F: func(w *core.View) bool {
		l, ok := checkTreeLabel(w, treeOpts{trailing: true})
		if !ok {
			return false
		}
		// Decode relation bits of every node in the view.
		rel := make([]map[int]bool, k)
		for i := range rel {
			rel[i] = map[int]bool{}
		}
		for _, v := range w.Nodes() {
			lv, rv, okV := labelOf(w, v)
			if !okV || lv.Root != l.Root {
				return false
			}
			for i := 0; i < k; i++ {
				if rv.ReadBit() {
					rel[i][v] = true
				}
			}
			if rv.Err() || !rv.AtEnd() {
				return false
			}
		}
		m := &logic.Model{View: w, Rel: rel, Witness: l.Root}
		return s.S.EvalAt(m)
	}}
}

// Prove implements core.Scheme.
func (s Sigma11) Prove(in *core.Instance) (core.Proof, error) {
	witness, rel, ok := s.witnessFor(in)
	if !ok {
		return nil, core.ErrNotInProperty
	}
	return buildTreeProof(in, witness, false, nil, false, nil, func(v int, w *bitstr.Writer) {
		for i := 0; i < s.S.K; i++ {
			w.WriteBit(rel[i][v])
		}
	}), nil
}

func (s Sigma11) witnessFor(in *core.Instance) (int, []map[int]bool, bool) {
	if s.FindWitness != nil {
		return s.FindWitness(in)
	}
	limit := s.BruteForceLimit
	if limit == 0 {
		limit = 24
	}
	n := in.G.N()
	if s.S.K*n > limit {
		return 0, nil, false
	}
	nodes := in.G.Nodes()
	total := uint64(1) << uint(s.S.K*n)
	for mask := uint64(0); mask < total; mask++ {
		rel := make([]map[int]bool, s.S.K)
		bit := 0
		for i := range rel {
			rel[i] = map[int]bool{}
			for _, v := range nodes {
				if mask>>uint(bit)&1 == 1 {
					rel[i][v] = true
				}
				bit++
			}
		}
		for _, witness := range nodes {
			if s.holdsEverywhere(in, witness, rel) {
				return witness, rel, true
			}
		}
	}
	return 0, nil, false
}

// holdsEverywhere checks ∀y φ with the given witness and relations, using
// full radius-r views (the prover is centralized, so it can afford this).
func (s Sigma11) holdsEverywhere(in *core.Instance, witness int, rel []map[int]bool) bool {
	r := s.S.Radius()
	for _, y := range in.G.Nodes() {
		w := core.BuildView(in, core.Proof{}, y, r)
		m := &logic.Model{View: w, Rel: rel, Witness: witness}
		if !s.S.EvalAt(m) {
			return false
		}
	}
	return true
}

var _ core.Scheme = Sigma11{}

// ThreeColorableSigma11 expresses 3-colourability as a monadic Σ¹₁
// sentence: ∃X₀∃X₁∃X₂ ∀y (y in exactly one class ∧ no neighbour shares
// y's class). The FindWitness prover reuses the exact colouring solver.
func ThreeColorableSigma11(solve func(g *graph.Graph) map[int]int) Sigma11 {
	exactlyOne := logic.Or(
		logic.And(logic.X(0, logic.Y), logic.Not(logic.X(1, logic.Y)), logic.Not(logic.X(2, logic.Y))),
		logic.And(logic.Not(logic.X(0, logic.Y)), logic.X(1, logic.Y), logic.Not(logic.X(2, logic.Y))),
		logic.And(logic.Not(logic.X(0, logic.Y)), logic.Not(logic.X(1, logic.Y)), logic.X(2, logic.Y)),
	)
	properEdge := logic.ForallNear("z", 1, logic.Implies(
		logic.Adj(logic.Y, "z"),
		logic.And(
			logic.Not(logic.And(logic.X(0, logic.Y), logic.X(0, "z"))),
			logic.Not(logic.And(logic.X(1, logic.Y), logic.X(1, "z"))),
			logic.Not(logic.And(logic.X(2, logic.Y), logic.X(2, "z"))),
		),
	))
	return Sigma11{
		PropertyName: "3-colorable",
		S:            logic.Sentence{K: 3, Phi: logic.And(exactlyOne, properEdge)},
		FindWitness: func(in *core.Instance) (int, []map[int]bool, bool) {
			col := solve(in.G)
			if col == nil {
				return 0, nil, false
			}
			rel := []map[int]bool{{}, {}, {}}
			for v, c := range col {
				rel[c][v] = true
			}
			return in.G.Nodes()[0], rel, true
		},
	}
}

// DominatingWitnessSigma11 expresses "G has a node adjacent to every
// other node within distance 1" (radius ≤ 1): ∃x ∀y dist(y, x) ≤ 1.
func DominatingWitnessSigma11() Sigma11 {
	return Sigma11{
		PropertyName: "radius-1-witness",
		S:            logic.Sentence{K: 0, Phi: logic.WitnessWithin(1)},
		FindWitness: func(in *core.Instance) (int, []map[int]bool, bool) {
			for _, v := range in.G.Nodes() {
				if in.G.Degree(v) == in.G.N()-1 {
					return v, nil, true
				}
			}
			return 0, nil, false
		},
	}
}

// IndependentSetOfTrianglesSigma11 expresses "the nodes marked X₀ form a
// non-empty independent set containing the witness": a small synthetic
// property exercising both relations and the witness machinery.
func IndependentSetOfTrianglesSigma11() Sigma11 {
	phi := logic.And(
		// If y is in X₀, none of its neighbours is.
		logic.Implies(logic.X(0, logic.Y),
			logic.ForallNear("z", 1, logic.Implies(logic.Adj(logic.Y, "z"), logic.Not(logic.X(0, "z"))))),
		// The witness is in X₀ (evaluated where y = x).
		logic.Implies(logic.Witness(logic.Y), logic.X(0, logic.Y)),
	)
	return Sigma11{
		PropertyName: "nonempty-independent-set",
		S:            logic.Sentence{K: 1, Phi: phi},
		FindWitness: func(in *core.Instance) (int, []map[int]bool, bool) {
			if in.G.N() == 0 {
				return 0, nil, false
			}
			// Any single node is an independent set.
			v := in.G.Nodes()[0]
			return v, []map[int]bool{{v: true}}, true
		},
	}
}
