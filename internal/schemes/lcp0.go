package schemes

import (
	"fmt"

	"lcp/internal/core"
	"lcp/internal/graphalg"
)

// LCP(0) schemes — properties and problems verifiable with the empty
// proof (Table 1a rows "Eulerian", "line graph"; Table 1b rows "maximal
// matching", "LCL problems", "LD problems").

// emptyProver returns ε for yes-instances and ErrNotInProperty otherwise.
func emptyProver(in *core.Instance, holds bool) (core.Proof, error) {
	if !holds {
		return nil, core.ErrNotInProperty
	}
	return core.Proof{}, nil
}

// Eulerian is the LCP(0) scheme for "G is Eulerian" on connected graphs
// (§1.1): each node accepts iff its degree is even.
type Eulerian struct{}

// Name implements core.Scheme.
func (Eulerian) Name() string { return "eulerian" }

// Verifier implements core.Scheme; radius 1 (a node sees its incident
// edges).
func (Eulerian) Verifier() core.Verifier {
	return core.VerifierFunc{R: 1, F: func(w *core.View) bool {
		return w.Degree(w.Center)%2 == 0
	}}
}

// Prove implements core.Scheme.
func (Eulerian) Prove(in *core.Instance) (core.Proof, error) {
	return emptyProver(in, graphalg.IsEulerian(in.G))
}

var _ core.Scheme = Eulerian{}

// LineGraph is the LCP(0) scheme for "G is a line graph" (§1.1): by
// Beineke's characterisation, G is a line graph iff it has none of nine
// forbidden induced subgraphs, each on ≤ 6 vertices and of radius ≤ 2.
// So a radius-2 verifier that checks every connected ≤6-vertex induced
// subgraph of its ball through itself finds each copy at its centre.
type LineGraph struct{}

// Name implements core.Scheme.
func (LineGraph) Name() string { return "line-graph" }

// Verifier implements core.Scheme, at radius graphalg.LineGraphRadius.
func (LineGraph) Verifier() core.Verifier {
	return core.VerifierFunc{R: graphalg.LineGraphRadius, F: func(w *core.View) bool {
		return graphalg.LineGraphLocalCheck(w.Graph(), w.Center)
	}}
}

// Prove implements core.Scheme.
func (LineGraph) Prove(in *core.Instance) (core.Proof, error) {
	return emptyProver(in, graphalg.IsLineGraph(in.G))
}

var _ core.Scheme = LineGraph{}

// MaximalMatching is the LCP(0) scheme for verifying that the marked
// edges form a maximal matching (§2.3): a node checks that it has at most
// one marked incident edge, and that if it is unmatched, every neighbour
// is matched. The radius is 2: deciding whether a neighbour u is matched
// requires u's incident edges, whose far endpoints sit at distance 2.
type MaximalMatching struct{}

// Name implements core.Scheme.
func (MaximalMatching) Name() string { return "maximal-matching" }

// Verifier implements core.Scheme.
func (MaximalMatching) Verifier() core.Verifier {
	return core.VerifierFunc{R: 2, F: func(w *core.View) bool {
		me := w.Center
		if countMarked(w, me) > 1 {
			return false
		}
		if countMarked(w, me) == 1 {
			return true
		}
		// Unmatched: every neighbour must be matched (maximality), and
		// each neighbour's incident edges are fully visible at radius 2.
		for _, u := range w.Neighbors(me) {
			if countMarked(w, u) == 0 {
				return false
			}
			if countMarked(w, u) > 1 {
				return false
			}
		}
		return true
	}}
}

func countMarked(w *core.View, v int) int {
	c := 0
	for _, u := range w.Neighbors(v) {
		if w.EdgeMarked(v, u) {
			c++
		}
	}
	return c
}

// Prove implements core.Scheme.
func (MaximalMatching) Prove(in *core.Instance) (core.Proof, error) {
	m := markedMatching(in)
	return emptyProver(in, graphalg.IsMaximalMatching(in.G, m))
}

func markedMatching(in *core.Instance) graphalg.Matching {
	m := make(graphalg.Matching)
	for _, e := range in.MarkedEdges() {
		m[e] = true
	}
	return m
}

var _ core.Scheme = MaximalMatching{}

// LCL wraps an arbitrary locally checkable labelling problem (Naor &
// Stockmeyer; §3 of the paper: "if we generalise the class LCL ... we
// arrive at the class LCP(0)"). The labels live in the instance's input
// (NodeLabel / EdgeLabel); Check is the local constraint.
type LCL struct {
	ProblemName string
	R           int
	Check       func(*core.View) bool
}

// Name implements core.Scheme.
func (l LCL) Name() string { return "lcl-" + l.ProblemName }

// Verifier implements core.Scheme.
func (l LCL) Verifier() core.Verifier {
	return core.VerifierFunc{R: l.R, F: l.Check}
}

// Prove implements core.Scheme: the empty proof iff the labelling is
// locally valid everywhere.
func (l LCL) Prove(in *core.Instance) (core.Proof, error) {
	res := core.Check(in, core.Proof{}, l.Verifier())
	if !res.Accepted() {
		return nil, fmt.Errorf("%w: LCL %q violated at %v", core.ErrNotInProperty, l.ProblemName, res.Rejectors())
	}
	return core.Proof{}, nil
}

var _ core.Scheme = LCL{}

// NodeInSet reports whether v carries the set-membership label "1" used
// by the LCL examples below.
const setLabel = "1"

// MISLCL returns the LCL scheme verifying that the nodes labelled "1"
// form a maximal independent set: no two adjacent, every unlabelled node
// has a labelled neighbour.
func MISLCL() LCL {
	return LCL{
		ProblemName: "mis",
		R:           1,
		Check: func(w *core.View) bool {
			me := w.Center
			inSet := w.Label(me) == setLabel
			if inSet {
				for _, u := range w.Neighbors(me) {
					if w.Label(u) == setLabel {
						return false // not independent
					}
				}
				return true
			}
			for _, u := range w.Neighbors(me) {
				if w.Label(u) == setLabel {
					return true // dominated
				}
			}
			return false // not dominated (incl. isolated unlabelled nodes): not maximal
		},
	}
}

// ColoringLCL returns the LCL scheme verifying that node labels form a
// proper colouring (labels are arbitrary strings; adjacent nodes must
// differ and every node must be labelled).
func ColoringLCL() LCL {
	return LCL{
		ProblemName: "coloring",
		R:           1,
		Check: func(w *core.View) bool {
			me := w.Center
			if w.Label(me) == "" {
				return false
			}
			for _, u := range w.Neighbors(me) {
				if w.Label(u) == w.Label(me) {
					return false
				}
			}
			return true
		},
	}
}
