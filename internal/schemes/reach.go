package schemes

import (
	"fmt"

	"lcp/internal/bitstr"
	"lcp/internal/core"
	"lcp/internal/graphalg"
)

// Reachability schemes of §4.1. Instances carry exactly one node labelled
// core.LabelS and one labelled core.LabelT (the paper's promise).

// findST extracts the s and t nodes, enforcing the promise.
func findST(in *core.Instance) (s, t int, err error) {
	ss, ts := in.FindLabel(core.LabelS), in.FindLabel(core.LabelT)
	if len(ss) != 1 || len(ts) != 1 {
		return 0, 0, fmt.Errorf("lcp: instance must label exactly one s and one t (got %d, %d)", len(ss), len(ts))
	}
	return ss[0], ts[0], nil
}

// Reachability is the LCP(1) scheme for undirected s–t reachability
// (§4.1): the proof marks the nodes of one shortest s–t path with a
// single bit; the verifier checks that s and t are marked with exactly
// one marked neighbour each, and that every other marked node has exactly
// two marked neighbours. Marked components are then paths or cycles, and
// the component containing s must be a path ending at t.
type Reachability struct{}

// Name implements core.Scheme.
func (Reachability) Name() string { return "st-reachability" }

// Verifier implements core.Scheme.
func (Reachability) Verifier() core.Verifier {
	return core.VerifierFunc{R: 1, F: func(w *core.View) bool {
		me := w.Center
		marked := func(v int) bool {
			p := w.ProofOf(v)
			return p.Len() == 1 && p.Bit(0)
		}
		wellFormed := func(v int) bool { return w.ProofOf(v).Len() == 1 }
		if !wellFormed(me) {
			return false
		}
		markedNbrs := 0
		for _, u := range w.Neighbors(me) {
			if !wellFormed(u) {
				return false
			}
			if marked(u) {
				markedNbrs++
			}
		}
		switch w.Label(me) {
		case core.LabelS, core.LabelT:
			// (i) s, t ∈ U; (ii) unique marked neighbour.
			return marked(me) && markedNbrs == 1
		default:
			if !marked(me) {
				return true
			}
			// (iii) interior path nodes have exactly two marked
			// neighbours.
			return markedNbrs == 2
		}
	}}
}

// Prove implements core.Scheme.
func (Reachability) Prove(in *core.Instance) (core.Proof, error) {
	s, t, err := findST(in)
	if err != nil {
		return nil, err
	}
	// Shortest path via BFS parents.
	parent, _, _ := spanningTreeOf(in, s)
	if _, ok := parent[t]; !ok {
		return nil, core.ErrNotInProperty
	}
	onPath := map[int]bool{}
	for v := t; ; v = parent[v] {
		onPath[v] = true
		if v == s {
			break
		}
	}
	p := make(core.Proof, in.G.N())
	for _, v := range in.G.Nodes() {
		p[v] = bitstr.FromBools(onPath[v])
	}
	return p, nil
}

var _ core.Scheme = Reachability{}

// Unreachability is the LCP(1) scheme for s–t unreachability (§4.1),
// valid on both undirected and directed graphs: the proof marks the set S
// of nodes reachable from s; the verifier checks s ∈ S, t ∉ S, and that
// no (directed) edge leaves S.
type Unreachability struct{}

// Name implements core.Scheme.
func (Unreachability) Name() string { return "st-unreachability" }

// Verifier implements core.Scheme.
func (Unreachability) Verifier() core.Verifier {
	return core.VerifierFunc{R: 1, F: func(w *core.View) bool {
		me := w.Center
		inS := func(v int) bool {
			p := w.ProofOf(v)
			return p.Len() == 1 && p.Bit(0)
		}
		if w.ProofOf(me).Len() != 1 {
			return false
		}
		if w.Label(me) == core.LabelS && !inS(me) {
			return false
		}
		if w.Label(me) == core.LabelT && inS(me) {
			return false
		}
		if inS(me) {
			// No edge from S may leave S. For undirected graphs all
			// incident edges count; for directed graphs only out-edges.
			for _, u := range w.Neighbors(me) {
				if w.ProofOf(u).Len() != 1 {
					return false
				}
				if !inS(u) {
					return false
				}
			}
		}
		return true
	}}
}

// Prove implements core.Scheme.
func (Unreachability) Prove(in *core.Instance) (core.Proof, error) {
	s, t, err := findST(in)
	if err != nil {
		return nil, err
	}
	reach := graphalg.BFS(in.G, s) // follows out-edges in directed graphs
	if _, reached := reach[t]; reached {
		return nil, core.ErrNotInProperty
	}
	p := make(core.Proof, in.G.N())
	for _, v := range in.G.Nodes() {
		_, inS := reach[v]
		p[v] = bitstr.FromBools(inS)
	}
	return p, nil
}

var _ core.Scheme = Unreachability{}
