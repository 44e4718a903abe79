package schemes

import (
	"fmt"

	"lcp/internal/bitstr"
	"lcp/internal/core"
	"lcp/internal/graphalg"
)

// Hamiltonian cycle schemes (§5.1: "Hamiltonian cycles and Hamiltonian
// paths can be verified by using the same technique" — a Hamiltonian
// path is a spanning tree). The certificate assigns every node its
// position along the cycle, with the root (position 0) pinned by its
// identifier. Position chains force a single cycle through all nodes:
// positions strictly increase along successors, only the unique root may
// carry 0, and the wrap-around edge returns to the root, so every node
// that accepts is on the root's chain.
//
// HamiltonianCycleCheck verifies a solution given as marked edges
// (Table 1b row "Hamiltonian cycle", Θ(log n)); HamiltonianProperty is
// the weak scheme for the pure property "G is Hamiltonian", embedding
// the chosen cycle's neighbour identifiers in the proof.

// hamLabel is the per-node certificate.
type hamLabel struct {
	Root int
	Pos  uint64
	// Property variant only: explicit cycle neighbours.
	Pred, Succ int
	HasPtrs    bool
}

func (l hamLabel) encode() bitstr.String {
	var w bitstr.Writer
	idW := bitstr.WidthFor(uint64(maxInt(l.Root, maxInt(l.Pred, l.Succ))))
	w.WriteUint(uint64(idW), widthField)
	w.WriteUint(uint64(l.Root), idW)
	posW := bitstr.WidthFor(l.Pos)
	w.WriteUint(uint64(posW), widthField)
	w.WriteUint(l.Pos, posW)
	w.WriteBit(l.HasPtrs)
	if l.HasPtrs {
		w.WriteUint(uint64(l.Pred), idW)
		w.WriteUint(uint64(l.Succ), idW)
	}
	return w.String()
}

func decodeHamLabel(s bitstr.String) (hamLabel, bool) {
	r := bitstr.NewReader(s)
	var l hamLabel
	idW := int(r.ReadUint(widthField))
	l.Root = int(r.ReadUint(idW))
	posW := int(r.ReadUint(widthField))
	l.Pos = r.ReadUint(posW)
	l.HasPtrs = r.ReadBit()
	if l.HasPtrs {
		l.Pred = int(r.ReadUint(idW))
		l.Succ = int(r.ReadUint(idW))
	}
	if r.Err() || !r.AtEnd() || l.Root <= 0 {
		return hamLabel{}, false
	}
	return l, true
}

// HamiltonianCycleCheck verifies that the marked edges form a Hamiltonian
// cycle.
type HamiltonianCycleCheck struct{}

// Name implements core.Scheme.
func (HamiltonianCycleCheck) Name() string { return "hamiltonian-cycle" }

// Verifier implements core.Scheme.
func (HamiltonianCycleCheck) Verifier() core.Verifier {
	return core.VerifierFunc{R: 1, F: func(w *core.View) bool {
		me := w.Center
		l, ok := decodeHamLabel(w.ProofOf(me))
		if !ok || l.HasPtrs {
			return false
		}
		// Root agreement with every neighbour — not only marked ones.
		// Connectivity (family promise) then forces a single global
		// root, so two disjoint marked cycles cannot certify themselves
		// separately.
		var marked []int
		for _, u := range w.Neighbors(me) {
			lu, okU := decodeHamLabel(w.ProofOf(u))
			if !okU || lu.Root != l.Root || lu.HasPtrs {
				return false
			}
			if w.EdgeMarked(me, u) {
				marked = append(marked, u)
			}
		}
		if len(marked) != 2 {
			return false
		}
		var labels [2]hamLabel
		for i, u := range marked {
			labels[i], _ = decodeHamLabel(w.ProofOf(u))
		}
		return checkHamPositions(me, l, marked, labels)
	}}
}

// checkHamPositions implements the position rules shared by both
// variants: me at position p with cycle neighbours a, b.
func checkHamPositions(me int, l hamLabel, nbrs []int, labels [2]hamLabel) bool {
	p := l.Pos
	pa, pb := labels[0].Pos, labels[1].Pos
	if p == 0 {
		// Root: identifier must equal the claimed root; neighbours at
		// positions 1 and ≥ 2 (the final node).
		if me != l.Root {
			return false
		}
		return (pa == 1 && pb >= 2) || (pb == 1 && pa >= 2)
	}
	if nbrs[0] == nbrs[1] {
		return false
	}
	// Interior: one neighbour at p−1; the other at p+1, or the root
	// (position 0, with p ≥ 2) closing the cycle.
	closes := func(nb int, pn uint64) bool {
		return pn == p+1 || (pn == 0 && nb == l.Root && p >= 2)
	}
	if pa == p-1 && closes(nbrs[1], pb) {
		return true
	}
	if pb == p-1 && closes(nbrs[0], pa) {
		return true
	}
	return false
}

// Prove implements core.Scheme.
func (HamiltonianCycleCheck) Prove(in *core.Instance) (core.Proof, error) {
	edges := make(map[int][]int) // marked adjacency
	for _, e := range in.MarkedEdges() {
		edges[e.U] = append(edges[e.U], e.V)
		edges[e.V] = append(edges[e.V], e.U)
	}
	n := in.G.N()
	for _, v := range in.G.Nodes() {
		if len(edges[v]) != 2 {
			return nil, core.ErrNotInProperty
		}
	}
	// Walk the marked cycle from the smallest node.
	root := in.G.Nodes()[0]
	order := []int{root}
	prev, cur := root, edges[root][0]
	for cur != root {
		order = append(order, cur)
		next := edges[cur][0]
		if next == prev {
			next = edges[cur][1]
		}
		prev, cur = cur, next
		if len(order) > n {
			return nil, core.ErrNotInProperty
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("%w: marked edges form %d-cycle ≠ n=%d", core.ErrNotInProperty, len(order), n)
	}
	p := make(core.Proof, n)
	for i, v := range order {
		p[v] = hamLabel{Root: root, Pos: uint64(i)}.encode()
	}
	return p, nil
}

var _ core.Scheme = HamiltonianCycleCheck{}

// HamiltonianProperty is the weak scheme for the pure property "G has a
// Hamiltonian cycle": the prover finds a cycle (exponential search — the
// prover may be all-powerful) and writes each node's two cycle
// neighbours into its label.
type HamiltonianProperty struct{}

// Name implements core.Scheme.
func (HamiltonianProperty) Name() string { return "hamiltonian-property" }

// Verifier implements core.Scheme.
func (HamiltonianProperty) Verifier() core.Verifier {
	return core.VerifierFunc{R: 1, F: func(w *core.View) bool {
		me := w.Center
		l, ok := decodeHamLabel(w.ProofOf(me))
		if !ok || !l.HasPtrs {
			return false
		}
		// Root agreement with every neighbour (see the marked variant).
		for _, u := range w.Neighbors(me) {
			lu, okU := decodeHamLabel(w.ProofOf(u))
			if !okU || lu.Root != l.Root || !lu.HasPtrs {
				return false
			}
		}
		// Claimed cycle neighbours must be real, distinct neighbours.
		if l.Pred == l.Succ || !w.HasEdge(me, l.Pred) || !w.HasEdge(me, l.Succ) {
			return false
		}
		lp, _ := decodeHamLabel(w.ProofOf(l.Pred))
		ls, _ := decodeHamLabel(w.ProofOf(l.Succ))
		// Pointer symmetry: pred's succ is me, succ's pred is me.
		if lp.Succ != me || ls.Pred != me {
			return false
		}
		return checkHamPositions(me, l, []int{l.Pred, l.Succ}, [2]hamLabel{lp, ls})
	}}
}

// Prove implements core.Scheme.
func (HamiltonianProperty) Prove(in *core.Instance) (core.Proof, error) {
	cyc := graphalg.HamiltonianCycle(in.G)
	if cyc == nil {
		return nil, core.ErrNotInProperty
	}
	n := len(cyc)
	root := cyc[0]
	p := make(core.Proof, n)
	for i, v := range cyc {
		p[v] = hamLabel{
			Root:    root,
			Pos:     uint64(i),
			Pred:    cyc[(i+n-1)%n],
			Succ:    cyc[(i+1)%n],
			HasPtrs: true,
		}.encode()
	}
	return p, nil
}

var _ core.Scheme = HamiltonianProperty{}
