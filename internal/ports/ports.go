// Package ports implements the §7.1 model translation of Göös & Suomela
// (PODC 2011): the class LogLCP is the same whether the network has
// unique identifiers (model M1) or only a port numbering plus a
// distinguished leader (model M2).
//
// The M1→M2 direction is the interesting one, implemented here as a
// scheme transformer: given any M1 scheme, M2Wrap produces a scheme whose
// proof additionally carries a spanning tree rooted at the leader,
// encoded purely in terms of ports, plus DFS discovery/finishing times.
// The verifier checks that the (x(v), y(v)) intervals are locally
// consistent with a depth-first traversal — nesting and exact tiling of
// child intervals force the numbers to be globally distinct — and then
// simulates the M1 verifier on the virtual identifiers x(v)+1. No real
// node identifier is ever read: the wrapped verifier treats identifiers
// only through the port ordering, so its verdict is invariant under every
// order-preserving re-assignment of identifiers, proof included (a
// property the tests enforce, and which plain M1 schemes fail).
package ports

import (
	"fmt"
	"sort"

	"lcp/internal/bitstr"
	"lcp/internal/core"
	"lcp/internal/graph"
	"lcp/internal/graphalg"
)

// PortOf returns the port index (1-based) of neighbour u at node v: the
// rank of u among v's neighbours in ascending identifier order. This is
// the fixed port assignment our harness gives an M2 network; algorithms
// must treat it as opaque.
func PortOf(g *graph.Graph, v, u int) int {
	nbrs := g.Neighbors(v)
	i := sort.SearchInts(nbrs, u)
	if i >= len(nbrs) || nbrs[i] != u {
		panic(fmt.Sprintf("ports: %d is not a neighbour of %d", u, v))
	}
	return i + 1
}

// NeighborAtPort resolves port p (1-based) of node v.
func NeighborAtPort(g *graph.Graph, v, p int) (int, bool) {
	return atPort(g.Neighbors(v), p)
}

// atPort resolves port p (1-based) of a node whose ascending neighbour
// list is nbrs.
func atPort(nbrs []int, p int) (int, bool) {
	if p < 1 || p > len(nbrs) {
		return 0, false
	}
	return nbrs[p-1], true
}

// m2Label is the per-node §7.1 certificate: the spanning tree in port
// form plus the DFS interval.
type m2Label struct {
	IsRoot     bool
	ParentPort uint64 // port towards the parent (when not root)
	X, Y       uint64 // DFS discovery and finishing times
	Inner      bitstr.String
}

const m2WidthField = 6

func (l m2Label) encode() bitstr.String {
	var w bitstr.Writer
	w.WriteBit(l.IsRoot)
	pw := bitstr.WidthFor(l.ParentPort)
	w.WriteUint(uint64(pw), m2WidthField)
	w.WriteUint(l.ParentPort, pw)
	tw := bitstr.WidthFor(l.Y)
	w.WriteUint(uint64(tw), m2WidthField)
	w.WriteUint(l.X, tw)
	w.WriteUint(l.Y, tw)
	w.WriteUint(uint64(l.Inner.Len()), 32)
	w.WriteBitString(l.Inner)
	return w.String()
}

func decodeM2Label(s bitstr.String) (m2Label, bool) {
	r := bitstr.NewReader(s)
	var l m2Label
	l.IsRoot = r.ReadBit()
	pw := int(r.ReadUint(m2WidthField))
	l.ParentPort = r.ReadUint(pw)
	tw := int(r.ReadUint(m2WidthField))
	l.X = r.ReadUint(tw)
	l.Y = r.ReadUint(tw)
	innerLen := int(r.ReadUint(32))
	if r.Err() || innerLen < 0 || innerLen > r.Remaining() {
		return m2Label{}, false
	}
	var iw bitstr.Writer
	for i := 0; i < innerLen; i++ {
		iw.WriteBit(r.ReadBit())
	}
	l.Inner = iw.String()
	if r.Err() || !r.AtEnd() {
		return m2Label{}, false
	}
	return l, true
}

// M2Scheme wraps an M1 scheme for the port-numbering-plus-leader model.
// Instances must label exactly one node with core.LabelLeader (the M2
// promise).
type M2Scheme struct {
	Inner core.Scheme
	// PrepareVirtual lifts the real instance's auxiliary input onto the
	// virtual identifiers for the inner prover. If nil, node labels,
	// edge labels and weights are carried over unchanged (with edge keys
	// renamed). The leader label is removed unless KeepLeader is set.
	KeepLeader bool
}

// Name implements core.Scheme.
func (m M2Scheme) Name() string { return "m2-" + m.Inner.Name() }

// Verifier implements core.Scheme.
func (m M2Scheme) Verifier() core.Verifier {
	innerV := m.Inner.Verifier()
	r := innerV.Radius()
	if r < 2 {
		r = 2 // resolving a neighbour's parent port needs its full adjacency
	}
	return core.VerifierFunc{R: r, F: func(w *core.View) bool {
		me := w.Center
		l, ok := decodeM2Label(w.ProofOf(me))
		if !ok {
			return false
		}
		// Root iff leader (the M2 promise supplies exactly one leader).
		if l.IsRoot != (w.Label(me) == core.LabelLeader) {
			return false
		}
		if l.IsRoot && l.X != 0 {
			return false
		}
		if l.Y <= l.X {
			return false
		}
		// Resolve my parent and collect my children via ports: u is my
		// child iff u's parent port points back to me. A neighbour's
		// ports are its ascending neighbour list, fully visible because
		// the view radius is ≥ 2.
		var parent int
		if !l.IsRoot {
			p, ok := atPort(w.Neighbors(me), int(l.ParentPort))
			if !ok {
				return false
			}
			parent = p
			lp, okP := decodeM2Label(w.ProofOf(parent))
			if !okP {
				return false
			}
			// Nesting: parent's interval strictly contains mine.
			if !(lp.X < l.X && l.Y < lp.Y) {
				return false
			}
		}
		type childIv struct{ x, y uint64 }
		var children []childIv
		for _, u := range w.Neighbors(me) {
			lu, okU := decodeM2Label(w.ProofOf(u))
			if !okU {
				return false
			}
			if lu.IsRoot {
				continue
			}
			back, okB := atPort(w.Neighbors(u), int(lu.ParentPort))
			if !okB {
				return false
			}
			if back == me {
				children = append(children, childIv{lu.X, lu.Y})
			}
		}
		sort.Slice(children, func(i, j int) bool { return children[i].x < children[j].x })
		// Tiling: children intervals partition (X, Y) exactly.
		cursor := l.X
		for _, c := range children {
			if c.x != cursor+1 {
				return false
			}
			if c.y >= l.Y {
				return false
			}
			cursor = c.y
		}
		if cursor+1 != l.Y {
			return false
		}
		// Simulate the M1 verifier on the virtual identifiers x+1.
		vw, ok := virtualView(w, innerV.Radius(), m.KeepLeader)
		if !ok {
			return false
		}
		return innerV.Verify(vw)
	}}
}

// virtualView relabels the (sub-)view with virtual identifiers x(v)+1
// drawn from the proofs: the ball becomes a virtual instance, and the
// inner verifier's view is built over it with its inner proof parts.
func virtualView(w *core.View, radius int, keepLeader bool) (*core.View, bool) {
	sub := w.Restrict(radius, w.BallProof())
	nodes := sub.Nodes()
	m := make(map[int]int, len(nodes))
	inner := core.Proof{}
	for _, v := range nodes {
		lv, ok := decodeM2Label(sub.ProofOf(v))
		if !ok {
			return nil, false
		}
		vid := int(lv.X) + 1
		m[v] = vid
		inner[vid] = lv.Inner
	}
	// Virtual ids must be locally injective; global injectivity follows
	// from the interval discipline.
	seen := map[int]bool{}
	for _, vid := range m {
		if seen[vid] {
			return nil, false
		}
		seen[vid] = true
	}
	g := sub.Graph()
	vin := &core.Instance{G: g.Relabel(m), Global: sub.Global}
	for _, v := range nodes {
		lab := sub.Label(v)
		if lab == "" || (lab == core.LabelLeader && !keepLeader) {
			continue // the leader mark is an M2 artefact
		}
		vin.SetNodeLabel(m[v], lab)
	}
	for _, e := range g.Edges() {
		ve := graph.NormEdge(m[e.U], m[e.V])
		if lab := sub.EdgeLabel(e.U, e.V); lab != "" {
			if vin.EdgeLabel == nil {
				vin.EdgeLabel = map[graph.Edge]string{}
			}
			vin.EdgeLabel[ve] = lab
		}
		if wt := sub.Weight(e.U, e.V); wt != 0 {
			if vin.Weights == nil {
				vin.Weights = map[graph.Edge]int64{}
			}
			vin.Weights[ve] = wt
		}
	}
	return core.BuildView(vin, inner, m[sub.Center], radius), true
}

// Prove implements core.Scheme: construct the DFS tree from the leader,
// derive virtual identifiers, run the inner prover on the virtual
// instance, and bundle everything in port form.
func (m M2Scheme) Prove(in *core.Instance) (core.Proof, error) {
	leaders := in.FindLabel(core.LabelLeader)
	if len(leaders) != 1 {
		return nil, fmt.Errorf("lcp: M2 requires exactly one leader, got %d", len(leaders))
	}
	if !graphalg.Connected(in.G) {
		return nil, fmt.Errorf("%w: M2 translation requires a connected graph", core.ErrNotInProperty)
	}
	root := leaders[0]
	parent, _ := graphalg.SpanningTree(in.G, root)
	disc, fin := graphalg.DFSIntervals(in.G, root, parent)

	// Virtual instance on identifiers disc+1.
	vmap := make(map[int]int, in.G.N())
	for _, v := range in.G.Nodes() {
		vmap[v] = disc[v] + 1
	}
	vin := in.Relabel(vmap)
	if !m.KeepLeader {
		delete(vin.NodeLabel, vmap[root])
	}
	innerProof, err := m.Inner.Prove(vin)
	if err != nil {
		return nil, err
	}

	proof := make(core.Proof, in.G.N())
	for _, v := range in.G.Nodes() {
		l := m2Label{
			IsRoot: v == root,
			X:      uint64(disc[v]),
			Y:      uint64(fin[v]),
			Inner:  innerProof[vmap[v]],
		}
		if v != root {
			l.ParentPort = uint64(PortOf(in.G, v, parent[v]))
		}
		proof[v] = l.encode()
	}
	return proof, nil
}

var _ core.Scheme = M2Scheme{}

// OrderPreservingRelabel returns an identifier mapping that preserves
// relative order (v ↦ a·rank + b pattern), under which the port structure
// — and therefore any genuinely port-based proof — is unchanged. Tests
// use it to certify that M2 schemes never read real identifiers.
func OrderPreservingRelabel(g *graph.Graph, stride, offset int) map[int]int {
	if stride < 1 {
		panic("ports: stride must be positive")
	}
	m := make(map[int]int, g.N())
	for i, v := range g.Nodes() {
		m[v] = offset + (i+1)*stride
	}
	return m
}
