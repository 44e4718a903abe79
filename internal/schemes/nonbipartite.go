package schemes

import (
	"fmt"

	"lcp/internal/bitstr"
	"lcp/internal/core"
	"lcp/internal/graphalg"
)

// NonBipartite is the Θ(log n) scheme for "χ(G) > 2" on connected graphs
// (§5.1): the certificate is a spanning tree rooted at a node a of an odd
// cycle, plus a position counter propagated around the cycle, "starting
// and ending at a", which convinces the root it lies on an odd closed
// walk. An odd closed walk exists iff the graph is non-bipartite.
//
// Per-node label: tree certificate ++ onCycle flag ++ (cycle length L,
// position pos, successor id). The verifier checks at each cycle node
// that the successor is a neighbour at position pos+1 (or the root when
// pos = L−1), and at the root that L is odd. Fake cycle marks elsewhere
// cannot close: positions strictly increase and only the unique root
// (identifier = tree root) may carry position 0.
type NonBipartite struct{}

// Name implements core.Scheme.
func (NonBipartite) Name() string { return "non-bipartite" }

type cycleFields struct {
	OnCycle bool
	Len     uint64
	Pos     uint64
	Succ    int
}

func appendCycleFields(w *bitstr.Writer, c cycleFields) {
	w.WriteBit(c.OnCycle)
	if !c.OnCycle {
		return
	}
	lw := bitstr.WidthFor(c.Len)
	w.WriteUint(uint64(lw), widthField)
	w.WriteUint(c.Len, lw)
	w.WriteUint(c.Pos, lw)
	sw := bitstr.WidthFor(uint64(c.Succ))
	w.WriteUint(uint64(sw), widthField)
	w.WriteUint(uint64(c.Succ), sw)
}

func readCycleFields(r *bitstr.Reader) (cycleFields, bool) {
	var c cycleFields
	c.OnCycle = r.ReadBit()
	if c.OnCycle {
		lw := int(r.ReadUint(widthField))
		c.Len = r.ReadUint(lw)
		c.Pos = r.ReadUint(lw)
		sw := int(r.ReadUint(widthField))
		c.Succ = int(r.ReadUint(sw))
	}
	if r.Err() || !r.AtEnd() {
		return cycleFields{}, false
	}
	return c, true
}

// Verifier implements core.Scheme.
func (NonBipartite) Verifier() core.Verifier {
	return core.VerifierFunc{R: 1, F: func(w *core.View) bool {
		me := w.Center
		l, ok := checkTreeLabel(w, treeOpts{trailing: true})
		if !ok {
			return false
		}
		_, r, _ := labelOf(w, me)
		c, ok := readCycleFields(&r)
		if !ok {
			return false
		}
		isRoot := l.Dist == 0
		if isRoot && !c.OnCycle {
			return false // the root must lie on the odd cycle
		}
		if !c.OnCycle {
			return true
		}
		if c.Pos >= c.Len || c.Len < 3 {
			return false
		}
		if (c.Pos == 0) != isRoot {
			return false // only the root is position 0
		}
		if isRoot && c.Len%2 == 0 {
			return false // the closed walk must be odd
		}
		// Successor checks.
		if !w.HasEdge(me, c.Succ) {
			return false
		}
		lu, ru, okU := labelOf(w, c.Succ)
		if !okU {
			return false
		}
		cu, okU := readCycleFields(&ru)
		if !okU || !cu.OnCycle || cu.Len != c.Len {
			return false
		}
		if c.Pos == c.Len-1 {
			// Wrap-around: successor is the root.
			return lu.Dist == 0 && cu.Pos == 0
		}
		return cu.Pos == c.Pos+1
	}}
}

// Prove implements core.Scheme.
func (NonBipartite) Prove(in *core.Instance) (core.Proof, error) {
	if !graphalg.Connected(in.G) {
		return nil, fmt.Errorf("%w: non-bipartite scheme requires a connected graph", core.ErrNotInProperty)
	}
	walk := graphalg.OddCycle(in.G)
	if walk == nil {
		return nil, core.ErrNotInProperty
	}
	// walk = v0 v1 ... v_{L-1} v0 with L odd.
	L := len(walk) - 1
	root := walk[0]
	pos := make(map[int]uint64, L)
	succ := make(map[int]int, L)
	for i := 0; i < L; i++ {
		pos[walk[i]] = uint64(i)
		succ[walk[i]] = walk[i+1]
	}
	return buildTreeProof(in, root, false, nil, false, nil, func(v int, w *bitstr.Writer) {
		p, on := pos[v]
		appendCycleFields(w, cycleFields{OnCycle: on, Len: uint64(L), Pos: p, Succ: succ[v]})
	}), nil
}

var _ core.Scheme = NonBipartite{}
