package schemes

import (
	"sort"

	"lcp/internal/bitstr"
	"lcp/internal/core"
	"lcp/internal/graphalg"
)

// DirectedReachability is the §4.1 remark made concrete: undirected path
// marking breaks in directed graphs because of back-edges, but "one can
// still give an easy upper bound of O(log Δ) by using edge pointers in
// the proof labelling to describe a path from s to t". (Whether directed
// s–t reachability is in LCP(O(1)) for general graphs is open; cf. Ajtai
// & Fagin.)
//
// Certificate per path node: a next-hop pointer, stored as the index of
// the successor in the node's own out-neighbour list — ⌈log₂ deg⁺(v)⌉
// bits, hence O(log Δ). Soundness comes from in-degree discipline: every
// marked node other than s has exactly one marked in-pointer, and s has
// none, so the marked pointer structure is a disjoint union of one
// s-path plus harmless cycles; the s-path cannot stop before t (every
// non-t marked node must point onward) and cannot enter a cycle (cycle
// nodes already have their one in-pointer).
type DirectedReachability struct{}

// Name implements core.Scheme.
func (DirectedReachability) Name() string { return "st-reachability-directed" }

type dirReachLabel struct {
	OnPath  bool
	HasNext bool
	NextIdx uint64 // index into the node's sorted out-neighbour list
}

func (l dirReachLabel) encode() bitstr.String {
	var w bitstr.Writer
	w.WriteBit(l.OnPath)
	if l.OnPath {
		w.WriteBit(l.HasNext)
		if l.HasNext {
			iw := bitstr.WidthFor(l.NextIdx)
			w.WriteUint(uint64(iw), widthField)
			w.WriteUint(l.NextIdx, iw)
		}
	}
	return w.String()
}

func decodeDirReachLabel(s bitstr.String) (dirReachLabel, bool) {
	r := bitstr.NewReader(s)
	var l dirReachLabel
	l.OnPath = r.ReadBit()
	if l.OnPath {
		l.HasNext = r.ReadBit()
		if l.HasNext {
			iw := int(r.ReadUint(widthField))
			l.NextIdx = r.ReadUint(iw)
		}
	}
	if r.Err() || !r.AtEnd() {
		return dirReachLabel{}, false
	}
	return l, true
}

// nextHopOf resolves a node's pointer inside a view (nil if invalid). The
// out-neighbour list must be fully visible, which holds for nodes at
// distance < radius.
func nextHopOf(w *core.View, v int, l dirReachLabel) (int, bool) {
	if !l.HasNext {
		return 0, false
	}
	outs := w.Neighbors(v)
	if int(l.NextIdx) >= len(outs) {
		return 0, false
	}
	return outs[int(l.NextIdx)], true
}

// Verifier implements core.Scheme. Radius 2: resolving an in-neighbour's
// pointer index needs that neighbour's full out-list.
func (DirectedReachability) Verifier() core.Verifier {
	return core.VerifierFunc{R: 2, F: func(w *core.View) bool {
		me := w.Center
		l, ok := decodeDirReachLabel(w.ProofOf(me))
		if !ok {
			return false
		}
		isS, isT := w.Label(me) == core.LabelS, w.Label(me) == core.LabelT
		if (isS || isT) && !l.OnPath {
			return false
		}
		if !l.OnPath {
			return true
		}
		// Out-pointer: t has none; everyone else points to a marked
		// out-neighbour.
		if isT {
			if l.HasNext {
				return false
			}
		} else {
			next, ok := nextHopOf(w, me, l)
			if !ok {
				return false
			}
			ln, okN := decodeDirReachLabel(w.ProofOf(next))
			if !okN || !ln.OnPath {
				return false
			}
		}
		// In-pointer discipline: count marked in-neighbours whose pointer
		// resolves to me.
		inPtrs := 0
		for _, u := range w.InNeighbors(me) {
			lu, okU := decodeDirReachLabel(w.ProofOf(u))
			if !okU {
				return false
			}
			if !lu.OnPath {
				continue
			}
			if tgt, okT := nextHopOf(w, u, lu); okT && tgt == me {
				inPtrs++
			}
		}
		if isS {
			return inPtrs == 0
		}
		return inPtrs == 1
	}}
}

// Prove implements core.Scheme.
func (DirectedReachability) Prove(in *core.Instance) (core.Proof, error) {
	s, t, err := findST(in)
	if err != nil {
		return nil, err
	}
	dist := graphalg.BFS(in.G, s) // directed BFS (out-edges)
	if _, ok := dist[t]; !ok {
		return nil, core.ErrNotInProperty
	}
	// Reconstruct one shortest path s → t.
	path := []int{t}
	cur := t
	for cur != s {
		found := false
		for _, u := range in.G.Nodes() {
			if dist[u] == dist[cur]-1 && in.G.HasEdge(u, cur) {
				path = append(path, u)
				cur = u
				found = true
				break
			}
		}
		if !found {
			return nil, core.ErrNotInProperty
		}
	}
	// path is t…s; reverse to s…t.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	p := make(core.Proof, in.G.N())
	for _, v := range in.G.Nodes() {
		p[v] = dirReachLabel{}.encode()
	}
	for i, v := range path {
		l := dirReachLabel{OnPath: true}
		if i < len(path)-1 {
			outs := in.G.Neighbors(v)
			idx := sort.SearchInts(outs, path[i+1])
			l.HasNext = true
			l.NextIdx = uint64(idx)
		}
		p[v] = l.encode()
	}
	return p, nil
}

var _ core.Scheme = DirectedReachability{}
