package core

import (
	"lcp/internal/bitstr"

	"lcp/internal/graph"
)

// ProofColumns is a node-major, struct-of-arrays table holding k proofs
// for one graph at once: the entry of proof j at node index i lives at
// slot i*k+j, so all k proof strings for one node are adjacent in
// memory. It is the batch counterpart of FlatProof — where a FlatProof
// lets one check walk the cached skeletons without per-node map
// restriction, a ProofColumns lets one ball walk feed k verdicts: the
// engine visits node i once and evaluates every column against the same
// skeleton before moving on, comparing the k adjacent entries to
// deduplicate identical ball restrictions. The engine loads every check
// into one; a single proof is a one-column table.
//
// Each column is addressable as a strided *FlatProof (see Column), so
// verifiers consume a column through the exact same View accessors as a
// dense table; no verifier knows whether it is reading a batch.
//
// Like FlatProof, a ProofColumns is mutable via Load and owned by a
// single check at a time (internal/engine recycles them through a pool,
// for one proof as for k); column views must not outlive the check.
type ProofColumns struct {
	g    *graph.Graph
	k    int
	bits []bitstr.String
	has  []bool
	cols []FlatProof
}

// NewProofColumns returns an empty table for graph g; Load sizes it.
func NewProofColumns(g *graph.Graph) *ProofColumns {
	return &ProofColumns{g: g}
}

// K reports the number of loaded columns (proofs).
func (pc *ProofColumns) K() int { return pc.k }

// Load replaces the table contents with the given proofs, one column
// per proof in order, clearing previous entries. Proof entries
// addressing nodes outside the graph are ignored, exactly as
// FlatProof.Load ignores them. Column views handed out by a previous
// Load are invalidated.
func (pc *ProofColumns) Load(proofs []Proof) {
	n := pc.g.N()
	pc.k = len(proofs)
	need := n * pc.k
	if cap(pc.bits) < need {
		pc.bits = make([]bitstr.String, need)
		pc.has = make([]bool, need)
	} else {
		pc.bits = pc.bits[:need]
		pc.has = pc.has[:need]
		clear(pc.bits)
		clear(pc.has)
	}
	for j, p := range proofs {
		for id, s := range p {
			if i, ok := pc.g.Lookup(id); ok {
				pc.bits[i*pc.k+j] = s
				pc.has[i*pc.k+j] = true
			}
		}
	}
	if cap(pc.cols) < pc.k {
		pc.cols = make([]FlatProof, pc.k)
	} else {
		pc.cols = pc.cols[:pc.k]
	}
	for j := range pc.cols {
		pc.cols[j] = FlatProof{g: pc.g, bits: pc.bits, has: pc.has, stride: pc.k, off: j}
	}
}

// Column returns proof j as a strided FlatProof sharing the table's
// storage. The returned view is read-only (Load on it panics) and valid
// until the next Load on the table.
func (pc *ProofColumns) Column(j int) *FlatProof { return &pc.cols[j] }

// SameAt reports whether columns j and l agree at node index i: same
// presence flag and, bit for bit, the same string. Together with the
// locality of verifiers — the verdict at v is a function of the radius-r
// view alone — agreement at every ball member means the two columns
// must receive the same verdict at v, which is what lets the engine
// verify one representative per group of identical ball restrictions.
func (pc *ProofColumns) SameAt(i, j, l int) bool {
	a := i * pc.k
	return pc.has[a+j] == pc.has[a+l] && pc.bits[a+j].Equal(pc.bits[a+l])
}
