package core

import (
	"lcp/internal/bitstr"

	"lcp/internal/graph"
)

// FlatProof is a dense, array-backed proof representation: the bit
// string of node id lives at position g.Index(id) of a flat slice,
// aligned with g.Nodes().
//
// The map-backed Proof is the right shape for provers and adversaries
// (sparse edits, relabelling, splicing), but the engine's hot path — one
// proof checked at every node of a cached skeleton — used to restrict
// the map into a fresh per-ball map for every node of every proof:
// O(Σ|ball(v)|) allocations and map inserts per check. A FlatProof is
// loaded once per check in O(n) and then shared read-only by every
// node's view; the per-node restriction disappears entirely, with ball
// membership enforced by View.ProofOf against the view's distance map.
//
// Presence is tracked separately from the bits so that an explicit ε
// entry (a node assigned the empty string) survives the representation
// change: View.BallProof must reproduce exactly the map BuildView would
// have built, entry-for-entry, not just string-for-string.
//
// A FlatProof is mutable via Load and therefore owned by a single check
// at a time; the Views it is attached to must not outlive the check.
// The engine reads its proofs through column views of a pooled
// ProofColumns table (a single check is a one-column table).
//
// A FlatProof may also be a strided column view into a ProofColumns
// table: stride > 1 means node index i lives at slot i*stride+off of a
// node-major k-wide table shared with the other k-1 columns. The
// zero-stride form (the common case) keeps the plain i indexing.
type FlatProof struct {
	g    *graph.Graph
	bits []bitstr.String
	has  []bool

	// stride/off make the table a column of a ProofColumns batch:
	// slot(i) = i*stride + off. stride <= 1 means the table is dense
	// and off is ignored.
	stride int
	off    int
}

// slot maps a graph node index to its position in the backing arrays,
// honouring the column stride when the table is a ProofColumns view.
func (fp *FlatProof) slot(i int) int {
	if fp.stride > 1 {
		return i*fp.stride + fp.off
	}
	return i
}

// NewFlatProof allocates an empty flat table aligned with g.Nodes().
func NewFlatProof(g *graph.Graph) *FlatProof {
	return &FlatProof{g: g, bits: make([]bitstr.String, g.N()), has: make([]bool, g.N())}
}

// Load replaces the table contents with p, clearing previous entries.
// Proof entries addressing nodes outside the graph are ignored, exactly
// as BuildView ignores them when restricting a map-backed proof.
func (fp *FlatProof) Load(p Proof) {
	if fp.stride > 1 {
		panic("core: Load on a ProofColumns column view; load the ProofColumns instead")
	}
	clear(fp.bits)
	clear(fp.has)
	for id, s := range p {
		if i, ok := fp.g.Lookup(id); ok {
			fp.bits[i] = s
			fp.has[i] = true
		}
	}
}

// At returns the proof string of node id (ε for nodes without an entry
// or outside the graph).
func (fp *FlatProof) At(id int) bitstr.String {
	if i, ok := fp.g.Lookup(id); ok {
		return fp.bits[fp.slot(i)]
	}
	return bitstr.String{}
}

// Entry returns the proof string of node id and whether the proof
// explicitly assigns one — the flat analogue of a map lookup's comma-ok,
// distinguishing "assigned ε" from "no entry".
func (fp *FlatProof) Entry(id int) (bitstr.String, bool) {
	if i, ok := fp.g.Lookup(id); ok && fp.has[fp.slot(i)] {
		return fp.bits[fp.slot(i)], true
	}
	return bitstr.String{}, false
}
