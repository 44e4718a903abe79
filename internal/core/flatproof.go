package core

import (
	"lcp/internal/bitstr"

	"lcp/internal/graph"
)

// FlatProof is a dense, array-backed proof table: the bit string of
// node id lives at position g.Index(id) of a flat slice, aligned with
// g.Nodes(). It is the one proof form a View reads.
//
// The map-backed Proof is the right shape for provers and adversaries
// (sparse edits, relabelling, splicing), but a check reads it at every
// node of every ball. A FlatProof is loaded once per check in O(n) and
// then shared read-only by every node's view, which restricts it to its
// ball by membership; no per-ball proof map is ever built. Owned views
// (BuildView, Restrict, dist.Collect) carry a ball-sized table instead,
// indexed by member rank.
//
// Presence is tracked separately from the bits so that an explicit ε
// entry (a node assigned the empty string) survives the representation
// change: View.BallProof reproduces the map restriction entry for entry,
// not just string for string.
//
// A FlatProof is mutable via Load and therefore owned by a single check
// at a time; the Views it is attached to must not outlive the check.
// core.CheckCtx draws its table from a pool; the engine reads its proofs
// through column views of a pooled ProofColumns table (a single check is
// a one-column table).
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

// reset sizes the table for g (nil: drops the strings it holds, for
// pooling); Load fills it.
func (fp *FlatProof) reset(g *graph.Graph) {
	fp.g, fp.stride, fp.off = g, 0, 0
	if g == nil {
		clear(fp.bits)
		return
	}
	n := g.N()
	if cap(fp.bits) < n {
		fp.bits = make([]bitstr.String, n)
		fp.has = make([]bool, n)
	} else {
		fp.bits = fp.bits[:n]
		fp.has = fp.has[:n]
	}
}

// entryAt returns the entry at node index i (or member rank, for the
// ball-sized tables of owned views) and whether it is present.
func (fp *FlatProof) entryAt(i int) (bitstr.String, bool) {
	k := fp.slot(i)
	return fp.bits[k], fp.has[k]
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
