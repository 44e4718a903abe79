// Package core implements the definitions of Göös & Suomela (PODC 2011,
// §2): proofs, local verifiers, and locally checkable proof (LCP) schemes.
//
// A Proof P: V(G) → {0,1}* assigns a bit string to every node; its size is
// the maximum number of bits on any node. A Verifier is a computable map
// (G, P, v) → {0,1} that is local: its output at v depends only on the
// radius-r view (G[v,r], P[v,r], v) for a constant r. A Scheme bundles a
// verifier with a prover f such that (f, A) is a proof labelling scheme:
//
//	(i)  G ∈ P ⇒ A(G, f(G), v) = 1 for every node v;
//	(ii) G ∉ P ⇒ for every proof P some node v has A(G, P, v) = 0.
//
// The package provides the sequential reference runner (package dist runs
// the same verifiers on a sharded message-passing runtime),
// proof-size accounting, adversarial proof manipulation for soundness
// experiments, and exhaustive minimum-proof-size search on tiny instances.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"lcp/internal/bitstr"
	"lcp/internal/graph"
)

// Node input labels used across the built-in schemes. Labels model the
// paper's "auxiliary information" (§2): distinguished nodes s and t for
// reachability problems, solution encodings for graph problems, etc.
const (
	LabelS      = "s"      // the distinguished source node
	LabelT      = "t"      // the distinguished target node
	LabelLeader = "leader" // leader-election solution marker
)

// Edge labels encoding solutions of graph problems (§2.3).
const (
	EdgeInSolution = "sol" // edge selected by the solution (matching, tree, cycle, …)
)

// Global holds input known to every node regardless of locality, such as
// the connectivity target k of §4.2 ("we assume that k is given as input
// to all nodes") or the weight bound W of §2.3.
type Global map[string]int64

// Instance is a graph together with its input labelling.
type Instance struct {
	G         *graph.Graph
	NodeLabel map[int]string
	EdgeLabel map[graph.Edge]string
	Weights   map[graph.Edge]int64
	Global    Global
}

// NewInstance wraps a bare graph as an instance with no labels.
func NewInstance(g *graph.Graph) *Instance {
	return &Instance{G: g}
}

// Clone returns a deep copy of the instance (the immutable graph is
// shared).
func (in *Instance) Clone() *Instance {
	cp := &Instance{G: in.G}
	if in.NodeLabel != nil {
		cp.NodeLabel = make(map[int]string, len(in.NodeLabel))
		for k, v := range in.NodeLabel {
			cp.NodeLabel[k] = v
		}
	}
	if in.EdgeLabel != nil {
		cp.EdgeLabel = make(map[graph.Edge]string, len(in.EdgeLabel))
		for k, v := range in.EdgeLabel {
			cp.EdgeLabel[k] = v
		}
	}
	if in.Weights != nil {
		cp.Weights = make(map[graph.Edge]int64, len(in.Weights))
		for k, v := range in.Weights {
			cp.Weights[k] = v
		}
	}
	if in.Global != nil {
		cp.Global = make(Global, len(in.Global))
		for k, v := range in.Global {
			cp.Global[k] = v
		}
	}
	return cp
}

// SetNodeLabel labels a node, allocating the map on first use.
func (in *Instance) SetNodeLabel(v int, label string) *Instance {
	if in.NodeLabel == nil {
		in.NodeLabel = make(map[int]string)
	}
	in.NodeLabel[v] = label
	return in
}

// MarkEdge marks an undirected edge as part of the solution.
func (in *Instance) MarkEdge(u, v int) *Instance {
	if in.EdgeLabel == nil {
		in.EdgeLabel = make(map[graph.Edge]string)
	}
	in.EdgeLabel[graph.NormEdge(u, v)] = EdgeInSolution
	return in
}

// MarkedEdges returns the solution edges, sorted.
func (in *Instance) MarkedEdges() []graph.Edge {
	var es []graph.Edge
	for e, l := range in.EdgeLabel {
		if l == EdgeInSolution {
			es = append(es, e)
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	return es
}

// FindLabel returns the nodes carrying the given label, sorted.
func (in *Instance) FindLabel(label string) []int {
	var out []int
	for v, l := range in.NodeLabel {
		if l == label {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

// Relabel applies an identifier mapping to the instance (graph, labels,
// weights). Proofs must be relabelled separately via Proof.Relabel. This
// realizes the paper's closure of properties under identifier
// re-assignment, used by isomorphism-invariance tests.
func (in *Instance) Relabel(m map[int]int) *Instance {
	out := &Instance{G: in.G.Relabel(m)}
	if in.NodeLabel != nil {
		out.NodeLabel = make(map[int]string, len(in.NodeLabel))
		for v, l := range in.NodeLabel {
			out.NodeLabel[m[v]] = l
		}
	}
	if in.EdgeLabel != nil {
		out.EdgeLabel = make(map[graph.Edge]string, len(in.EdgeLabel))
		for e, l := range in.EdgeLabel {
			out.EdgeLabel[graph.NormEdge(m[e.U], m[e.V])] = l
		}
	}
	if in.Weights != nil {
		out.Weights = make(map[graph.Edge]int64, len(in.Weights))
		for e, w := range in.Weights {
			out.Weights[graph.NormEdge(m[e.U], m[e.V])] = w
		}
	}
	if in.Global != nil {
		out.Global = make(Global, len(in.Global))
		for k, v := range in.Global {
			out.Global[k] = v
		}
	}
	return out
}

// Proof assigns a bit string to each node (§2.1). Nodes without an entry
// carry the empty string ε.
type Proof map[int]bitstr.String

// Size returns |P|: the maximum number of bits at any node.
func (p Proof) Size() int {
	max := 0
	for _, s := range p {
		if s.Len() > max {
			max = s.Len()
		}
	}
	return max
}

// TotalBits returns the sum of bits over all nodes.
func (p Proof) TotalBits() int {
	total := 0
	for _, s := range p {
		total += s.Len()
	}
	return total
}

// Clone returns a copy of the proof.
func (p Proof) Clone() Proof {
	cp := make(Proof, len(p))
	for k, v := range p {
		cp[k] = v
	}
	return cp
}

// Relabel re-addresses the proof under an identifier mapping.
func (p Proof) Relabel(m map[int]int) Proof {
	out := make(Proof, len(p))
	for v, s := range p {
		out[m[v]] = s
	}
	return out
}

// Truncated returns the proof with every label truncated to at most bits
// bits — the adversarial "too-small proof" used by lower-bound
// experiments.
func (p Proof) Truncated(bits int) Proof {
	out := make(Proof, len(p))
	for v, s := range p {
		out[v] = s.Truncate(bits)
	}
	return out
}

// View is the radius-r neighbourhood (G[v,r], P[v,r], v) a verifier sees.
//
// Verifiers must read proof bits through ProofOf (or BallProof when the
// restriction is needed as a whole) — never the Proof field directly:
// the field is nil on the engine's cached flat-proof views, where the
// restriction lives in Flat instead, and a direct read silently sees an
// empty proof there. The two accessors are identical under both
// representations; the raw fields are exported for runtimes and tests
// that construct views, not for verifier logic.
type View struct {
	Center    int
	Radius    int
	G         *graph.Graph // the induced subgraph G[v,r]
	Dist      map[int]int  // distance from Center within the ball
	Proof     Proof        // restricted to the ball; nil when Flat is set — use ProofOf/BallProof
	NodeLabel map[int]string
	EdgeLabel map[graph.Edge]string
	Weights   map[graph.Edge]int64
	Global    Global
	// Flat, when non-nil, is an array-backed proof table for the WHOLE
	// instance, shared read-only by every view of one check; ProofOf
	// restricts it to the ball through Dist. Exactly one of Proof and
	// Flat is set. The engine's cached-skeleton path uses Flat so that
	// no per-ball proof map is built per node per proof; one-shot views
	// (BuildView, dist.Collect) carry the restricted map.
	Flat *FlatProof
}

// ProofOf returns the proof string of a node in the view (ε if the node
// carries no proof or lies outside the ball).
func (w *View) ProofOf(v int) bitstr.String {
	if w.Flat != nil {
		if _, inBall := w.Dist[v]; inBall {
			return w.Flat.At(v)
		}
		return bitstr.String{}
	}
	return w.Proof[v]
}

// BallProof returns the view's proof restriction as a map-backed Proof,
// whichever representation the view carries, entry-for-entry identical
// to what BuildView materializes (explicit ε entries included).
// Verifiers that need the restriction as a value — to re-address it, or
// to hand it to Restrict for an inner verifier (the §7.1 M2 translation
// does both) — must use this instead of reading the Proof field, which
// is nil on the engine's flat-proof views. The result must be treated
// as read-only: on the map path it aliases the view's own restriction.
func (w *View) BallProof() Proof {
	if w.Flat == nil {
		return w.Proof
	}
	p := make(Proof, len(w.Dist))
	for v := range w.Dist {
		if s, ok := w.Flat.Entry(v); ok {
			p[v] = s
		}
	}
	return p
}

// Label returns the input label of a node in the view.
func (w *View) Label(v int) string { return w.NodeLabel[v] }

// EdgeMarked reports whether the (undirected) edge is part of the solution.
func (w *View) EdgeMarked(u, v int) bool {
	return w.EdgeLabel[graph.NormEdge(u, v)] == EdgeInSolution
}

// Weight returns the weight of edge (u, v) in the view.
func (w *View) Weight(u, v int) int64 { return w.Weights[graph.NormEdge(u, v)] }

// KnowsFully reports whether the full neighbourhood of node v is visible
// in the view: true iff dist(center, v) < radius. Verifiers must only
// reason about the complete adjacency of such nodes.
func (w *View) KnowsFully(v int) bool { return w.Dist[v] < w.Radius }

// Neighbors lists v's neighbours within the view.
func (w *View) Neighbors(v int) []int { return w.G.Neighbors(v) }

// Degree returns v's degree within the view (its true degree iff
// KnowsFully(v)).
func (w *View) Degree(v int) int { return w.G.Degree(v) }

// BuildView extracts the radius-r view of center from an instance and
// proof. This is the sequential reference implementation; dist.Collect
// produces identical views via message passing (a property test asserts
// agreement).
func BuildView(in *Instance, p Proof, center, radius int) *View {
	// One fused pass: the BFS and the induced-subgraph assembly share a
	// pooled epoch-stamped scratch (graph.InducedBall), so the only maps
	// built here are the ones the View API itself carries.
	ball, nodes, dist := in.G.InducedBall(center, radius)
	w := &View{
		Center: center,
		Radius: radius,
		G:      ball,
		Dist:   dist,
		Proof:  make(Proof, len(nodes)),
		Global: in.Global,
	}
	for _, v := range nodes {
		if s, ok := p[v]; ok {
			w.Proof[v] = s
		}
	}
	if in.NodeLabel != nil {
		w.NodeLabel = make(map[int]string)
		for _, v := range nodes {
			if l, ok := in.NodeLabel[v]; ok {
				w.NodeLabel[v] = l
			}
		}
	}
	if in.EdgeLabel != nil || in.Weights != nil {
		w.EdgeLabel = make(map[graph.Edge]string)
		w.Weights = make(map[graph.Edge]int64)
		for _, e := range ball.Edges() {
			if l, ok := in.EdgeLabel[e]; ok {
				w.EdgeLabel[e] = l
			}
			if wt, ok := in.Weights[e]; ok {
				w.Weights[e] = wt
			}
		}
	}
	return w
}

// Restrict returns the sub-view of radius r ≤ w.Radius around the same
// center. Because balls nest, the result equals the radius-r view built
// directly from the full instance; wrappers use it to simulate an inner
// verifier with a smaller horizon (§7.3). The proof is NOT inherited:
// pass the proof the inner verifier should see.
func (w *View) Restrict(r int, proof Proof) *View {
	var keep []int
	dist := make(map[int]int)
	for v, d := range w.Dist {
		if d <= r {
			keep = append(keep, v)
			dist[v] = d
		}
	}
	sort.Ints(keep)
	sub := &View{
		Center: w.Center,
		Radius: r,
		G:      w.G.Induced(keep),
		Dist:   dist,
		Proof:  make(Proof),
		Global: w.Global,
	}
	for _, v := range keep {
		if s, ok := proof[v]; ok {
			sub.Proof[v] = s
		}
	}
	if w.NodeLabel != nil {
		sub.NodeLabel = make(map[int]string)
		for _, v := range keep {
			if l, ok := w.NodeLabel[v]; ok {
				sub.NodeLabel[v] = l
			}
		}
	}
	if w.EdgeLabel != nil || w.Weights != nil {
		sub.EdgeLabel = make(map[graph.Edge]string)
		sub.Weights = make(map[graph.Edge]int64)
		for _, e := range sub.G.Edges() {
			if l, ok := w.EdgeLabel[e]; ok {
				sub.EdgeLabel[e] = l
			}
			if wt, ok := w.Weights[e]; ok {
				sub.Weights[e] = wt
			}
		}
	}
	return sub
}

// Verifier is a local verifier: Radius is its local horizon r, and Verify
// computes the output of View.Center from the view alone.
//
// The *View is valid only for the duration of the Verify call: the
// engine copies each node's cached skeleton into one View per worker
// and reuses it for the next node and proof, and the proof table behind
// View.Flat goes back to a pool when the check ends. A verifier must
// not keep the pointer, or anything read through it that a later check
// may overwrite, after Verify returns.
type Verifier interface {
	Radius() int
	Verify(*View) bool
}

// VerifierFunc adapts a function to the Verifier interface.
type VerifierFunc struct {
	R int
	F func(*View) bool
}

// Radius returns the local horizon.
func (v VerifierFunc) Radius() int { return v.R }

// Verify runs the wrapped function.
func (v VerifierFunc) Verify(w *View) bool { return v.F(w) }

var _ Verifier = VerifierFunc{}

// ErrNotInProperty is returned by provers when the instance is a
// no-instance: no proof exists, by design.
var ErrNotInProperty = errors.New("lcp: instance does not satisfy the property; no proof exists")

// Scheme is a proof labelling scheme (f, A): a prover constructing proofs
// for yes-instances plus a local verifier.
type Scheme interface {
	// Name identifies the scheme, e.g. "bipartite".
	Name() string
	// Verifier returns the local verifier A.
	Verifier() Verifier
	// Prove computes f(G): a proof accepted everywhere, or
	// ErrNotInProperty for no-instances.
	Prove(*Instance) (Proof, error)
}

// SizeBound describes the advertised proof size s(n) of a scheme, used by
// the experiment harness to check measured sizes against the paper's
// bounds.
type SizeBound func(in *Instance) int

// Result is the outcome of running a verifier on every node.
type Result struct {
	// Output per node; missing entries did not run.
	Outputs map[int]bool
}

// Accepted reports whether all nodes output 1 (the yes-verdict of the
// distributed decision model).
func (r *Result) Accepted() bool {
	for _, b := range r.Outputs {
		if !b {
			return false
		}
	}
	return true
}

// Rejectors returns the nodes that output 0, sorted.
func (r *Result) Rejectors() []int {
	var out []int
	for v, b := range r.Outputs {
		if !b {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

// String summarizes the result.
func (r *Result) String() string {
	if r.Accepted() {
		return fmt.Sprintf("accepted by all %d nodes", len(r.Outputs))
	}
	return fmt.Sprintf("rejected by %d of %d nodes", len(r.Rejectors()), len(r.Outputs))
}

// Check runs the verifier on every node sequentially and collects outputs.
func Check(in *Instance, p Proof, v Verifier) *Result {
	//lint:ignore ctxflow ctx-less Check is the documented uncancellable entry point; CheckCtx is the threaded variant
	res, _ := CheckCtx(context.Background(), in, p, v)
	return res
}

// CheckCtx is Check with context cancellation: the sequential sweep
// aborts between nodes once the context is done and returns the partial
// result together with ctx.Err(). One node's view construction and
// verifier call is the unit of work. A background context adds no
// per-node cost (its Done channel is nil and the check is skipped).
func CheckCtx(ctx context.Context, in *Instance, p Proof, v Verifier) (*Result, error) {
	res := &Result{Outputs: make(map[int]bool, in.G.N())}
	radius := v.Radius()
	done := ctx.Done()
	for _, node := range in.G.Nodes() {
		if done != nil {
			if err := ctx.Err(); err != nil {
				return res, err
			}
		}
		res.Outputs[node] = v.Verify(BuildView(in, p, node, radius))
	}
	return res, nil
}

// ProveAndCheck is the end-to-end happy path: prove, then verify
// everywhere. It returns an error if the prover fails or any node rejects
// (which would mean the scheme violates completeness).
func ProveAndCheck(in *Instance, s Scheme) (Proof, *Result, error) {
	p, err := s.Prove(in)
	if err != nil {
		return nil, nil, err
	}
	res := Check(in, p, s.Verifier())
	if !res.Accepted() {
		return p, res, fmt.Errorf("lcp: scheme %q: completeness violated: %s (rejectors %v)",
			s.Name(), res, res.Rejectors())
	}
	return p, res, nil
}
