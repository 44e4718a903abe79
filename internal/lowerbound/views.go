package lowerbound

import "lcp/internal/core"

// View-identity checking: the formal core of every fooling argument. A
// no-instance with inherited proofs fools *any* verifier of the scheme if
// each node's radius-r view — graph, identifiers, distances, labels,
// weights and proof bits — is literally identical to that node's view in
// some yes-instance. The checks below assert exactly that, making the
// constructions verifier-independent: acceptance follows for every local
// verifier that accepts the yes-instances, not just the one we happen to
// run.

// yesRun is a proved yes-instance.
type yesRun struct {
	in    *core.Instance
	proof core.Proof
}

// allViewsCovered reports whether every node of the fooling instance has
// a view identical to its view in one of the yes-runs.
func allViewsCovered(fooled *core.Instance, proof core.Proof, yes []yesRun, radius int) bool {
	for _, v := range fooled.G.Nodes() {
		fv := core.BuildView(fooled, proof, v, radius)
		matched := false
		for _, yr := range yes {
			if !yr.in.G.Has(v) {
				continue
			}
			if core.ViewsEqual(fv, core.BuildView(yr.in, yr.proof, v, radius)) {
				matched = true
				break
			}
		}
		if !matched {
			return false
		}
	}
	return true
}
