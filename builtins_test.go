package lcp_test

// Coverage for the BuiltinSchemes registry, which cmd/lcpverify and the
// lcpserve scheme resolution depend on: every scheme must carry a
// unique, non-empty name, and every scheme must round-trip through
// ProveAndCheck on a small yes-instance — so a registry entry can never
// be a name that dies on first use.

import (
	"context"
	"testing"

	"lcp"
)

// yesInstanceFor returns a small yes-instance for the named builtin
// scheme: from the experiment catalog when the scheme appears there,
// from a handcrafted table otherwise.
func yesInstanceFor(t *testing.T, name string) *lcp.Instance {
	t.Helper()
	for _, exp := range lcp.Catalog() {
		if exp.Scheme.Name() == name {
			n := 12
			if n < exp.MinN {
				n = exp.MinN
			}
			return exp.MakeYes(n, 1)
		}
	}
	switch name {
	case lcp.EvenNScheme().Name():
		return lcp.NewInstance(lcp.Cycle(12))
	case lcp.PrimeNScheme().Name():
		return lcp.NewInstance(lcp.Cycle(7))
	case lcp.ForestScheme().Name():
		return lcp.NewInstance(lcp.RandomTree(10, 3))
	case lcp.HamiltonianPathScheme().Name():
		in := lcp.NewInstance(lcp.Path(8))
		for i := 1; i < 8; i++ {
			in.MarkEdge(i, i+1)
		}
		return in
	case lcp.HamiltonianPropertyScheme().Name():
		return lcp.NewInstance(lcp.Cycle(9))
	case lcp.DirectedReachabilityScheme().Name():
		b := lcp.NewDirectedBuilder()
		for i := 1; i < 8; i++ {
			b.AddEdge(i, i+1)
		}
		in := lcp.NewInstance(b.Graph())
		in.SetNodeLabel(1, lcp.LabelS).SetNodeLabel(8, lcp.LabelT)
		return in
	}
	t.Fatalf("no yes-instance known for builtin scheme %q: add one to yesInstanceFor", name)
	return nil
}

func TestBuiltinSchemesNamesUniqueAndNonEmpty(t *testing.T) {
	reg := lcp.BuiltinSchemes()
	if len(reg) == 0 {
		t.Fatal("empty registry")
	}
	for name, scheme := range reg {
		if name == "" {
			t.Error("registry contains an empty name")
		}
		if scheme == nil {
			t.Errorf("scheme %q is nil", name)
		}
		if got := scheme.Name(); got != name {
			t.Errorf("registry key %q but scheme.Name() = %q", name, got)
		}
	}
	// Uniqueness beyond the map invariant: constructing the registry
	// must not have silently collapsed two schemes onto one key. The
	// registry is built from a fixed constructor list, so count it.
	if want := 29; len(reg) != want {
		t.Errorf("registry has %d schemes, want %d — a Name() collision dropped an entry (or update this count)", len(reg), want)
	}
}

func TestBuiltinSchemesRoundTripOnYesInstances(t *testing.T) {
	for name, scheme := range lcp.BuiltinSchemes() {
		name, scheme := name, scheme
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			in := yesInstanceFor(t, name)
			proof, res, err := lcp.ProveAndCheck(in, scheme)
			if err != nil {
				t.Fatalf("ProveAndCheck: %v", err)
			}
			if !res.Accepted() {
				t.Fatalf("honest proof rejected: %s", res)
			}
			if proof == nil {
				t.Fatal("nil proof on a yes-instance")
			}
			// The verifier must also accept through the amortized
			// engine — the registry serves lcpserve, which only runs
			// engine paths.
			eres, err := lcp.NewEngine(in).CheckProofCtx(context.Background(), proof, scheme.Verifier())
			if err != nil {
				t.Fatalf("engine check: %v", err)
			}
			if !eres.Accepted() {
				t.Fatalf("engine rejected the honest proof: %s", eres)
			}
		})
	}
}
