package lcp

import (
	"context"
	"errors"
	"testing"

	"lcp/internal/core"
)

// TestCatalogCompleteness: every Table 1 row proves and verifies its
// yes-instances across sizes, within the advertised size bound, both
// sequentially and on the distributed runtime.
func TestCatalogCompleteness(t *testing.T) {
	for _, exp := range Catalog() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			for _, n := range []int{exp.MinN, exp.MinN + 9, exp.MinN + 24} {
				in := exp.MakeYes(n, int64(n))
				p, _, err := ProveAndCheck(in, exp.Scheme)
				if err != nil {
					t.Fatalf("%s (%s) n=%d: %v", exp.ID, exp.Row, n, err)
				}
				if exp.BoundBits != nil {
					if got, want := float64(p.Size()), exp.BoundBits(in.G.N()); got > want {
						t.Errorf("%s n=%d: proof %v bits > bound %v", exp.ID, n, got, want)
					}
				}
				chk, err := NewChecker(in, WithScheme(exp.Scheme), WithBackend(BackendDist))
				if err != nil {
					t.Fatal(err)
				}
				res, err := chk.Check(context.Background(), p)
				if err != nil {
					t.Fatalf("%s n=%d: distributed: %v", exp.ID, n, err)
				}
				if !res.Accepted() {
					t.Errorf("%s n=%d: distributed run rejected at %v", exp.ID, n, res.Rejectors())
				}
			}
		})
	}
}

// TestCatalogSoundness: provers refuse no-instances and random proofs are
// rejected.
func TestCatalogSoundness(t *testing.T) {
	for _, exp := range Catalog() {
		exp := exp
		if exp.MakeNo == nil {
			continue
		}
		t.Run(exp.ID, func(t *testing.T) {
			n := exp.MinN + 9
			in := exp.MakeNo(n, 7)
			if _, err := exp.Scheme.Prove(in); err == nil {
				t.Fatalf("%s: prover produced a proof for a no-instance", exp.ID)
			} else if !errors.Is(err, ErrNotInProperty) {
				t.Logf("%s: prover error: %v", exp.ID, err)
			}
			v := exp.Scheme.Verifier()
			for _, bits := range []int{0, 4, 24} {
				for seed := int64(0); seed < 2; seed++ {
					p := core.RandomProof(in, bits, seed+int64(bits))
					if core.Check(in, p, v).Accepted() {
						t.Errorf("%s: random %d-bit proof accepted", exp.ID, bits)
					}
				}
			}
		})
	}
}

// TestCatalogIDsUnique guards the DESIGN.md experiment index.
func TestCatalogIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	count := 0
	for _, exp := range Catalog() {
		if seen[exp.ID] {
			t.Errorf("duplicate experiment id %s", exp.ID)
		}
		seen[exp.ID] = true
		count++
		if exp.Scheme == nil || exp.MakeYes == nil {
			t.Errorf("%s: incomplete entry", exp.ID)
		}
	}
	// 18 Table-1a rows (T1a-19 is the no-scheme fooling experiment,
	// exercised in internal/lowerbound) + 11 Table-1b rows.
	if count != 29 {
		t.Errorf("catalog has %d entries, want 29", count)
	}
}

// TestFacadeQuickstart mirrors the package documentation example.
func TestFacadeQuickstart(t *testing.T) {
	in := NewInstance(Cycle(8))
	proof, res, err := ProveAndCheck(in, BipartiteScheme())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted() || proof.Size() != 1 {
		t.Fatalf("quickstart: size=%d res=%s", proof.Size(), res)
	}
	// Odd cycle: no proof exists.
	if _, err := Prove(BipartiteScheme(), NewInstance(Cycle(9))); !errors.Is(err, ErrNotInProperty) {
		t.Fatalf("odd cycle: %v", err)
	}
}
