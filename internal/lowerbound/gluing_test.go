package lowerbound

import (
	"context"
	"testing"

	"lcp/internal/core"
	"lcp/internal/dist"
	"lcp/internal/graph"
)

func TestCycleABOrderMatchesPaper(t *testing.T) {
	// Figure 1 example: n = 10 gives C(3,12) = 3, 43, 63, 83, 103, 112,
	// 92, 72, 52, 12.
	got := cycleABOrder(3, 12, 10)
	want := []int{3, 43, 63, 83, 103, 112, 92, 72, 52, 12}
	if len(got) != len(want) {
		t.Fatalf("order length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order[%d] = %d, want %d (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestCycleABDisjointness(t *testing.T) {
	// V(C(a,b)) and V(C(a',b')) disjoint when a ≠ a' and b ≠ b'.
	n := 9
	seen := map[int]string{}
	for _, pair := range [][2]int{{1, n + 1}, {2, n + 2}, {5, n + 7}} {
		for _, v := range cycleABOrder(pair[0], pair[1], n) {
			if prev, ok := seen[v]; ok {
				t.Fatalf("node %d appears in two cycles (%s)", v, prev)
			}
			seen[v] = "x"
		}
	}
	// Sharing a or b shares exactly the respective window segment ids.
	c1 := cycleABOrder(3, n+2, n)
	c2 := cycleABOrder(3, n+5, n)
	if c1[0] != c2[0] {
		t.Fatal("shared a-side start differs")
	}
}

func TestWeakSchemesCompleteness(t *testing.T) {
	// Weak schemes must be genuine schemes on their yes-instances.
	for _, n := range []int{7, 9, 13} {
		g := graph.Cycle(n)
		if _, _, err := core.ProveAndCheck(core.NewInstance(g), WeakOddN{}); err != nil {
			t.Errorf("weak-odd-n on C%d: %v", n, err)
		}
	}
	if _, err := (WeakOddN{}).Prove(core.NewInstance(graph.Cycle(8))); err == nil {
		t.Error("weak-odd-n proved an even cycle")
	}

	lg := core.NewInstance(graph.Cycle(9)).SetNodeLabel(4, core.LabelLeader)
	if _, _, err := core.ProveAndCheck(lg, WeakLeader{}); err != nil {
		t.Errorf("weak-leader: %v", err)
	}

	sp := core.NewInstance(graph.Cycle(8))
	for i := 1; i < 8; i++ {
		sp.MarkEdge(i, i+1)
	}
	if _, _, err := core.ProveAndCheck(sp, WeakSpanningPath{}); err != nil {
		t.Errorf("weak-spanning-path: %v", err)
	}

	mm := core.NewInstance(graph.Cycle(9))
	for i := 1; i+1 <= 9; i += 2 {
		mm.MarkEdge(i, i+1)
	}
	if _, _, err := core.ProveAndCheck(mm, WeakMaxMatchingCycle{}); err != nil {
		t.Errorf("weak-max-matching: %v", err)
	}
}

// TestGluingFoolsWeakSchemes is experiment F1 + LB-* of DESIGN.md: the
// §5.3 adversary must fool every weak O(1)-bit scheme — the glued
// instance is a no-instance whose every view is identical to a
// yes-instance view, and the verifier accepts it.
func TestGluingFoolsWeakSchemes(t *testing.T) {
	for _, target := range WeakTargets() {
		// Minimum n for the signature windows: n/2 ≥ 2r+3.
		r := target.Scheme.Verifier().Radius()
		n := 4*r + 10
		if target.OddLength {
			n++
		}
		rep, err := RunGluing(target, n)
		if err != nil {
			t.Fatalf("%s: %v", target.Name, err)
		}
		t.Logf("%s", rep)
		if !rep.FoundCycle {
			t.Errorf("%s: no monochromatic C4 found (signatures=%d)", target.Name, rep.Signatures)
			continue
		}
		if !rep.ViewsIdentical {
			t.Errorf("%s: glued views are NOT identical to yes-instance views", target.Name)
		}
		if rep.GluedIsYes {
			t.Errorf("%s: glued instance is unexpectedly a yes-instance", target.Name)
		}
		if !rep.Accepted {
			t.Errorf("%s: verifier rejected the glued instance", target.Name)
		}
		if !rep.Fooled {
			t.Errorf("%s: adversary failed to fool the scheme", target.Name)
		}
		if rep.GluedN != rep.N*rep.K {
			t.Errorf("%s: glued cycle has %d nodes, want %d", target.Name, rep.GluedN, rep.N*rep.K)
		}
	}
}

// TestGluingFailsAgainstStrongSchemes: with real Θ(log n) proofs the
// signature space exceeds the colour budget and the adversary cannot even
// find a monochromatic C4 — the observable flip side of §5.1.
func TestGluingFailsAgainstStrongSchemes(t *testing.T) {
	for _, target := range []GluingTarget{StrongOddNTarget(), StrongLeaderTarget()} {
		rep, err := RunGluing(target, 13)
		if err != nil {
			t.Fatalf("%s: %v", target.Name, err)
		}
		t.Logf("%s", rep)
		if rep.Fooled {
			t.Errorf("%s: the Θ(log n) scheme was fooled — soundness bug!", target.Name)
		}
		// The strong schemes separate signatures far beyond the budget.
		if rep.Signatures <= rep.Threshold {
			t.Errorf("%s: only %d signatures (≤ threshold %d); log-size proofs should separate more",
				target.Name, rep.Signatures, rep.Threshold)
		}
	}
}

// TestWeakSignaturesBelowThreshold confirms the pigeonhole side: O(1)-bit
// proofs yield a constant number of signatures, far below n^{1/3} for
// large enough n... here we just confirm it is tiny and that a C4 exists.
func TestWeakSignaturesBelowThreshold(t *testing.T) {
	rep, err := RunGluing(OddNTarget(), 13)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Signatures > 8 {
		t.Errorf("weak scheme produced %d signatures; expected O(1)", rep.Signatures)
	}
	if !rep.FoundCycle {
		t.Error("no monochromatic C4 despite constant signature count")
	}
}

// TestGluingKGreaterThanTwo exercises the general 2k-cycle search. With
// the leader target and k = 3 the glued cycle carries three leaders — a
// no-instance regardless of parity (gluing an odd number of odd cycles
// keeps n odd, so the parity targets need even k; the leader target does
// not).
func TestGluingKGreaterThanTwo(t *testing.T) {
	target := LeaderTarget()
	target.K = 3
	rep, err := RunGluing(target, 13)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s", rep)
	if !rep.FoundCycle {
		t.Fatal("no monochromatic C6 found")
	}
	if rep.GluedN != 39 {
		t.Errorf("glued n = %d, want 39", rep.GluedN)
	}
	if rep.GluedIsYes {
		t.Error("39-cycle with 3 leaders reported as yes-instance")
	}
	if !rep.Fooled {
		t.Error("k=3 gluing failed to fool the weak leader scheme")
	}
}

// TestGluingEvenKOddCycles glues four odd cycles: n stays a multiple of
// 4·13 = even, so the parity target is genuinely fooled at k = 4 too.
func TestGluingEvenKOddCycles(t *testing.T) {
	target := OddNTarget()
	target.K = 4
	rep, err := RunGluing(target, 13)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s", rep)
	if !rep.FoundCycle {
		t.Fatal("no monochromatic C8 found")
	}
	if rep.GluedIsYes {
		t.Error("52-cycle reported odd")
	}
	if !rep.Fooled {
		t.Error("k=4 gluing failed to fool the weak parity scheme")
	}
}

func TestRunGluingParameterValidation(t *testing.T) {
	target := OddNTarget()
	if _, err := RunGluing(target, 12); err == nil {
		t.Error("even n accepted for odd-length target")
	}
	target.K = 1
	if _, err := RunGluing(target, 13); err == nil {
		t.Error("k=1 accepted")
	}
	small := OddNTarget()
	if _, err := RunGluing(small, 5); err == nil {
		t.Error("n too small for window accepted")
	}
}

func TestWeakOddNMinProofSizeIsTwo(t *testing.T) {
	// The weak seam scheme really is a 2-bit scheme: C3 admits no valid
	// 0- or 1-bit proof under its verifier but has a 2-bit one
	// (exhaustive search).
	in := core.NewInstance(graph.Cycle(3))
	if got := core.MinProofSize(in, WeakOddN{}.Verifier(), 2); got != 2 {
		t.Errorf("weak odd-n min proof size on C3 = %d, want 2", got)
	}
}

// TestGluedInstanceFoolsDistributedRuntime: the fooled verdict is not an
// artifact of the sequential runner — the glued no-instance is accepted
// by every goroutine on the real message-passing runtime too.
func TestGluedInstanceFoolsDistributedRuntime(t *testing.T) {
	target := OddNTarget()
	rep, err := RunGluing(target, 15)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Fooled {
		t.Fatal("sequential run not fooled; nothing to cross-check")
	}
	// Rebuild the glued instance (RunGluing does not retain it); rerun
	// the construction deterministically.
	// Simplest: re-run and capture via the exported pieces — the report
	// has the cycle; rebuild pairs for those four (a, b) combinations.
	pairs := map[graph.Edge]*provedInstance{}
	for i := 0; i < len(rep.CycleVertices); i++ {
		for j := 0; j < len(rep.CycleVertices); j++ {
			a, b := rep.CycleVertices[i], rep.CycleVertices[j]
			if a > 15 || b <= 15 {
				continue
			}
			order := cycleABOrder(a, b, rep.N)
			g := graph.CycleOf(order...)
			in := target.Prepare(g, order)
			proof, err := target.Scheme.Prove(in)
			if err != nil {
				t.Fatal(err)
			}
			pairs[graph.Edge{U: a, V: b}] = &provedInstance{a: a, b: b, order: order, in: in, proof: proof}
		}
	}
	glued, gluedProof, err := glue(pairs, rep.CycleVertices)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dist.CheckWithCtx(context.Background(), glued, gluedProof, target.Scheme.Verifier(), dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted() {
		t.Errorf("distributed runtime rejected the glued instance at %v — runners disagree", res.Rejectors())
	}
}
