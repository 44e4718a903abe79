// Package logic implements the monadic Σ¹₁ formulas of §7.5: sentences
//
//	∃X₁ … ∃X_k ∃x ∀y φ(X₁, …, X_k, x, y)
//
// in the Schwentick–Barthelmann local normal form, where φ is first-order
// and local around y — every quantifier inside φ is bounded to a
// constant-radius ball around y. On connected graphs every monadic Σ¹₁
// property is equivalent to such a sentence, and §7.5 shows all of them
// admit O(log n) locally checkable proofs: encode the relations with one
// bit each per node, pin the witness x with a spanning tree, and evaluate
// φ at every node.
package logic

import (
	"fmt"
	"strings"

	"lcp/internal/core"
)

// Env is a first-order variable assignment: variable name → node id.
type Env map[string]int

// Model is what φ is evaluated against at one node y: a radius-R view,
// the monadic relations (decoded from proof labels), and the identity of
// the existential witness x (the tree root).
type Model struct {
	View    *core.View
	Rel     []map[int]bool // Rel[i][v] ⇔ X_i(v)
	Witness int            // node id of x (may lie outside the view)
}

// Formula is a first-order formula, local around the node y = View.Center.
type Formula interface {
	// Eval evaluates the formula under the environment.
	Eval(m *Model, env Env) bool
	// Radius returns the distance from y that evaluation may inspect.
	Radius() int
	String() string
}

// Y is the reserved variable name bound to the view's center.
const Y = "y"

// ---- Atoms ----

// adj is the adjacency atom.
type adj struct{ a, b string }

// Adj returns the atom "a and b are adjacent".
func Adj(a, b string) Formula { return adj{a, b} }

func (f adj) Eval(m *Model, env Env) bool {
	u, okU := env[f.a]
	v, okV := env[f.b]
	return okU && okV && m.View.HasEdge(u, v)
}
func (f adj) Radius() int    { return 0 }
func (f adj) String() string { return fmt.Sprintf("%s~%s", f.a, f.b) }

// eq is the equality atom.
type eq struct{ a, b string }

// Eq returns the atom "a = b".
func Eq(a, b string) Formula { return eq{a, b} }

func (f eq) Eval(m *Model, env Env) bool {
	u, okU := env[f.a]
	v, okV := env[f.b]
	return okU && okV && u == v
}
func (f eq) Radius() int    { return 0 }
func (f eq) String() string { return fmt.Sprintf("%s=%s", f.a, f.b) }

// inRel is the monadic relation atom X_i(a).
type inRel struct {
	i int
	a string
}

// X returns the atom "X_i(a)" (0-indexed relation).
func X(i int, a string) Formula { return inRel{i, a} }

func (f inRel) Eval(m *Model, env Env) bool {
	v, ok := env[f.a]
	if !ok || f.i >= len(m.Rel) {
		return false
	}
	return m.Rel[f.i][v]
}
func (f inRel) Radius() int    { return 0 }
func (f inRel) String() string { return fmt.Sprintf("X%d(%s)", f.i, f.a) }

// isWitness is the atom "a = x" (the Σ¹₁ existential node witness).
type isWitness struct{ a string }

// Witness returns the atom "a is the existential witness x".
func Witness(a string) Formula { return isWitness{a} }

func (f isWitness) Eval(m *Model, env Env) bool {
	v, ok := env[f.a]
	return ok && v == m.Witness
}
func (f isWitness) Radius() int    { return 0 }
func (f isWitness) String() string { return fmt.Sprintf("%s=x", f.a) }

// witnessWithin is the atom "dist(y, x) ≤ r".
type witnessWithin struct{ r int }

// WitnessWithin returns the atom "the witness x lies within distance r of
// y". This is how local formulas talk about x at all: if x is farther
// away, the atom is false.
func WitnessWithin(r int) Formula { return witnessWithin{r} }

func (f witnessWithin) Eval(m *Model, env Env) bool {
	d, ok := m.View.Dist(m.Witness)
	return ok && d <= f.r
}
func (f witnessWithin) Radius() int    { return f.r }
func (f witnessWithin) String() string { return fmt.Sprintf("dist(y,x)≤%d", f.r) }

// ---- Connectives ----

type not struct{ f Formula }

// Not negates a formula.
func Not(f Formula) Formula { return not{f} }

func (f not) Eval(m *Model, env Env) bool { return !f.f.Eval(m, env) }
func (f not) Radius() int                 { return f.f.Radius() }
func (f not) String() string              { return "¬(" + f.f.String() + ")" }

type and struct{ fs []Formula }

// And conjoins formulas (true when empty).
func And(fs ...Formula) Formula { return and{fs} }

func (f and) Eval(m *Model, env Env) bool {
	for _, g := range f.fs {
		if !g.Eval(m, env) {
			return false
		}
	}
	return true
}
func (f and) Radius() int    { return maxRadius(f.fs) }
func (f and) String() string { return join(f.fs, " ∧ ") }

type or struct{ fs []Formula }

// Or disjoins formulas (false when empty).
func Or(fs ...Formula) Formula { return or{fs} }

func (f or) Eval(m *Model, env Env) bool {
	for _, g := range f.fs {
		if g.Eval(m, env) {
			return true
		}
	}
	return false
}
func (f or) Radius() int    { return maxRadius(f.fs) }
func (f or) String() string { return join(f.fs, " ∨ ") }

// Implies returns a → b.
func Implies(a, b Formula) Formula { return Or(Not(a), b) }

// ---- Local quantifiers (Schwentick–Barthelmann form) ----

// exists is ∃v: dist(v, y) ≤ r ∧ body.
type exists struct {
	v    string
	r    int
	body Formula
}

// ExistsNear returns ∃v (dist(v, y) ≤ r ∧ body).
func ExistsNear(v string, r int, body Formula) Formula { return exists{v, r, body} }

func (f exists) Eval(m *Model, env Env) bool {
	for _, node := range m.View.Nodes() {
		if d, _ := m.View.Dist(node); d > f.r {
			continue
		}
		env2 := cloneEnv(env)
		env2[f.v] = node
		if f.body.Eval(m, env2) {
			return true
		}
	}
	return false
}
func (f exists) Radius() int { return maxInt(f.r, f.body.Radius()) }
func (f exists) String() string {
	return fmt.Sprintf("∃%s≤%d(%s)", f.v, f.r, f.body.String())
}

// forall is ∀v: dist(v, y) ≤ r → body.
type forall struct {
	v    string
	r    int
	body Formula
}

// ForallNear returns ∀v (dist(v, y) ≤ r → body).
func ForallNear(v string, r int, body Formula) Formula { return forall{v, r, body} }

func (f forall) Eval(m *Model, env Env) bool {
	for _, node := range m.View.Nodes() {
		if d, _ := m.View.Dist(node); d > f.r {
			continue
		}
		env2 := cloneEnv(env)
		env2[f.v] = node
		if !f.body.Eval(m, env2) {
			return false
		}
	}
	return true
}
func (f forall) Radius() int { return maxInt(f.r, f.body.Radius()) }
func (f forall) String() string {
	return fmt.Sprintf("∀%s≤%d(%s)", f.v, f.r, f.body.String())
}

// ---- Sentences ----

// Sentence is a full monadic Σ¹₁ sentence in local normal form.
type Sentence struct {
	// K is the number of monadic relations X_0..X_{K-1}.
	K int
	// Phi is the matrix φ(X, x, y); y is bound to each node in turn.
	Phi Formula
}

// Radius returns the locality radius of the matrix.
func (s Sentence) Radius() int {
	if r := s.Phi.Radius(); r > 0 {
		return r
	}
	return 0
}

// EvalAt evaluates φ at one node (the view's center).
func (s Sentence) EvalAt(m *Model) bool {
	return s.Phi.Eval(m, Env{Y: m.View.Center})
}

// String renders the sentence.
func (s Sentence) String() string {
	var b strings.Builder
	for i := 0; i < s.K; i++ {
		fmt.Fprintf(&b, "∃X%d ", i)
	}
	b.WriteString("∃x ∀y: ")
	b.WriteString(s.Phi.String())
	return b.String()
}

func maxRadius(fs []Formula) int {
	r := 0
	for _, f := range fs {
		if f.Radius() > r {
			r = f.Radius()
		}
	}
	return r
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func cloneEnv(env Env) Env {
	out := make(Env, len(env)+1)
	for k, v := range env {
		out[k] = v
	}
	return out
}

func join(fs []Formula, sep string) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}
