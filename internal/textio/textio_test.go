package textio

import (
	"bytes"
	"strings"
	"testing"

	"lcp/internal/core"
	"lcp/internal/graph"
)

const sample = `
# a bipartite instance with a 2-colouring proof
graph undirected
scheme bipartite
edge 1 2
edge 2 3
edge 3 4
edge 4 1
proof 1 0
proof 2 1
proof 3 0
proof 4 1
`

func TestParseBasics(t *testing.T) {
	doc, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.SchemeName != "bipartite" {
		t.Errorf("scheme = %q", doc.SchemeName)
	}
	if doc.Instance.G.N() != 4 || doc.Instance.G.M() != 4 {
		t.Errorf("graph = %v", doc.Instance.G)
	}
	if doc.Proof[2].String() != "1" {
		t.Errorf("proof[2] = %q", doc.Proof[2])
	}
}

func TestParseRichDirectives(t *testing.T) {
	src := `
graph directed
node 9 label=s
node 5 label=t
edge 9 5 weight=7
edge 5 9 mark
global k 3
proof 9 10110
proof 5
`
	doc, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	in := doc.Instance
	if !in.G.Directed() {
		t.Error("kind lost")
	}
	if in.NodeLabel[9] != core.LabelS || in.NodeLabel[5] != core.LabelT {
		t.Errorf("labels = %v", in.NodeLabel)
	}
	if in.Weights[graph.Edge{U: 5, V: 9}] != 7 {
		t.Errorf("weights = %v", in.Weights)
	}
	if in.Global["k"] != 3 {
		t.Errorf("global = %v", in.Global)
	}
	if doc.Proof[9].Len() != 5 || doc.Proof[5].Len() != 0 {
		t.Errorf("proofs wrong: %v", doc.Proof)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"graph sideways",
		"node zero",
		"node 0",
		"edge 1",
		"edge 1 2 sparkle",
		"global k",
		"global k x",
		"proof 3 012",
		"wibble 1 2",
		"graph undirected\ngraph directed",
		"proof 7 01", // node 7 never declared
	}
	for _, src := range bad {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	doc, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, doc); err != nil {
		t.Fatal(err)
	}
	doc2, err := Parse(&buf)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	if !graph.Equal(doc.Instance.G, doc2.Instance.G) {
		t.Error("graph changed in round trip")
	}
	for v, p := range doc.Proof {
		if !doc2.Proof[v].Equal(p) {
			t.Errorf("proof of %d changed", v)
		}
	}
	if doc2.SchemeName != doc.SchemeName {
		t.Error("scheme name lost")
	}
}

func TestRoundTripWeightsAndMarks(t *testing.T) {
	in := core.NewInstance(graph.CompleteBipartite(2, 2)).MarkEdge(1, 3)
	in.Weights = map[graph.Edge]int64{graph.NormEdge(1, 3): 9}
	in.Global = core.Global{"W": 9}
	doc := &Document{Instance: in, Proof: core.Proof{}, SchemeName: "max-weight-matching"}
	var buf bytes.Buffer
	if err := Write(&buf, doc); err != nil {
		t.Fatal(err)
	}
	doc2, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if doc2.Instance.EdgeLabel[graph.NormEdge(1, 3)] != core.EdgeInSolution {
		t.Error("mark lost")
	}
	if doc2.Instance.Weights[graph.NormEdge(1, 3)] != 9 {
		t.Error("weight lost")
	}
	if doc2.Instance.Global["W"] != 9 {
		t.Error("global lost")
	}
}

func TestEndToEndVerifyFromText(t *testing.T) {
	doc, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	// The sample's proof is a proper 2-colouring of C4.
	res := core.Check(doc.Instance, doc.Proof, bipartiteVerifier())
	if !res.Accepted() {
		t.Errorf("sample rejected: %s", res)
	}
	// Flip one bit in the text and watch it fail.
	broken := strings.Replace(sample, "proof 2 1", "proof 2 0", 1)
	doc2, err := Parse(strings.NewReader(broken))
	if err != nil {
		t.Fatal(err)
	}
	if core.Check(doc2.Instance, doc2.Proof, bipartiteVerifier()).Accepted() {
		t.Error("broken colouring accepted")
	}
}

// bipartiteVerifier is a local copy to avoid importing schemes (which
// would be fine, but keeps this package's dependencies minimal).
func bipartiteVerifier() core.Verifier {
	return core.VerifierFunc{R: 1, F: func(w *core.View) bool {
		my := w.ProofOf(w.Center)
		if my.Len() != 1 {
			return false
		}
		for _, u := range w.Neighbors(w.Center) {
			p := w.ProofOf(u)
			if p.Len() != 1 || p.Bit(0) == my.Bit(0) {
				return false
			}
		}
		return true
	}}
}

// TestWriteRefusesUnrepresentable: Write fails on what the format cannot
// hold — an edge label other than the solution mark, a node label or
// Global key that is not one token — instead of writing a document that
// parses into a different instance. Parse never produces such
// instances, so they are built directly. An '=' is one token's worth
// ("label=a=b" reads back as "a=b"), so it writes.
func TestWriteRefusesUnrepresentable(t *testing.T) {
	base := func() *core.Instance { return core.NewInstance(graph.Cycle(4)) }
	for _, tc := range []struct {
		name string
		in   *core.Instance
		want string
	}{
		{"edge-label", func() *core.Instance {
			in := base()
			in.EdgeLabel = map[graph.Edge]string{{U: 1, V: 2}: "x"}
			return in
		}(), "edge 1-2"},
		{"node-label-hash", base().SetNodeLabel(3, "#"), "node 3"},
		{"node-label-space", base().SetNodeLabel(3, "a b"), "node 3"},
		{"node-label-newline", base().SetNodeLabel(3, "a\nb"), "node 3"},
		{"global-key-space", func() *core.Instance {
			in := base()
			in.Global = core.Global{"k 1": 3}
			return in
		}(), "global key"},
		{"global-key-hash", func() *core.Instance {
			in := base()
			in.Global = core.Global{"#k": 3}
			return in
		}(), "global key"},
		{"global-key-empty", func() *core.Instance {
			in := base()
			in.Global = core.Global{"": 3}
			return in
		}(), "global key"},
	} {
		var buf bytes.Buffer
		err := Write(&buf, &Document{Instance: tc.in})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: Write error %v, want one naming %q", tc.name, err, tc.want)
		}
		if buf.Len() != 0 {
			t.Fatalf("%s: Write wrote %q before failing", tc.name, buf.String())
		}
	}
	// What the format holds still writes: the mark, token labels (an
	// '=' included), an empty label, token keys.
	in := base().SetNodeLabel(1, "s").SetNodeLabel(2, "").SetNodeLabel(3, "a=b").MarkEdge(1, 2)
	in.Global = core.Global{"k=1": 3}
	var buf bytes.Buffer
	if err := Write(&buf, &Document{Instance: in}); err != nil {
		t.Fatalf("representable instance: %v", err)
	}
	doc, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := doc.Instance
	if got.NodeLabel[1] != "s" || got.NodeLabel[3] != "a=b" || got.EdgeLabel[graph.Edge{U: 1, V: 2}] != core.EdgeInSolution || got.Global["k=1"] != 3 {
		t.Fatalf("round trip lost input: %+v", doc.Instance)
	}
}

// TestRoundTripDirectedMarkOnReversedArc: labels and weights are keyed
// by the normalized edge on directed graphs too, so an arc from the
// larger to the smaller identifier keeps its mark and weight.
func TestRoundTripDirectedMarkOnReversedArc(t *testing.T) {
	in := core.NewInstance(graph.NewBuilder(graph.Directed).AddEdge(2, 1).Graph()).MarkEdge(2, 1)
	in.Weights = map[graph.Edge]int64{graph.NormEdge(2, 1): 7}
	var buf bytes.Buffer
	if err := Write(&buf, &Document{Instance: in}); err != nil {
		t.Fatal(err)
	}
	doc, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	key := graph.Edge{U: 1, V: 2}
	if doc.Instance.EdgeLabel[key] != core.EdgeInSolution || doc.Instance.Weights[key] != 7 {
		t.Fatalf("reversed arc lost its mark or weight: labels %v weights %v", doc.Instance.EdgeLabel, doc.Instance.Weights)
	}
}
