package remote_test

import (
	"context"
	"reflect"
	"testing"

	"lcp/internal/core"
	"lcp/internal/dist"
	"lcp/internal/graph"
	"lcp/internal/remote"
)

// inputScheme's radius-1 verifier rejects any input it sees in its
// view: a node label, an edge label, a weight, a global. The inputs a
// runtime drops or alters therefore show up as verdicts.
type inputScheme struct{}

func (inputScheme) Name() string { return "test-input" }
func (inputScheme) Verifier() core.Verifier {
	return core.VerifierFunc{R: 1, F: func(w *core.View) bool {
		if len(w.Global) > 0 {
			return false
		}
		for _, u := range w.Nodes() {
			if w.Label(u) != "" {
				return false
			}
			for _, x := range w.Neighbors(u) {
				if w.EdgeLabel(u, x) != "" || w.Weight(u, x) != 0 {
					return false
				}
			}
		}
		return true
	}}
}
func (inputScheme) Prove(*core.Instance) (core.Proof, error) { return core.Proof{}, nil }

// inputCases are 8-cycles carrying one input each, among them inputs
// a text document cannot hold (an edge label other than the solution
// mark, node labels with '#' or whitespace) and directed cycles whose
// only input sits on an arc from a larger id to a smaller one.
func inputCases() map[string]*core.Instance {
	cycle := func() *core.Instance { return core.NewInstance(graph.Cycle(8)) }
	edgeLabel := cycle()
	edgeLabel.EdgeLabel = map[graph.Edge]string{{U: 1, V: 2}: "x"}
	weight := cycle()
	weight.Weights = map[graph.Edge]int64{{U: 5, V: 6}: 4}
	global := cycle()
	global.Global = core.Global{"k": 1}
	b := graph.NewBuilder(graph.Directed)
	for v := 1; v <= 8; v++ {
		b.AddEdge(v, v%8+1)
	}
	directed := core.NewInstance(b.Graph()).SetNodeLabel(3, "a b").MarkEdge(6, 7)
	directed.Weights = map[graph.Edge]int64{{U: 1, V: 2}: -3}
	// The only input sits on arc 8→1, from the larger id to the smaller:
	// it is keyed normalized, {1, 8}, which is not an arc.
	reversedMark := core.NewInstance(b.Graph()).MarkEdge(8, 1)
	reversedWeight := core.NewInstance(b.Graph())
	reversedWeight.Weights = map[graph.Edge]int64{graph.NormEdge(8, 1): 5}
	return map[string]*core.Instance{
		"edge-label":          edgeLabel,
		"label-hash":          cycle().SetNodeLabel(3, "#"),
		"label-space":         cycle().SetNodeLabel(3, "a b"),
		"weight":              weight,
		"global":              global,
		"directed":            directed,
		"reversed-arc-mark":   reversedMark,
		"reversed-arc-weight": reversedWeight,
	}
}

// TestCoordinatorKeepsEveryInput: core, dist and dist-tcp give the same
// verdicts on instances whose inputs only some nodes see — every input
// reaches the workers as it is, whatever it contains.
func TestCoordinatorKeepsEveryInput(t *testing.T) {
	addrs, _ := startFleet(t, 2, map[string]core.Scheme{"test-input": inputScheme{}})
	ctx := context.Background()
	v := inputScheme{}.Verifier()
	for name, in := range inputCases() {
		t.Run(name, func(t *testing.T) {
			want := core.Check(in, core.Proof{}, v)
			if want.Accepted() {
				t.Fatal("no node sees the input")
			}
			got, err := dist.CheckWithCtx(ctx, in, core.Proof{}, v, dist.Options{Shards: 2})
			if err != nil {
				t.Fatalf("dist: %v", err)
			}
			if !reflect.DeepEqual(got.Outputs, want.Outputs) {
				t.Fatalf("dist outputs differ:\n got %v\nwant %v", got.Outputs, want.Outputs)
			}
			coord, err := remote.DialCoordinator(ctx, "inputs-"+name, addrs, remote.Options{})
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer coord.Close()
			if err := coord.Register(ctx, in, "test-input"); err != nil {
				t.Fatalf("register: %v", err)
			}
			res, _, err := coord.Check(ctx, core.Proof{})
			if err != nil {
				t.Fatalf("check: %v", err)
			}
			if !reflect.DeepEqual(res.Outputs, want.Outputs) {
				t.Fatalf("dist-tcp outputs differ:\n got %v\nwant %v", res.Outputs, want.Outputs)
			}
		})
	}
}
