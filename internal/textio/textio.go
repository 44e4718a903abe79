// Package textio implements a line-oriented text format for LCP
// instances and proofs, so that certificates can be generated by one
// party, shipped, and verified by another (cmd/lcpverify).
//
// Format (one directive per line, '#' comments):
//
//	graph undirected            # or: graph directed
//	node 7                      # optional; edges add endpoints implicitly
//	node 3 label=s              # input label
//	edge 1 2                    # options: mark  weight=5
//	global k 3                  # global input (k, W, …)
//	scheme bipartite            # scheme name, for self-describing files
//	proof 1 0110                # proof bits per node ('' = empty proof ε)
package textio

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"unicode"

	"lcp/internal/bitstr"
	"lcp/internal/core"
	"lcp/internal/graph"
)

// Document is a parsed instance file.
type Document struct {
	Instance   *core.Instance
	Proof      core.Proof
	SchemeName string
}

// Parse reads a document from r. Loading is streaming and map-free on
// the graph side: node and edge directives accumulate into flat slices
// and the graph is frozen once at the end through graph.FromEdges (one
// sort+dedup pass straight into CSR form), so a million-node instance
// costs no per-edge map insertions. Labels, weights, and proofs keep
// their map representation — that is what core.Instance carries.
func Parse(r io.Reader) (*Document, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	kind := graph.Undirected
	sawGraph := false
	var nodes []int
	var edges []graph.Edge
	nodeLabels := map[int]string{}
	edgeLabels := map[graph.Edge]string{}
	weights := map[graph.Edge]int64{}
	global := core.Global{}
	proof := core.Proof{}
	scheme := ""
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "graph":
			if sawGraph {
				return nil, fmt.Errorf("line %d: duplicate graph directive", lineNo)
			}
			sawGraph = true
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: graph needs a kind", lineNo)
			}
			switch fields[1] {
			case "undirected":
				kind = graph.Undirected
			case "directed":
				kind = graph.Directed
			default:
				return nil, fmt.Errorf("line %d: unknown graph kind %q", lineNo, fields[1])
			}
			// The kind directive opens a fresh graph, matching the
			// historic builder-reset semantics.
			nodes, edges = nil, nil
		case "node":
			if len(fields) < 2 {
				return nil, fmt.Errorf("line %d: node needs an id", lineNo)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil || id <= 0 {
				return nil, fmt.Errorf("line %d: bad node id %q", lineNo, fields[1])
			}
			nodes = append(nodes, id)
			for _, opt := range fields[2:] {
				if v, ok := strings.CutPrefix(opt, "label="); ok {
					nodeLabels[id] = v
				} else {
					return nil, fmt.Errorf("line %d: unknown node option %q", lineNo, opt)
				}
			}
		case "edge":
			if len(fields) < 3 {
				return nil, fmt.Errorf("line %d: edge needs two endpoints", lineNo)
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("line %d: bad edge endpoints", lineNo)
			}
			// Validate what graph.Builder would otherwise panic on —
			// identifiers must be positive and the paper's graphs are
			// simple — so a parser fed wire input answers with an error,
			// not a crash (FuzzTextioRoundTrip pins this).
			if u <= 0 || v <= 0 {
				return nil, fmt.Errorf("line %d: edge endpoints must be positive", lineNo)
			}
			if u == v {
				return nil, fmt.Errorf("line %d: self-loop at node %d", lineNo, u)
			}
			if kind == graph.Directed {
				edges = append(edges, graph.Edge{U: u, V: v})
			} else {
				edges = append(edges, graph.NormEdge(u, v))
			}
			// Labels and weights are keyed by the normalized edge even on
			// directed graphs, matching how core.View resolves them.
			key := graph.NormEdge(u, v)
			for _, opt := range fields[3:] {
				switch {
				case opt == "mark":
					edgeLabels[key] = core.EdgeInSolution
				case strings.HasPrefix(opt, "weight="):
					w, err := strconv.ParseInt(opt[len("weight="):], 10, 64)
					if err != nil {
						return nil, fmt.Errorf("line %d: bad weight %q", lineNo, opt)
					}
					weights[key] = w
				default:
					return nil, fmt.Errorf("line %d: unknown edge option %q", lineNo, opt)
				}
			}
		case "global":
			if len(fields) != 3 {
				return nil, fmt.Errorf("line %d: global needs key and value", lineNo)
			}
			v, err := strconv.ParseInt(fields[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: bad global value %q", lineNo, fields[2])
			}
			global[fields[1]] = v
		case "scheme":
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: scheme needs a name", lineNo)
			}
			scheme = fields[1]
		case "proof":
			if len(fields) < 2 || len(fields) > 3 {
				return nil, fmt.Errorf("line %d: proof needs node id and bits", lineNo)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("line %d: bad proof node id", lineNo)
			}
			bits := ""
			if len(fields) == 3 {
				bits = fields[2]
			}
			s, err := parseBits(bits)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			proof[id] = s
		default:
			return nil, fmt.Errorf("line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	in := core.NewInstance(graph.FromEdges(kind, nodes, edges))
	if len(nodeLabels) > 0 {
		in.NodeLabel = nodeLabels
	}
	if len(edgeLabels) > 0 {
		in.EdgeLabel = edgeLabels
	}
	if len(weights) > 0 {
		in.Weights = weights
	}
	if len(global) > 0 {
		in.Global = global
	}
	for v := range proof {
		if !in.G.Has(v) {
			return nil, fmt.Errorf("proof references unknown node %d", v)
		}
	}
	return &Document{Instance: in, Proof: proof, SchemeName: scheme}, nil
}

func parseBits(s string) (bitstr.String, error) {
	var w bitstr.Writer
	for _, r := range s {
		switch r {
		case '0':
			w.WriteBit(false)
		case '1':
			w.WriteBit(true)
		default:
			return bitstr.Empty, fmt.Errorf("bad proof bit %q", r)
		}
	}
	return w.String(), nil
}

// Write renders a document in the same format Parse accepts. Input the
// format cannot hold (see representable) fails before anything is
// written, instead of writing a document that parses differently.
func Write(w io.Writer, doc *Document) error {
	in := doc.Instance
	if err := representable(in); err != nil {
		return err
	}
	kind := "undirected"
	if in.G.Directed() {
		kind = "directed"
	}
	if _, err := fmt.Fprintf(w, "graph %s\n", kind); err != nil {
		return err
	}
	if doc.SchemeName != "" {
		fmt.Fprintf(w, "scheme %s\n", doc.SchemeName)
	}
	for _, v := range in.G.Nodes() {
		if lab, ok := in.NodeLabel[v]; ok {
			fmt.Fprintf(w, "node %d label=%s\n", v, lab)
		} else if in.G.Degree(v) == 0 && (!in.G.Directed() || len(in.G.InNeighbors(v)) == 0) {
			fmt.Fprintf(w, "node %d\n", v)
		}
	}
	for _, e := range in.G.Edges() {
		line := fmt.Sprintf("edge %d %d", e.U, e.V)
		key := graph.NormEdge(e.U, e.V) // as Parse keys labels and weights
		if in.EdgeLabel[key] == core.EdgeInSolution {
			line += " mark"
		}
		if wt, ok := in.Weights[key]; ok {
			line += fmt.Sprintf(" weight=%d", wt)
		}
		fmt.Fprintln(w, line)
	}
	var gkeys []string
	for k := range in.Global {
		gkeys = append(gkeys, k)
	}
	sort.Strings(gkeys)
	for _, k := range gkeys {
		fmt.Fprintf(w, "global %s %d\n", k, in.Global[k])
	}
	var pnodes []int
	for v := range doc.Proof {
		pnodes = append(pnodes, v)
	}
	sort.Ints(pnodes)
	for _, v := range pnodes {
		fmt.Fprintf(w, "proof %d %s\n", v, doc.Proof[v].String())
	}
	return nil
}

// representable reports input the format cannot hold: an edge label
// other than the "mark" (an empty one reads as none), or a node label
// or Global key that is not one token of a directive. An '=' is
// harmless: Parse reads "label=a=b" as the label "a=b".
func representable(in *core.Instance) error {
	for e, l := range in.EdgeLabel {
		if l != "" && l != core.EdgeInSolution {
			return fmt.Errorf("textio: edge %d-%d: label %q cannot be written; only %q can", e.U, e.V, l, core.EdgeInSolution)
		}
	}
	for v, l := range in.NodeLabel {
		if !isToken(l) {
			return fmt.Errorf("textio: node %d: label %q contains whitespace or '#'", v, l)
		}
	}
	for k := range in.Global {
		if !isToken(k) || k == "" {
			return fmt.Errorf("textio: global key %q is empty or contains whitespace or '#'", k)
		}
	}
	return nil
}

// isToken reports whether s reads back from a directive unchanged.
func isToken(s string) bool {
	return !strings.ContainsRune(s, '#') && !strings.ContainsFunc(s, unicode.IsSpace)
}
