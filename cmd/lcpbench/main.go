// Command lcpbench regenerates Table 1 of Göös & Suomela (PODC 2011):
// for every catalogued row it generates yes-instances across a range of
// sizes, runs the prover and the local verifier, measures the proof size
// in bits per node, and fits the observed growth against the paper's
// bound (0, Θ(1), Θ(log n), Θ(n), Θ(n²)). It exits 1 when any cell
// reads ERR (the prover failed), REJ (the verifier rejected an honest
// proof) or DREJ (the message-passing runtime did).
//
// Usage:
//
//	lcpbench [-sizes 16,32,64,128] [-seed 1] [-verify-distributed]
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"lcp"
)

func main() {
	sizesFlag := flag.String("sizes", "16,32,64,128", "comma-separated instance sizes")
	seed := flag.Int64("seed", 1, "generator seed")
	distributed := flag.Bool("verify-distributed", false, "run verifiers on the message-passing runtime too")
	flag.Parse()

	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lcpbench:", err)
		os.Exit(2)
	}

	fmt.Println("Reproduction of Table 1, Göös & Suomela, \"Locally Checkable Proofs\" (PODC 2011)")
	fmt.Println("Measured: maximum proof size (bits per node) of the implemented scheme.")
	fmt.Println()
	header := fmt.Sprintf("%-8s %-28s %-10s %-18s", "id", "row", "family", "paper bound")
	for _, n := range sizes {
		header += fmt.Sprintf(" %9s", fmt.Sprintf("n≈%d", n))
	}
	header += "  fitted growth"
	fmt.Println(header)
	fmt.Println(strings.Repeat("-", len(header)+4))

	section, failed := "", false
	for _, exp := range lcp.Catalog() {
		if sec := exp.ID[:3]; sec != section {
			section = sec
			if section == "T1a" {
				fmt.Println("Table 1(a): graph properties")
			} else {
				fmt.Println("Table 1(b): solutions of graph problems")
			}
		}
		row := fmt.Sprintf("%-8s %-28s %-10s %-18s", exp.ID, exp.Row, exp.Family, exp.Bound)
		var ns, bits []float64
		ok := true
		for _, n := range sizes {
			if n < exp.MinN {
				n = exp.MinN
			}
			in := exp.MakeYes(n, *seed)
			proof, err := exp.Scheme.Prove(in)
			if err != nil {
				row += fmt.Sprintf(" %9s", "ERR")
				ok = false
				continue
			}
			chk, cerr := lcp.NewChecker(in, lcp.WithScheme(exp.Scheme))
			if cerr != nil {
				row += fmt.Sprintf(" %9s", "ERR")
				ok = false
				continue
			}
			rep, cerr := chk.Check(context.Background(), proof)
			if cerr != nil || !rep.Accepted() {
				row += fmt.Sprintf(" %9s", "REJ")
				ok = false
				continue
			}
			if *distributed {
				dchk, derr := lcp.NewChecker(in, lcp.WithScheme(exp.Scheme), lcp.WithBackend(lcp.BackendDist))
				var drep *lcp.Report
				if derr == nil {
					drep, derr = dchk.Check(context.Background(), proof)
				}
				if derr != nil || !drep.Accepted() {
					row += fmt.Sprintf(" %9s", "DREJ")
					ok = false
					continue
				}
			}
			row += fmt.Sprintf(" %9d", proof.Size())
			ns = append(ns, float64(in.G.N()))
			bits = append(bits, float64(proof.Size()))
		}
		fit := "-"
		if ok && len(ns) >= 3 {
			fit = classifyGrowth(ns, bits)
		}
		fmt.Printf("%s  %s\n", row, fit)
		failed = failed || !ok
	}
	fmt.Println()
	failed = !sweepParameterRows() || failed
	fmt.Println()
	fmt.Println("T1a-19 (connected graph, general family: no proof size suffices) is")
	fmt.Println("demonstrated by `lcpglue -experiment union`.")
	if failed {
		fmt.Fprintln(os.Stderr, "lcpbench: some cells read ERR, REJ or DREJ")
		os.Exit(1)
	}
}

// sweepParameterRows measures the O(log k) and O(log W) rows in their own
// parameter, which the main table (a sweep over n) cannot show. It
// reports whether every prover succeeded.
func sweepParameterRows() bool {
	ok := true
	fmt.Println("Parameter sweeps (bounds in k and W rather than n):")
	fmt.Println()
	fmt.Println("T1a-09  s-t connectivity = k on K_{k,k} (general family, O(log k)):")
	fmt.Printf("  %8s %12s\n", "k", "bits/node")
	for _, k := range []int{2, 4, 8, 16, 32} {
		g := lcp.CompleteBipartite(k, k)
		in := lcp.NewInstance(g).SetNodeLabel(1, lcp.LabelS).SetNodeLabel(2, lcp.LabelT)
		in.Global = lcp.Global{lcp.GlobalK: int64(k)}
		proof, err := lcp.STConnectivityScheme().Prove(in)
		if err != nil {
			fmt.Printf("  %8d %12s (%v)\n", k, "ERR", err)
			ok = false
			continue
		}
		fmt.Printf("  %8d %12d\n", k, proof.Size())
	}
	fmt.Println()
	fmt.Println("T1b-05  max-weight matching on K_{4,4} (O(log W)):")
	fmt.Printf("  %8s %12s\n", "W", "bits/node")
	for _, w := range []int64{1, 15, 255, 4095, 65535} {
		g := lcp.CompleteBipartite(4, 4)
		in := lcp.NewInstance(g)
		in.Weights = map[lcp.Edge]int64{}
		for _, e := range g.Edges() {
			in.Weights[e] = w // uniform: any perfect matching is optimal
		}
		for i := 1; i <= 4; i++ {
			in.MarkEdge(i, i+4)
		}
		in.Global = lcp.Global{lcp.GlobalW: w}
		proof, err := lcp.MaxWeightMatchingScheme().Prove(in)
		if err != nil {
			fmt.Printf("  %8d %12s (%v)\n", w, "ERR", err)
			ok = false
			continue
		}
		fmt.Printf("  %8d %12d\n", w, proof.Size())
	}
	return ok
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 3 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no sizes given")
	}
	return out, nil
}

// classifyGrowth fits measured bits-per-node against affine models
// a + b·f(n) for f ∈ {log n, n, n²} plus the constant model, and returns
// the best label. The intercept matters: the Θ(log n) certificates carry
// sizeable additive headers that would otherwise mask the slope.
func classifyGrowth(ns, bits []float64) string {
	if maxOf(bits) == 0 {
		return "0"
	}
	if maxOf(bits) == minOf(bits) {
		return "Θ(1)"
	}
	shapes := []struct {
		name string
		f    func(n float64) float64
	}{
		{"Θ(log n)", func(n float64) float64 { return math.Log2(n + 1) }},
		{"Θ(n)", func(n float64) float64 { return n }},
		{"Θ(n²)", func(n float64) float64 { return n * n }},
	}
	best, bestErr := "Θ(1)", affineRSS(ns, bits, func(float64) float64 { return 0 })
	for _, s := range shapes {
		if rss := affineRSS(ns, bits, s.f); rss < bestErr {
			bestErr = rss
			best = s.name
		}
	}
	return best
}

// affineRSS fits bits ≈ a + b·f(n) by least squares and returns the
// residual sum of squares (relative). A zero function fits the constant
// model.
func affineRSS(ns, bits []float64, f func(float64) float64) float64 {
	n := float64(len(ns))
	var sf, sb, sff, sfb float64
	for i := range ns {
		x := f(ns[i])
		sf += x
		sb += bits[i]
		sff += x * x
		sfb += x * bits[i]
	}
	den := n*sff - sf*sf
	var a, b float64
	if den == 0 {
		a, b = sb/n, 0
	} else {
		b = (n*sfb - sf*sb) / den
		a = (sb - b*sf) / n
		if b < 0 {
			// Proof sizes do not shrink with n; a negative slope means
			// the shape is wrong.
			a, b = sb/n, 0
		}
	}
	var rss float64
	for i := range ns {
		d := bits[i] - a - b*f(ns[i])
		rss += d * d / (bits[i]*bits[i] + 1)
	}
	return rss
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}
