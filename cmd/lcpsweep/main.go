// Command lcpsweep measures the full proof pipeline — generate, write,
// load, prove, check — over a parameter grid of instance sizes, graph
// families, and checker configurations, and emits both a paper-style
// text table and a machine-readable BENCH_sweep.json. It is the scale
// companion to the micro-benchmarks in bench_test.go: where those pin
// single operations on small instances, lcpsweep demonstrates that the
// CSR graph core and the map-free ball construction hold up at
// n = 10^5–10^6.
//
// Each grid cell runs in a fresh subprocess (the binary re-executes
// itself with -cell), so one cell's heap cannot flatter or starve the
// next and a per-cell peak-memory reading is meaningful. The cell
// pipeline is end-to-end on purpose: the graph is generated, serialized
// to the textio wire format, parsed back (that parse is what a consumer
// of shipped certificates pays), proved with the leader-election scheme
// (a Θ(log n) certificate verified at radius 1 on any connected graph),
// and checked through the lcp.Checker façade on the requested backend.
//
//	lcpsweep                                   # default grid, table to stdout
//	lcpsweep -n 100000,1000000 -out BENCH_sweep.json
//	lcpsweep -families power-law -backends engine -n 1000000
//	lcpsweep -bench-diff                       # compare fresh benches to BENCH_*.json
//
// The dist backends spin up message-passing automata per node; above
// -max-dist-n (default 10^5) those cells are skipped rather than left
// to thrash, and the skip is reported in the table so a reader never
// mistakes an absent row for a measured one. The ceiling is a
// single-process limit: past it, the dist-tcp backend spreads the same
// check over lcpworker processes (see "Scaling out" in the README).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"lcp"
	"lcp/internal/config"
	"lcp/internal/partition"
	"lcp/internal/textio"
)

// cellResult is one grid cell's measurement, the unit of both the
// subprocess protocol (one JSON object on stdout) and the cells array
// of BENCH_sweep.json.
type cellResult struct {
	Family      string  `json:"family"`
	N           int     `json:"n"`
	Nodes       int     `json:"nodes"`
	Edges       int     `json:"edges"`
	Backend     string  `json:"backend"`
	Partitioner string  `json:"partitioner"`
	Shards      int     `json:"shards"`
	Seed        int64   `json:"seed"`
	GenMS       float64 `json:"gen_ms"`
	WriteMS     float64 `json:"write_ms"`
	LoadMS      float64 `json:"load_ms"`
	ProveMS     float64 `json:"prove_ms"`
	CheckMS     float64 `json:"check_ms"`
	CheckNsNode float64 `json:"check_ns_per_node"`
	ProofBits   int     `json:"proof_bits_total"`
	MaxProofBit int     `json:"proof_bits_max"`
	HeapSys     uint64  `json:"heap_sys_bytes"`
	TotalAlloc  uint64  `json:"total_alloc_bytes"`
	Accepted    bool    `json:"accepted"`
	Skipped     string  `json:"skipped,omitempty"`
}

// sweepFile is the BENCH_sweep.json schema. Unlike the BENCH_* files
// written by hand from `go test -bench` output, cells here carry
// per-stage wall times rather than ns/op, because a cell is a whole
// pipeline run, not an averaged operation.
type sweepFile struct {
	Description string       `json:"description"`
	Recorded    string       `json:"recorded"`
	Go          string       `json:"go"`
	CPU         string       `json:"cpu"`
	Command     string       `json:"command"`
	Cells       []cellResult `json:"cells"`
	Notes       []string     `json:"notes"`
}

func main() {
	var (
		cell         = flag.Bool("cell", false, "internal: run one grid cell and print its JSON result")
		benchDiff    = flag.Bool("bench-diff", false, "run the baselined benchmarks fresh and print ratios against BENCH_*.json")
		nList        = flag.String("n", "100000", "comma-separated instance sizes")
		families     = flag.String("families", "power-law,regular,road", "comma-separated graph families: power-law, regular, road")
		backends     = flag.String("backends", "core,dist,engine", "comma-separated checker backends: "+fmt.Sprint(config.Backends()))
		partitioners = flag.String("partitioners", "contiguous", "comma-separated partitioners for the dist backends: "+strings.Join(partition.Names(), ", "))
		shardsList   = flag.String("shards", "0", "comma-separated shard counts for the dist backends (0 = GOMAXPROCS, goroutine-per-node layout)")
		maxDistN     = flag.Int("max-dist-n", 100000, "largest n the message-passing backends attempt in-process; bigger cells are skipped (the dist-tcp backend scales past this ceiling by spreading shards over lcpworker processes)")
		seed         = flag.Int64("seed", 1, "base generator seed")
		out          = flag.String("out", "", "write BENCH_sweep.json-style output to this path")
		timeout      = flag.Duration("timeout", 10*time.Minute, "per-cell timeout")
		family       = flag.String("family", "", "internal (-cell): graph family")
		cellN        = flag.Int("cell-n", 0, "internal (-cell): instance size")
		backend      = flag.String("backend", "", "internal (-cell): checker backend")
		partitioner  = flag.String("partitioner", "", "internal (-cell): partitioner name, or - for shared-memory backends")
		shards       = flag.Int("cell-shards", 0, "internal (-cell): shard count")
		cellSeed     = flag.Int64("cell-seed", 1, "internal (-cell): generator seed")
	)
	flag.Parse()

	var err error
	switch {
	case *cell:
		err = runCell(*family, *cellN, *backend, *partitioner, *shards, *cellSeed)
	case *benchDiff:
		err = runBenchDiff(flag.Args())
	default:
		err = runSweep(*nList, *families, *backends, *partitioners, *shardsList, *maxDistN, *seed, *out, *timeout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lcpsweep:", err)
		os.Exit(1)
	}
}

// ---------------------------------------------------------------------
// Cell mode: one pipeline run in an isolated process.

// generate builds the requested family at size n. The road family
// interprets n as a target: the lattice side is round(sqrt n), so the
// actual node count can differ by a fraction of a percent (the result
// reports the real count).
func generate(family string, n int, seed int64) (*lcp.Graph, error) {
	switch family {
	case "power-law":
		return lcp.PowerLaw(n, 4, seed), nil
	case "regular":
		return lcp.RandomRegular(n, 4, seed), nil
	case "road":
		side := int(math.Round(math.Sqrt(float64(n))))
		if side < 1 {
			side = 1
		}
		return lcp.RoadNetwork(side, side, n/100, seed), nil
	default:
		return nil, fmt.Errorf("unknown family %q (want power-law, regular, road)", family)
	}
}

func runCell(family string, n int, backend, partitioner string, shards int, seed int64) error {
	res := cellResult{
		Family: family, N: n, Backend: backend,
		Partitioner: partitioner, Shards: shards, Seed: seed,
	}
	scheme := lcp.LeaderElectionScheme()

	t0 := time.Now()
	g, err := generate(family, n, seed)
	if err != nil {
		return err
	}
	res.GenMS = msSince(t0)

	// Serialize to the wire format and parse it back: the parsed
	// instance, not the generated one, feeds prove and check, so the
	// load stage is load-bearing, not decorative.
	tmp, err := os.CreateTemp("", "lcpsweep-*.lcp")
	if err != nil {
		return err
	}
	defer func() {
		if rmErr := os.Remove(tmp.Name()); rmErr != nil {
			fmt.Fprintln(os.Stderr, "lcpsweep:", rmErr)
		}
	}()
	t0 = time.Now()
	in0 := lcp.NewInstance(g)
	// Leader-election wants exactly one node carrying the leader label;
	// node 1 exists in every family (identifiers are dense 1..n).
	in0.NodeLabel = map[int]string{1: lcp.LabelLeader}
	doc := &textio.Document{Instance: in0, SchemeName: scheme.Name()}
	if err := textio.Write(tmp, doc); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	res.WriteMS = msSince(t0)

	t0 = time.Now()
	f, err := os.Open(tmp.Name())
	if err != nil {
		return err
	}
	loaded, err := textio.Parse(f)
	if closeErr := f.Close(); err == nil {
		err = closeErr
	}
	if err != nil {
		return err
	}
	res.LoadMS = msSince(t0)
	in := loaded.Instance
	res.Nodes = in.G.N()
	res.Edges = in.G.M()

	t0 = time.Now()
	proof, err := lcp.Prove(scheme, in)
	if err != nil {
		return err
	}
	res.ProveMS = msSince(t0)
	for _, bits := range proof {
		res.ProofBits += bits.Len()
		if bits.Len() > res.MaxProofBit {
			res.MaxProofBit = bits.Len()
		}
	}

	opts := []lcp.CheckerOption{lcp.WithScheme(scheme), lcp.WithBackend(backend)}
	if partitioner != "" && partitioner != "-" {
		p, err := partition.ByName(partitioner)
		if err != nil {
			return err
		}
		opts = append(opts, lcp.WithPartitioner(p))
	}
	if shards > 0 {
		opts = append(opts, lcp.WithShards(shards))
	}
	checker, err := lcp.NewChecker(in, opts...)
	if err != nil {
		return err
	}
	t0 = time.Now()
	report, err := checker.Check(context.Background(), proof)
	if err != nil {
		return err
	}
	res.CheckMS = msSince(t0)
	if res.Nodes > 0 {
		res.CheckNsNode = res.CheckMS * 1e6 / float64(res.Nodes)
	}
	res.Accepted = report.Accepted()
	if !res.Accepted {
		return fmt.Errorf("%s n=%d on %s: honest proof rejected", family, n, backend)
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.HeapSys = ms.Sys
	res.TotalAlloc = ms.TotalAlloc

	enc := json.NewEncoder(os.Stdout)
	return enc.Encode(res)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// ---------------------------------------------------------------------
// Driver mode: expand the grid, run cells in subprocesses, aggregate.

// gridCell is one planned run before execution.
type gridCell struct {
	family, backend, partitioner string
	n, shards                    int
	skip                         string // non-empty: recorded but not run
}

// distBackend reports whether the backend spins up message-passing
// automata, which is what makes partitioner/shards meaningful and the
// per-node cost high enough to cap n.
func distBackend(b string) bool {
	return b == lcp.BackendDist
}

// expandGrid crosses the parameter lists. Shared-memory backends take
// one cell per (family, n) — partitioner and shards do not apply — while
// the dist backends cross both, capped at maxDistN.
func expandGrid(ns []int, families, backends, parts []string, shardCounts []int, maxDistN int) []gridCell {
	var cells []gridCell
	for _, fam := range families {
		for _, n := range ns {
			for _, b := range backends {
				if !distBackend(b) {
					cells = append(cells, gridCell{family: fam, n: n, backend: b, partitioner: "-"})
					continue
				}
				skip := ""
				if n > maxDistN {
					skip = fmt.Sprintf("n > -max-dist-n=%d (single-process cap; dist-tcp + lcpworker fleet scales past it)", maxDistN)
				}
				for _, p := range parts {
					for _, s := range shardCounts {
						cells = append(cells, gridCell{family: fam, n: n, backend: b, partitioner: p, shards: s, skip: skip})
					}
				}
			}
		}
	}
	return cells
}

func runSweep(nList, families, backends, partitioners, shardsList string, maxDistN int, seed int64, out string, timeout time.Duration) error {
	ns, err := splitInts(nList)
	if err != nil {
		return fmt.Errorf("-n: %v", err)
	}
	shardCounts, err := splitInts(shardsList)
	if err != nil {
		return fmt.Errorf("-shards: %v", err)
	}
	cells := expandGrid(ns, splitList(families), splitList(backends), splitList(partitioners), shardCounts, maxDistN)
	if len(cells) == 0 {
		return fmt.Errorf("empty grid")
	}

	self, err := os.Executable()
	if err != nil {
		return err
	}
	results := make([]cellResult, 0, len(cells))
	for i, c := range cells {
		if c.skip != "" {
			results = append(results, cellResult{
				Family: c.family, N: c.n, Backend: c.backend,
				Partitioner: c.partitioner, Shards: c.shards, Seed: seed,
				Skipped: c.skip,
			})
			continue
		}
		fmt.Fprintf(os.Stderr, "[%d/%d] %s n=%d backend=%s partitioner=%s shards=%d\n",
			i+1, len(cells), c.family, c.n, c.backend, c.partitioner, c.shards)
		res, err := runCellSubprocess(self, c, seed, timeout)
		if err != nil {
			return fmt.Errorf("cell %s n=%d backend=%s: %v", c.family, c.n, c.backend, err)
		}
		results = append(results, res)
	}

	printTable(os.Stdout, results)
	if out != "" {
		if err := writeSweepFile(out, results); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d cells)\n", out, len(results))
	}
	return nil
}

func runCellSubprocess(self string, c gridCell, seed int64, timeout time.Duration) (cellResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self,
		"-cell",
		"-family", c.family,
		"-cell-n", strconv.Itoa(c.n),
		"-backend", c.backend,
		"-partitioner", c.partitioner,
		"-cell-shards", strconv.Itoa(c.shards),
		"-cell-seed", strconv.FormatInt(seed, 10),
	)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return cellResult{}, err
	}
	var res cellResult
	if err := json.Unmarshal(outBytes, &res); err != nil {
		return cellResult{}, fmt.Errorf("bad cell output %q: %v", outBytes, err)
	}
	return res, nil
}

// printTable renders the paper-style summary: one row per cell, stage
// wall times in milliseconds, the per-node check cost, and peak memory.
func printTable(w *os.File, results []cellResult) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "FAMILY\tN\tM\tBACKEND\tPART\tSHARDS\tLOAD ms\tPROVE ms\tCHECK ms\tns/NODE\tPROOF b/NODE\tMEM MB")
	for _, r := range results {
		if r.Skipped != "" {
			fmt.Fprintf(tw, "%s\t%d\t-\t%s\t%s\t%d\tskipped: %s\n",
				r.Family, r.N, r.Backend, r.Partitioner, r.Shards, r.Skipped)
			continue
		}
		bitsPerNode := 0.0
		if r.Nodes > 0 {
			bitsPerNode = float64(r.ProofBits) / float64(r.Nodes)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%s\t%d\t%.0f\t%.0f\t%.0f\t%.0f\t%.1f\t%d\n",
			r.Family, r.Nodes, r.Edges, r.Backend, r.Partitioner, r.Shards,
			r.LoadMS, r.ProveMS, r.CheckMS, r.CheckNsNode, bitsPerNode,
			r.HeapSys/(1<<20))
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "lcpsweep:", err)
	}
}

func writeSweepFile(path string, results []cellResult) error {
	sf := sweepFile{
		Description: "End-to-end pipeline sweep (generate -> textio write -> parse -> prove -> check) over instance size x graph family x checker backend x partitioner x shards, one subprocess per cell. Scheme: leader-election (radius-1 verifier, Theta(log n) proof). Stage times are wall-clock milliseconds for the whole stage, not per-op averages.",
		Recorded:    time.Now().Format("2006-01-02"),
		Go:          runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
		CPU:         cpuModel(),
		Command:     strings.Join(os.Args, " "),
		Cells:       results,
		Notes: []string{
			"road interprets n as a target: the lattice side is round(sqrt n), so nodes can differ from n by a fraction of a percent.",
			"heap_sys_bytes is runtime.MemStats.Sys at the end of the cell process: the high-water mark of memory obtained from the OS, a proxy for peak footprint.",
			"skipped cells record why they did not run (dist backends are capped by -max-dist-n); absence of a number is never silent.",
		},
	}
	data, err := json.MarshalIndent(sf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// cpuModel reads the CPU model name for the JSON header, so recorded
// numbers carry their hardware context like the hand-written BENCH_*
// files do.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func splitInts(s string) ([]int, error) {
	var out []int
	for _, f := range splitList(s) {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

// repoRoot locates the module root (the directory holding go.mod) so
// -bench-diff can run the baselines' recorded commands from anywhere in
// the tree.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
