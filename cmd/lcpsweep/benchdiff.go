package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Bench-diff mode: re-run the benchmarks each BENCH_*.json baseline was
// recorded with and print fresh/baseline ratios. The baseline files are
// the repo's performance ledger — every perf-relevant PR either beats
// them or explains itself in an "updates" entry — and this mode is how
// that comparison stops being a by-hand ritual: `make bench-diff` runs
// it against every ledger file at once.

// benchEntry is one benchmark line of a BENCH_*.json file. The ns key
// has two historical spellings (ns_per_op in BENCH_dist.json,
// ns_per_proof in BENCH_engine.json); both decode here.
type benchEntry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	NsPerProof  float64 `json:"ns_per_proof"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

func (b benchEntry) ns() float64 {
	if b.NsPerOp != 0 {
		return b.NsPerOp
	}
	return b.NsPerProof
}

// benchFile is the subset of the BENCH_*.json schema bench-diff needs:
// the recorded command, the base measurements, and the updates ledger
// (later entries supersede earlier ones per benchmark name, and an
// entry's retired rows drop out of the comparison).
type benchFile struct {
	Command    string       `json:"command"`
	Benchmarks []benchEntry `json:"benchmarks"`
	Updates    []struct {
		Command    string       `json:"command"`
		Benchmarks []benchEntry `json:"benchmarks"`
		Retired    []struct {
			Name string `json:"name"`
		} `json:"retired"`
	} `json:"updates"`
}

// freshResult is one parsed line of `go test -bench` output.
type freshResult struct {
	ns        float64
	nsPerUnit float64 // the ns/proof custom metric, when reported
	allocs    float64
	hasMem    bool
}

// benchLine matches one result line of `go test -bench -benchmem`
// output. The ns/proof custom metric (reported by the batch benches and
// recorded as ns_per_proof in BENCH_engine.json) and the -benchmem
// columns are both optional, so ns-only baselines
// (BENCH_partition.json) still diff.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:\s+([\d.]+) ns/proof)?(?:\s+([\d.]+) B/op\s+([\d.]+) allocs/op)?`)

func runBenchDiff(paths []string) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		all, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
		if err != nil {
			return err
		}
		for _, p := range all {
			if filepath.Base(p) == "BENCH_sweep.json" {
				continue // pipeline cells, not go-test benchmarks
			}
			paths = append(paths, p)
		}
	}
	if len(paths) == 0 {
		return fmt.Errorf("no BENCH_*.json baselines found under %s", root)
	}
	sort.Strings(paths)

	type baseline struct {
		entry benchEntry
		file  string
	}
	baselines := map[string]baseline{} // benchmark name -> effective baseline
	commands := map[string]bool{}      // deduplicated commands to run
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var bf benchFile
		if err := json.Unmarshal(data, &bf); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		record := func(entries []benchEntry) {
			for _, e := range entries {
				if e.Name != "" && e.ns() != 0 {
					baselines[e.Name] = baseline{entry: e, file: filepath.Base(path)}
				}
			}
		}
		record(bf.Benchmarks)
		if bf.Command != "" {
			commands[bf.Command] = true
		}
		// Every command ever recorded runs (deduplicated), not just the
		// latest: an updates entry that re-baselined one benchmark with
		// a narrower command must not silently drop coverage of the
		// rows it left alone.
		for _, u := range bf.Updates {
			if u.Command != "" {
				commands[u.Command] = true
			}
			record(u.Benchmarks)
			for _, r := range u.Retired {
				delete(baselines, r.Name)
			}
		}
	}

	fresh := map[string]freshResult{}
	var cmdList []string
	for c := range commands {
		cmdList = append(cmdList, c)
	}
	sort.Strings(cmdList)
	for _, c := range cmdList {
		fmt.Fprintf(os.Stderr, "running: %s\n", c)
		cmd := exec.Command("sh", "-c", c)
		cmd.Dir = root
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("bench command failed: %s: %v", c, err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
			if m == nil {
				continue
			}
			ns, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				continue
			}
			r := freshResult{ns: ns}
			if m[3] != "" {
				if perUnit, err := strconv.ParseFloat(m[3], 64); err == nil {
					r.nsPerUnit = perUnit
				}
			}
			if m[5] != "" {
				if allocs, err := strconv.ParseFloat(m[5], 64); err == nil {
					r.allocs = allocs
					r.hasMem = true
				}
			}
			fresh[m[1]] = r
		}
	}

	var names []string
	for name := range baselines {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "BENCHMARK\tBASE ns/op\tFRESH ns/op\tRATIO\tBASE allocs\tFRESH allocs\tFILE")
	regressions := 0
	for _, name := range names {
		b := baselines[name]
		f, ok := fresh[name]
		if !ok {
			fmt.Fprintf(tw, "%s\t%.0f\t(no fresh result)\t-\t-\t-\t%s\n", name, b.entry.ns(), b.file)
			continue
		}
		// A ns_per_proof baseline compares against the fresh ns/proof
		// metric, never the whole-batch ns/op.
		freshNs := f.ns
		if b.entry.NsPerOp == 0 && b.entry.NsPerProof != 0 {
			if f.nsPerUnit == 0 {
				fmt.Fprintf(tw, "%s\t%.0f\t(no fresh ns/proof)\t-\t-\t-\t%s\n", name, b.entry.ns(), b.file)
				continue
			}
			freshNs = f.nsPerUnit
		}
		ratio := freshNs / b.entry.ns()
		marker := ""
		if ratio > 1.20 {
			marker = "  <- regression?"
			regressions++
		}
		allocsBase, allocsFresh := "-", "-"
		if b.entry.AllocsPerOp != 0 {
			allocsBase = strconv.FormatFloat(b.entry.AllocsPerOp, 'f', 0, 64)
		}
		if f.hasMem {
			allocsFresh = strconv.FormatFloat(f.allocs, 'f', 0, 64)
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%.2fx%s\t%s\t%s\t%s\n",
			name, b.entry.ns(), freshNs, ratio, marker, allocsBase, allocsFresh, b.file)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if regressions > 0 {
		fmt.Printf("\n%d benchmark(s) above 1.20x baseline. Wall-clock ratios are noisy on shared machines; allocs/op is the stable signal. If real, add an updates entry to the BENCH file explaining the change.\n", regressions)
	}
	return nil
}
