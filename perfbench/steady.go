package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchmarkDef is the part of BENCHMARK.json steadiness reads.
type benchmarkDef struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadySet is the last line --steady prints: every run's values.
type steadySet struct {
	Values map[string][]float64 `json:"values"`
}

// runSteady runs the workload n times with seeds seed..seed+n-1 and
// prints, per metric, the median, the quartiles and the spread
// (q3-q1)/median against the metric's bound. That spread is what the
// bounds are set from and checked against; set-up time is exempt, as
// it is only compared across commits. A non-empty against names the
// saved output of an earlier --steady set; each median is then also
// compared with that set's, which must agree within the bound.
func runSteady(workload string, seed int64, n, trace int, benchPath, against, worker, workdir string) error {
	if n < 2 {
		return fmt.Errorf("--steady needs at least 2 runs")
	}
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var def benchmarkDef
	if err := json.Unmarshal(data, &def); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	var prev steadySet
	if against != "" {
		data, err := os.ReadFile(against)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(lastLine(data), &prev); err != nil {
			return fmt.Errorf("%s: last line: %w", against, err)
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		s := strconv.FormatInt(seed+int64(i), 10)
		cmd := exec.Command(self, "--workload", workload, "--seed", s, "--seconds", strconv.Itoa(def.RunSeconds),
			"--trace", strconv.Itoa(trace), "--worker", worker, "--workdir", workdir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %s: %w", s, err)
		}
		var res result
		if err := json.Unmarshal(lastLine(out), &res); err != nil {
			return fmt.Errorf("seed %s: result line: %w", s, err)
		}
		if !res.Correct || res.Failed > 0 {
			return fmt.Errorf("seed %s: correct=%v, %d of %d operations failed", s, res.Correct, res.Failed, res.Attempted)
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "steady: %s seed %s done (%d/%d)\n", workload, s, i+1, n)
	}
	bounds := map[string]float64{}
	for _, m := range def.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-36s %-6s %12s %12s %12s %8s %6s %8s  %s\n", "metric", "unit", "median", "q1", "q3", "spread", "bound", "/prev", "verdict")
	for _, name := range names {
		xs := values[name]
		med := median(xs)
		q1, q3 := quartiles(xs)
		spread := (q3 - q1) / math.Abs(med)
		bound, verdict := "-", ""
		if b, ok := bounds[name]; ok {
			bound = strconv.FormatFloat(b, 'f', 2, 64)
			switch {
			case name == "setup_s":
				verdict = "set-up: spread not bounded"
			case spread < b/3:
				verdict = "steady (below a third of the bound)"
			case spread <= b:
				verdict = "within bound"
			default:
				verdict = "WIDER THAN BOUND"
			}
		}
		ratio := "-"
		if old, ok := prev.Values[name]; ok {
			r := med / median(old)
			ratio = strconv.FormatFloat(r, 'f', 3, 64)
			if b, ok := bounds[name]; ok && math.Abs(r-1) > b {
				verdict += "; MEDIAN MOVED MORE THAN BOUND"
			}
		}
		if len(xs) != n {
			verdict += fmt.Sprintf(" [in %d of %d runs]", len(xs), n)
		}
		fmt.Printf("%-36s %-6s %12.4f %12.4f %12.4f %8.4f %6s %8s  %s\n", name, units[name], med, q1, q3, spread, bound, ratio, verdict)
	}
	line, err := json.Marshal(map[string]any{"workload": workload, "first_seed": seed, "runs": n, "trace": trace, "values": values})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
