// Command perfbench is the repository's benchmark: one command that
// runs a named, seeded workload against the public API, checks every
// verdict against core.Check, and prints every metric by name and unit.
//
//	bash perfbench/run.sh --workload powerlaw --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload grid --steady 10
//	bash perfbench/run.sh --workload grid --steady 10 --against earlier-set.out
//
// run.sh builds this program and cmd/lcpworker into .bench_build and
// runs it from the repository root. A workload is one input family
// driven through three phases, each loading different layers; NOTES.md
// says which, and which per-layer metric should move which end-to-end
// one:
//
//   - serve: an in-process lcpserve behind a loopback listener and a
//     closed-loop HTTP client taking turns at /check, /check/batch,
//     and register, cold-check and delete cycles;
//   - scale: a ~10^5-node instance parsed from textio and proved, then
//     checked on the core, engine (cold) and dist backends, each in a
//     subprocess of its own so that its peak memory is its own;
//   - fleet: the dist-tcp backend against two lcpworker subprocesses,
//     checked from one closed-loop client.
//
// Every end-to-end time is reported at a fixed reference speed, scaled
// by speed probes taken between the stretches it was measured in (see
// speed.go), so that the shared machine's changes of speed cancel out.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; a readable summary goes to
// standard error. With --trace 1 the metrics are the per-layer ones,
// measured by calling into each layer from outside, and the spans
// recorded around those calls are written under --workdir. A wrong
// verdict makes the exit status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupReps is how many times each phase sets up; setup_s sums the
// phases' median set-up times.
const setupReps = 3

// run is one benchmark run's settings and shared state.
type run struct {
	fam     family
	label   string  // workload and seed, for file names
	worker  string  // lcpworker binary the fleet phase spawns
	workdir string  // generated documents and traces
	self    string  // this binary, re-executed for the scale children
	tr      *tracer // nil unless the run is traced
	tally   tally
	metrics map[string]metric
}

func (r *run) traced() bool { return r.tr != nil }

func (r *run) put(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(familyNames(), ", "))
		seed     = flag.Int64("seed", 1, "seed of every generated input and of the operation sequence")
		seconds  = flag.Int("seconds", 30, "measured seconds per run, split across the phases")
		trace    = flag.Int("trace", 0, "1: report the per-layer metrics of a traced run instead of the end-to-end ones")
		worker   = flag.String("worker", filepath.Join(".bench_build", "bin", "lcpworker"), "lcpworker binary for the fleet phase")
		workdir  = flag.String("workdir", filepath.Join(".bench_build", "run"), "directory for generated documents and traces")
		steady   = flag.Int("steady", 0, "run the workload this many times, seeds --seed upwards, and print each metric's spread against its bound")
		bench    = flag.String("benchmark", "BENCHMARK.json", "benchmark definition holding run_seconds and the bounds (--steady)")
		against  = flag.String("against", "", "saved output of an earlier --steady set to compare the medians with (--steady)")
		child    = flag.String("scale-child", "", "internal: check --doc on this backend and print the measurements")
		doc      = flag.String("doc", "", "internal (--scale-child): textio document with its proof")
		budget   = flag.Duration("budget", 0, "internal (--scale-child): measuring time")
		traceOut = flag.String("trace-out", "", "internal (--scale-child): probe the layers and write the spans here")
	)
	flag.Parse()
	var err error
	switch {
	case *child != "":
		err = scaleChild(*child, *doc, *budget, *traceOut)
	case *steady > 0:
		err = runSteady(*workload, *seed, *steady, *trace, *bench, *against, *worker, *workdir)
	default:
		err = benchmark(*workload, *seed, *seconds, *trace, *worker, *workdir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// benchmark runs one workload and prints its result line.
func benchmark(workload string, seed int64, seconds, trace int, worker, workdir string) error {
	fam, ok := families[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(familyNames(), ", "))
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if _, err := os.Stat(worker); err != nil {
		return fmt.Errorf("lcpworker binary: %w", err)
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	r := &run{
		fam: fam, label: fmt.Sprintf("%s-%d", workload, seed),
		worker: worker, workdir: workdir, self: self, metrics: map[string]metric{},
	}
	if trace == 1 {
		r.tr = newTracer()
	}
	rng := rand.New(rand.NewSource(seed))
	total := time.Duration(seconds) * time.Second
	phases := []struct {
		name  string
		share float64 // of the measured time
		// run runs the phase and returns its set-up time at the
		// reference speed.
		run func(*run, *rand.Rand, time.Duration) (setupS float64, err error)
	}{
		// The scale phase's floors of untimed and timed checks per
		// backend already exceed its share on the power-law workload; the
		// loops of the other two phases need the time for their tail
		// samples.
		{"serve", 0.45, servePhase},
		{"scale", 0.2, scalePhase},
		{"fleet", 0.35, fleetPhase},
	}
	setup := 0.0
	for _, ph := range phases {
		s, err := ph.run(r, rand.New(rand.NewSource(rng.Int63())), time.Duration(ph.share*float64(total)))
		if err != nil {
			return fmt.Errorf("%s phase: %w", ph.name, err)
		}
		setup += s
	}
	if !r.traced() {
		r.put("setup_s", "s", setup)
	}
	if err := r.tr.write(filepath.Join(workdir, "trace-"+r.label+".json")); err != nil {
		return err
	}
	res := result{
		Correct:   r.tally.wrong.Load() == 0,
		Attempted: r.tally.attempted.Load(),
		Failed:    r.tally.failed.Load(),
		Metrics:   r.metrics,
	}
	if err := printSummary(res); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d wrong verdicts", r.tally.wrong.Load())
	}
	return nil
}

// printSummary writes every metric to standard error, with the failed
// share of operations beside its count, and rejects a metric that
// measured nothing.
func printSummary(res result) error {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s measured nothing", name)
		}
		fmt.Fprintf(os.Stderr, "  %-36s %14.4f %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(os.Stderr, "  %-36s %14.4f ratio (%d of %d operations failed)\n",
		"failed_frac", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
