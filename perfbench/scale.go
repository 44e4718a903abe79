package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"lcp"
	"lcp/internal/core"
	"lcp/internal/textio"
)

// scaleBackends are the backends the scale phase checks on.
var scaleBackends = []string{lcp.BackendCore, lcp.BackendEngine, lcp.BackendDist}

// scaleReps is, per backend, how many untimed checks a scale child
// makes first, as a fresh process pays for growing its heap once and
// not per check, and the fewest timed checks after them, of which it
// reports the median. The dist backend's second check is still a
// quarter slower than the later ones; the core and engine checks,
// cheaper, vary more from one check to the next.
var scaleReps = map[string]struct{ warm, timed int }{
	lcp.BackendCore:   {1, 5},
	lcp.BackendEngine: {1, 5},
	lcp.BackendDist:   {2, 3},
}

// childTimeout bounds one scale child.
const childTimeout = 150 * time.Second

// childResult is what a scale child prints: its timed checks, its peak
// memory and, in traced runs, its layer probes.
type childResult struct {
	Checks int               `json:"checks"` // including the untimed ones
	CheckS []float64         `json:"check_s"`
	Probes []float64         `json:"probes"` // the speed probes taken between checks
	PeakMB float64           `json:"peak_mb"`
	Wrong  int               `json:"wrong"`
	Layers map[string]metric `json:"layers,omitempty"`
}

func scalePhase(r *run, rng *rand.Rand, window time.Duration) (float64, error) {
	scheme := r.fam.scheme
	src := filepath.Join(r.workdir, "scale-instance-"+r.label+".lcp")
	if err := writeDoc(src, &textio.Document{Instance: r.fam.scale(rng.Int63()), SchemeName: scheme.Name()}); err != nil {
		return 0, err
	}
	defer os.Remove(src)
	var setups, parseMS, proveMS []float64
	var doc *textio.Document
	var proof core.Proof
	sp := &speedLog{}
	sp.probe()
	for range setupReps {
		t0 := time.Now()
		d, err := readDoc(src)
		if err != nil {
			return 0, err
		}
		t1 := time.Now()
		p, err := scheme.Prove(d.Instance)
		if err != nil {
			return 0, fmt.Errorf("prove: %w", err)
		}
		parseMS = append(parseMS, float64(t1.Sub(t0))/float64(time.Millisecond))
		proveMS = append(proveMS, msSince(t1))
		setups = append(setups, time.Since(t0).Seconds())
		doc, proof = d, p
		sp.probe()
	}
	// The oracle, outside timing: the prover's proof must be accepted
	// by every node of the sequential reference.
	if err := (proofCase{}).verifyResult(core.Check(doc.Instance, proof, scheme.Verifier()), doc.Instance.G.N()); err != nil {
		r.tally.record(err)
		return 0, fmt.Errorf("core.Check on the prover's proof: %w", err)
	}
	checked := filepath.Join(r.workdir, "scale-proof-"+r.label+".lcp")
	if err := writeDoc(checked, &textio.Document{Instance: doc.Instance, SchemeName: scheme.Name(), Proof: proof}); err != nil {
		return 0, err
	}
	defer os.Remove(checked)
	if r.traced() {
		r.put("textio.parse_ms", "ms", median(parseMS))
		r.put("schemes.prove_ms", "ms", median(proveMS))
	}
	budget := window / time.Duration(len(scaleBackends))
	if r.traced() {
		budget = 0
	}
	children := map[string]*childResult{}
	for _, b := range scaleBackends {
		cr, err := r.runScaleChild(b, checked, budget)
		if err != nil {
			return 0, fmt.Errorf("%s backend: %w", b, err)
		}
		for i := range cr.Checks {
			var err error
			if i < cr.Wrong {
				err = fmt.Errorf("%w: the %s backend rejected the honest proof", errWrongVerdict, b)
			}
			r.tally.record(err)
		}
		if r.traced() {
			for name, m := range cr.Layers {
				r.metrics[name] = m
			}
			continue
		}
		// The children's probes join the phase's: a child's few probes
		// alone often all find the machine in one passing state.
		sp.ms = append(sp.ms, cr.Probes...)
		children[b] = cr
		r.put("scale.peak_mb."+b, "MB", cr.PeakMB)
		fmt.Fprintf(os.Stderr, "  scale %-7s check_s=%.4v as measured, peak_mb=%.1f\n", b, cr.CheckS, cr.PeakMB)
	}
	if r.traced() {
		return median(setups), nil
	}
	for b, cr := range children {
		if b != lcp.BackendCore {
			r.putAt(sp, "scale.check_s."+b, "s", median(cr.CheckS))
			continue
		}
		// The core check is sequential, as the probes are, so each core
		// check is scaled by the two probes around it, which follow the
		// speed of one core over the check's own second or two: over ten
		// grid runs on a noisy host this spread 0.13, against 0.24 with
		// the phase's factor and 0.36 as measured. The checks that use
		// both cores followed the phase's factor better.
		fmt.Fprintf(os.Stderr, "  measured %-27s %14.4f s\n", "scale.check_s."+b, median(cr.CheckS))
		r.put("scale.check_s."+b, "s", cr.atCheckSpeed(scaleReps[b].warm))
	}
	sp.log("scale")
	return median(setups) * sp.factor(), nil
}

// atCheckSpeed is the median of the child's timed checks, each at the
// reference speed of the probes before and after it; warm is how many
// untimed checks, each followed by a probe, came first.
func (cr *childResult) atCheckSpeed(warm int) float64 {
	xs := make([]float64, len(cr.CheckS))
	for i, s := range cr.CheckS {
		xs[i] = s * refNominalMS * 2 / (cr.Probes[warm-1+i] + cr.Probes[warm+i])
	}
	return median(xs)
}

// runScaleChild checks the document on one backend in a subprocess, so
// that the backend's peak memory is measured alone.
func (r *run) runScaleChild(backend, doc string, budget time.Duration) (*childResult, error) {
	args := []string{"--scale-child", backend, "--doc", doc, "--budget", budget.String()}
	if r.traced() {
		args = append(args, "--trace-out", filepath.Join(r.workdir, "trace-"+r.label+"-scale-"+backend+".json"))
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, r.self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var cr childResult
	if err := json.Unmarshal(lastLine(out), &cr); err != nil {
		return nil, fmt.Errorf("child output: %w", err)
	}
	if len(cr.CheckS) == 0 {
		return nil, errors.New("child timed no checks")
	}
	return &cr, nil
}

// scaleChild is the subprocess side: parse the document, time full
// checks on the backend (a fresh checker each, so engine views and
// dist wirings are built every time, with a speed probe between any
// two) until the budget is spent, and print the result. In traced runs
// it makes one timed check and then probes the backend's layers.
func scaleChild(backend, docPath string, budget time.Duration, traceOut string) error {
	d, err := readDoc(docPath)
	if err != nil {
		return err
	}
	scheme, ok := lcp.BuiltinSchemes()[d.SchemeName]
	if !ok {
		return fmt.Errorf("unknown scheme %q", d.SchemeName)
	}
	in, p, n := d.Instance, d.Proof, d.Instance.G.N()
	reps := scaleReps[backend]
	if traceOut != "" {
		reps.timed = 1
	}
	var cr childResult
	ctx := context.Background()
	var start time.Time
	var sp speedLog
	for i := -reps.warm; i < reps.timed || time.Since(start) < budget; i++ {
		if i == 0 {
			start = time.Now()
		}
		t0 := time.Now()
		chk, err := newScaleChecker(backend, in, scheme)
		if err != nil {
			return err
		}
		rep, err := chk.Check(ctx, p)
		sec := time.Since(t0).Seconds()
		lcp.CloseChecker(chk)
		if err := (proofCase{}).verifyReport(rep, err, n); err != nil {
			if !errors.Is(err, errWrongVerdict) {
				return err
			}
			cr.Wrong++
		}
		cr.Checks++
		if i >= 0 {
			cr.CheckS = append(cr.CheckS, sec)
		}
		sp.probe()
	}
	cr.Probes = sp.ms
	if traceOut != "" {
		tr := newTracer()
		pr := newProbe(tr, "probe.scale."+backend)
		cr.Layers, err = scaleLayers(backend, in, p, scheme.Verifier(), pr)
		pr.end()
		if err != nil {
			return err
		}
		if err := tr.write(traceOut); err != nil {
			return err
		}
	}
	if cr.PeakMB, err = peakRSSMB(); err != nil {
		return err
	}
	line, err := json.Marshal(cr)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// newScaleChecker builds the backend's checker the way the scale phase
// measures it: dist is sharded, one shard per core, cut by the BFS
// partitioner.
func newScaleChecker(backend string, in *core.Instance, scheme core.Scheme) (lcp.Checker, error) {
	opts := []lcp.CheckerOption{lcp.WithBackend(backend), lcp.WithScheme(scheme)}
	if backend == lcp.BackendDist {
		opts = append(opts, lcp.WithShards(runtime.NumCPU()), lcp.WithPartitioner(lcp.BFSChunksPartitioner()))
	}
	return lcp.NewChecker(in, opts...)
}

func writeDoc(path string, doc *textio.Document) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := textio.Write(w, doc); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one worth reporting
		return err
	}
	return f.Close()
}

func readDoc(path string) (*textio.Document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return textio.Parse(f)
}

// peakRSSMB is this process's peak resident set size (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

func lastLine(out []byte) []byte {
	out = bytes.TrimSpace(out)
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		return out[i+1:]
	}
	return out
}
