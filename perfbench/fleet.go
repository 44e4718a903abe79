package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"sort"
	"strings"
	"syscall"
	"time"

	"lcp"
	"lcp/internal/core"
	"lcp/internal/obs"
)

const (
	// fleetWorkers is the worker subprocess count: one per core of the
	// reference machine.
	fleetWorkers = 2
	// listenPrefix starts the one line lcpworker prints on start.
	listenPrefix = "lcpworker listening on "
	spawnTimeout = 10 * time.Second
	stopTimeout  = 10 * time.Second
)

// worker is one spawned worker subprocess.
type worker struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{} // closed once the process is reaped
	err    error         // its exit status; read after exited closes
}

// spawnWorker starts argv with env added to this process's environment
// and reads the worker's listen address from its first line of output.
// A goroutine drains the rest of the output and reaps the process.
func spawnWorker(argv, env []string) (*worker, error) {
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Env = append(os.Environ(), env...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	w := &worker{cmd: cmd, exited: make(chan struct{})}
	first := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		if sc.Scan() {
			first <- sc.Text()
		}
		close(first)
		_, _ = io.Copy(io.Discard, out) // output past the listen line is not used
		w.err = cmd.Wait()
		close(w.exited)
	}()
	select {
	case line := <-first:
		if addr, ok := strings.CutPrefix(line, listenPrefix); ok {
			w.addr = addr
			return w, nil
		}
		return nil, errors.Join(fmt.Errorf("bad listen line %q", line), w.stop())
	case <-time.After(spawnTimeout):
		return nil, errors.Join(fmt.Errorf("no listen line within %v", spawnTimeout), w.stop())
	}
}

// stop sends SIGTERM and reaps the worker, killing it if it is still
// running after stopTimeout. A worker that does not exit with status 0
// is an error. Stopping twice reports the same outcome.
func (w *worker) stop() error {
	// Signalling a process that already exited fails; Wait's status,
	// read below, is what reports that case.
	_ = w.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-w.exited:
	case <-time.After(stopTimeout):
		_ = w.cmd.Process.Kill() // the timeout is the error reported
		<-w.exited
		return fmt.Errorf("worker %s ignored SIGTERM for %v and was killed", w.addr, stopTimeout)
	}
	if w.err != nil {
		return fmt.Errorf("worker %s exited uncleanly: %w", w.addr, w.err)
	}
	return nil
}

// fleet is a set of running worker subprocesses.
type fleet []*worker

// spawnFleet starts n workers; on failure it stops those it started.
func spawnFleet(argv, env []string, n int) (fleet, error) {
	var f fleet
	for i := 0; i < n; i++ {
		w, err := spawnWorker(argv, env)
		if err != nil {
			for _, started := range f {
				err = errors.Join(err, started.stop())
			}
			return nil, fmt.Errorf("worker %d: %w", i, err)
		}
		f = append(f, w)
	}
	return f, nil
}

func (f fleet) addrs() []string {
	out := make([]string, len(f))
	for i, w := range f {
		out[i] = w.addr
	}
	return out
}

// withFleet spawns n workers, runs fn against them, and then SIGTERMs
// and reaps every worker, whether fn succeeded or not. Each stop is an
// operation in t, and a worker that exits uncleanly is a failure.
func withFleet(argv, env []string, n int, t *tally, fn func(fleet) error) error {
	f, err := spawnFleet(argv, env, n)
	if err != nil {
		return err
	}
	defer func() {
		for _, w := range f {
			t.record(w.stop())
		}
	}()
	return fn(f)
}

// fleetRun is the fleet phase's state.
type fleetRun struct {
	*run
	in    *core.Instance
	cases []proofCase
}

func fleetPhase(r *run, rng *rand.Rand, window time.Duration) (float64, error) {
	in := r.fam.fleet(rng.Int63())
	scheme := r.fam.scheme
	honest, err := scheme.Prove(in)
	if err != nil {
		return 0, fmt.Errorf("prove: %w", err)
	}
	cases, err := oracle(in, scheme.Verifier(), honest, tampered, rng)
	if err != nil {
		return 0, err
	}
	f := &fleetRun{run: r, in: in, cases: cases}
	loopSeed := rng.Int63()
	argv := []string{r.worker, "-addr", "127.0.0.1:0"}
	setups := make([]float64, setupReps)
	sp := &speedLog{}
	sp.probe()
	for i := range setups {
		t0 := time.Now()
		err := withFleet(argv, nil, fleetWorkers, &r.tally, func(fl fleet) error {
			chk, err := lcp.NewChecker(in,
				lcp.WithBackend(lcp.BackendDistTCP),
				lcp.WithScheme(scheme),
				lcp.WithWorkerAddrs(fl.addrs()...),
				lcp.WithPartitioner(lcp.BFSChunksPartitioner()))
			if err != nil {
				return err
			}
			defer lcp.CloseChecker(chk)
			// The first check dials the fleet and registers the instance.
			if err := f.check(context.Background(), chk, 0); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			setups[i] = time.Since(t0).Seconds()
			sp.probe()
			if i < setupReps-1 {
				return nil
			}
			return f.measure(sp, chk, fl, loopSeed, window)
		})
		if err != nil {
			return 0, err
		}
	}
	return median(setups) * sp.factor(), nil
}

// check sends one proof through the checker and compares the verdict
// with the oracle's.
func (f *fleetRun) check(ctx context.Context, chk lcp.Checker, c int) error {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	rep, err := chk.Check(ctx, f.cases[c].proof)
	err = f.cases[c].verifyReport(rep, err, f.in.G.N())
	f.tally.record(err)
	return err
}

func (f *fleetRun) measure(sp *speedLog, chk lcp.Checker, fl fleet, seed int64, window time.Duration) error {
	if !f.traced() {
		lat, secs := f.loop(sp, chk, seed, window, nil)
		f.putAt(sp, "fleet.check_p50_ms", "ms", percentile(lat, 0.5))
		f.putAt(sp, "fleet.check_p90_ms", "ms", percentile(lat, 0.90))
		f.putAt(sp, "fleet.checks_per_s", "1/s", float64(len(lat))/secs)
		logLatency("fleet dist-tcp check", lat)
		sp.log("fleet")
		return nil
	}
	plain, _ := f.loop(sp, chk, seed, window/2, nil)
	traced, _ := f.loop(sp, chk, seed, window/2, f.tr)
	f.put("trace.overhead_ratio.fleet", "ratio", percentile(traced, 0.5)/percentile(plain, 0.5))
	return f.layers(fl.addrs())
}

// fleetRounds is how many turns the fleet loop's window is cut into,
// with a speed probe after each.
const fleetRounds = 8

// loop runs the closed loop from one client, as the serve loops do, in
// fleetRounds turns. It returns the latencies, ascending, and the summed
// wall time in seconds.
func (f *fleetRun) loop(sp *speedLog, chk lcp.Checker, seed int64, window time.Duration, tr *tracer) ([]float64, float64) {
	seeds := rand.New(rand.NewSource(seed))
	var lat []float64
	var secs float64
	for range fleetRounds {
		ms, s := closedLoop(sp, seeds.Int63(), window/fleetRounds, func(rng *rand.Rand) (float64, bool) {
			c := pick(rng, f.cases)
			ctx, trace := context.Background(), ""
			if tr != nil {
				trace = obs.NewTraceID()
				ctx = obs.ContextWithTraceID(ctx, trace)
			}
			_, end := tr.start(trace, 0, "fleet.client.check")
			t0 := time.Now()
			err := f.check(ctx, chk, c)
			ms := msSince(t0)
			end()
			return ms, err == nil
		})
		lat, secs = append(lat, ms...), secs+s
	}
	sort.Float64s(lat)
	return lat, secs
}
