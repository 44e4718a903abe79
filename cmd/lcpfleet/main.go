// Command lcpfleet is the multi-process transport smoke test: it
// spawns a small fleet of lcpworker subprocesses, fans catalog checks
// out to them over the dist-tcp backend, and asserts verdict equality
// with the sequential reference — then shuts the fleet down with
// SIGTERM and insists on clean exits.
//
//	lcpfleet            # spawn 2 workers, run the smoke, exit 0/1
//	lcpfleet -workers 4
//
// The worker binary is the lcpworker that sits beside lcpfleet's own
// executable, so build both into one directory first (`make
// transport-smoke` builds them into bin/).
//
// It exists for CI (`make transport-smoke`): everything the 3-terminal
// quickstart in the README does by hand — worker startup, address
// scraping, coordinator registration, TCP flooding, graceful teardown
// — exercised as one subprocess tree with a watchdog, so a wedged
// handshake or a leaked worker fails the build instead of a user's
// first scale-out attempt.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"lcp"
	"lcp/internal/core"
)

const listenPrefix = "lcpworker listening on "

func main() {
	workers := flag.Int("workers", 2, "worker subprocesses to spawn")
	timeout := flag.Duration("timeout", 60*time.Second, "watchdog for the whole smoke run")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if err := runSmoke(ctx, *workers); err != nil {
		log.Fatalf("lcpfleet: FAIL: %v", err)
	}
	fmt.Println("lcpfleet: PASS")
}

// fleetProc is one spawned worker subprocess and its scraped address.
type fleetProc struct {
	cmd  *exec.Cmd
	addr string
}

func runSmoke(ctx context.Context, n int) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating own binary: %v", err)
	}
	worker := filepath.Join(filepath.Dir(exe), "lcpworker")

	procs := make([]*fleetProc, 0, n)
	defer func() {
		// Belt and braces: whatever happened above, no worker outlives
		// the harness.
		for _, p := range procs {
			_ = p.cmd.Process.Kill()
			_ = p.cmd.Wait()
		}
	}()
	for i := 0; i < n; i++ {
		p, err := spawnWorker(ctx, worker)
		if err != nil {
			return fmt.Errorf("spawning worker %d: %v", i, err)
		}
		procs = append(procs, p)
		fmt.Fprintf(os.Stderr, "lcpfleet: worker %d up at %s (pid %d)\n", i, p.addr, p.cmd.Process.Pid)
	}
	addrs := make([]string, len(procs))
	for i, p := range procs {
		addrs[i] = p.addr
	}

	if err := checkFleet(ctx, addrs); err != nil {
		return err
	}

	// Graceful teardown: SIGTERM each worker and insist on exit 0 —
	// a wedged conn or leaked goroutine shows up as a non-zero exit
	// (or the watchdog firing) right here.
	for i, p := range procs {
		if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			return fmt.Errorf("worker %d: SIGTERM: %v", i, err)
		}
	}
	for i, p := range procs {
		if err := p.cmd.Wait(); err != nil {
			return fmt.Errorf("worker %d: did not exit cleanly on SIGTERM: %v", i, err)
		}
		fmt.Fprintf(os.Stderr, "lcpfleet: worker %d exited cleanly\n", i)
	}
	procs = nil
	return nil
}

func spawnWorker(ctx context.Context, worker string) (*fleetProc, error) {
	cmd := exec.CommandContext(ctx, worker)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	// Scrape the one listen line; the watchdog ctx kills the subprocess
	// (CommandContext) if it never prints.
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		if sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	select {
	case line, ok := <-lines:
		if !ok || !strings.HasPrefix(line, listenPrefix) {
			_ = cmd.Process.Kill()
			return nil, fmt.Errorf("bad listen line %q", line)
		}
		return &fleetProc{cmd: cmd, addr: strings.TrimPrefix(line, listenPrefix)}, nil
	case <-ctx.Done():
		_ = cmd.Process.Kill()
		return nil, ctx.Err()
	}
}

// checkFleet runs honest and corrupted proofs for a slice of the
// experiment catalog through the worker fleet and compares every
// verdict with the sequential reference.
func checkFleet(ctx context.Context, addrs []string) error {
	const n = 12
	for _, exp := range lcp.Catalog() {
		size := n
		if exp.MinN > size {
			size = exp.MinN
		}
		in := exp.MakeYes(size, 1)
		scheme := exp.Scheme
		good, err := scheme.Prove(in)
		if err != nil {
			return fmt.Errorf("%s: prove: %v", scheme.Name(), err)
		}
		chk, err := lcp.NewChecker(in,
			lcp.WithBackend(lcp.BackendDistTCP),
			lcp.WithScheme(scheme),
			lcp.WithWorkerAddrs(addrs...),
		)
		if err != nil {
			return fmt.Errorf("%s: checker: %v", scheme.Name(), err)
		}
		ref, err := lcp.NewChecker(in, lcp.WithBackend(lcp.BackendCore), lcp.WithScheme(scheme))
		if err != nil {
			lcp.CloseChecker(chk)
			return fmt.Errorf("%s: reference checker: %v", scheme.Name(), err)
		}
		for name, p := range map[string]core.Proof{
			"honest":  good,
			"flipped": core.FlipBit(good, 3),
		} {
			wantRep, err := ref.Check(ctx, p)
			if err != nil {
				lcp.CloseChecker(chk)
				return fmt.Errorf("%s/%s: reference check: %v", scheme.Name(), name, err)
			}
			want := wantRep.Accepted()
			rep, err := chk.Check(ctx, p)
			if err != nil {
				lcp.CloseChecker(chk)
				return fmt.Errorf("%s/%s: dist-tcp check: %v", scheme.Name(), name, err)
			}
			if rep.Accepted() != want {
				lcp.CloseChecker(chk)
				return fmt.Errorf("%s/%s: dist-tcp accepted=%v, reference says %v", scheme.Name(), name, rep.Accepted(), want)
			}
			fmt.Fprintf(os.Stderr, "lcpfleet: %s/%s ok (accepted=%v, %v)\n", scheme.Name(), name, rep.Accepted(), rep.Elapsed.Round(time.Millisecond))
		}
		lcp.CloseChecker(chk)
	}
	return nil
}
