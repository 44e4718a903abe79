package remote_test

// The lifetime of a registration: its data mesh is built once, at
// Register, and every check reuses it; any failure — a severed data
// connection, a cancelled check, a dead worker, a vanished coordinator,
// a failed Register — ends the registration on every worker at once,
// the abandoned flood stops within one round deadline, and the façade's
// next check recovers by registering afresh.

import (
	"bytes"
	"context"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lcp"
	"lcp/internal/bitstr"
	"lcp/internal/core"
	"lcp/internal/remote"
	"lcp/internal/transport"
)

// connLog wraps a worker's listener: it counts the connections the
// worker accepts and can sever them by the role their Hello names.
type connLog struct {
	net.Listener
	mu    sync.Mutex
	conns []*loggedConn
}

func (l *connLog) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	lc := &loggedConn{Conn: c}
	l.mu.Lock()
	l.conns = append(l.conns, lc)
	l.mu.Unlock()
	return lc, nil
}

// accepted is the number of connections accepted so far.
func (l *connLog) accepted() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.conns)
}

// sever closes every accepted connection whose Hello named role and
// reports how many it closed.
func (l *connLog) sever(role string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, c := range l.conns {
		if r, _ := c.role.Load().(string); r == role {
			_ = c.Close() // severing is the point; the worker sees the error
			n++
		}
	}
	return n
}

// open is the number of accepted connections whose Hello named role
// and that the worker has not closed.
func (l *connLog) open(role string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, c := range l.conns {
		if r, _ := c.role.Load().(string); r == role && !c.closed.Load() {
			n++
		}
	}
	return n
}

// loggedConn records the role named by the Hello frame read through it,
// and whether it was closed.
type loggedConn struct {
	net.Conn
	role   atomic.Value // string, once the Hello payload has been read
	closed atomic.Bool
}

func (c *loggedConn) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

func (c *loggedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.role.Load() == nil {
		for _, role := range []string{transport.RoleControl, transport.RoleData} {
			if bytes.Contains(p[:n], []byte(`"role":"`+role+`"`)) {
				c.role.Store(role)
			}
		}
	}
	return n, err
}

// pathColoring is a proper 2-colouring of pathInstance(n), and the same
// proof with node 5's colour flipped, which nodes 4, 5 and 6 reject.
func pathColoring(n int) (honest, tampered core.Proof) {
	honest = core.Proof{}
	for i := 1; i <= n; i++ {
		honest[i] = bitstr.FromBools(i%2 == 0)
	}
	tampered = honest.Clone()
	tampered[5] = bitstr.FromBools(true)
	return honest, tampered
}

// tunableChecker builds a dist-tcp façade checker for pathInstance(n)
// over the fleet, checking tunableScheme at the radius the test sets.
func tunableChecker(t *testing.T, addrs []string, n int, scheme tunableScheme) lcp.Checker {
	t.Helper()
	chk, err := lcp.NewChecker(pathInstance(n), lcp.WithBackend(lcp.BackendDistTCP),
		lcp.WithScheme(scheme), lcp.WithWorkerAddrs(addrs...))
	if err != nil {
		t.Fatalf("checker: %v", err)
	}
	t.Cleanup(func() { lcp.CloseChecker(chk) })
	return chk
}

// checkMatchesCore runs p through the checker and insists on
// core.Check's verdicts.
func checkMatchesCore(t *testing.T, chk lcp.Checker, in *core.Instance, p core.Proof, v core.Verifier) {
	t.Helper()
	rep, err := chk.Check(context.Background(), p)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if want := core.Check(in, p, v); !reflect.DeepEqual(rep.Outputs, want.Outputs) {
		t.Fatalf("outputs differ:\n got %v\nwant %v", rep.Outputs, want.Outputs)
	}
}

// busyWorkerGoroutines counts the goroutines running worker code other
// than the accept loops: control loops, request watches, flood rounds.
func busyWorkerGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	busy := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		worker := bytes.Contains(g, []byte("lcp/internal/remote.(*Worker)")) ||
			bytes.Contains(g, []byte("lcp/internal/transport.(*TCP)"))
		if worker && !bytes.Contains(g, []byte("lcp/internal/remote.(*Worker).Serve(")) {
			busy++
		}
	}
	return busy
}

// settleLimit bounds how long an abandoned check may keep worker
// goroutines busy: a fifth of the round deadline the façade's
// coordinators use, and a small fraction of the seconds the abandoned
// 200k-round flood would run if nothing stopped it.
const settleLimit = transport.DefaultRoundTimeout / 5

// settle waits until no worker goroutine is busy and reports how long
// that took, failing with every stack after settleLimit.
func settle(t *testing.T) time.Duration {
	t.Helper()
	limit := settleLimit
	start := time.Now()
	for busyWorkerGoroutines() > 0 {
		if time.Since(start) > limit {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d busy worker goroutines after %v:\n%s", busyWorkerGoroutines(), limit, buf)
		}
		time.Sleep(time.Millisecond)
	}
	return time.Since(start)
}

// waitNoInstances waits until no worker holds a registration.
func waitNoInstances(t *testing.T, workers []*remote.Worker, limit time.Duration) {
	t.Helper()
	deadline := time.Now().Add(limit)
	for i, w := range workers {
		for remote.InstanceCount(w) != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("worker %d still holds %d registrations after %v", i, remote.InstanceCount(w), limit)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestChecksReuseTheMesh: after Register, checks open no sockets — the
// workers accept no further connection across 50 checks.
func TestChecksReuseTheMesh(t *testing.T) {
	radius := new(atomic.Int64)
	radius.Store(2)
	scheme := tunableScheme{radius: radius}
	addrs, _, logs := startLoggedFleet(t, 3, map[string]core.Scheme{scheme.Name(): scheme})
	const n = 24
	chk := tunableChecker(t, addrs, n, scheme)
	honest, tampered := pathColoring(n)
	in := pathInstance(n)
	checkMatchesCore(t, chk, in, honest, scheme.Verifier()) // dials and registers
	accepted := func() int {
		total := 0
		for _, l := range logs {
			total += l.accepted()
		}
		return total
	}
	// Three control connections, plus two data connections for the
	// two cut edges of a contiguous path split three ways.
	before := accepted()
	if before != 5 {
		t.Fatalf("registration accepted %d connections, want 3 control + 2 data", before)
	}
	for i := 0; i < 50; i++ {
		p := honest
		if i%2 == 1 {
			p = tampered
		}
		checkMatchesCore(t, chk, in, p, scheme.Verifier())
	}
	if after := accepted(); after != before {
		t.Fatalf("workers accepted %d connections across 50 checks, want none", after-before)
	}
}

// TestSeveredDataConnRecovers: severing a mesh connection mid-check
// fails that check, and the same façade checker's next check — on a
// fresh registration — matches core.Check.
func TestSeveredDataConnRecovers(t *testing.T) {
	radius := new(atomic.Int64)
	radius.Store(2)
	scheme := tunableScheme{radius: radius}
	addrs, workers, logs := startLoggedFleet(t, 2, map[string]core.Scheme{scheme.Name(): scheme})
	const n = 16
	chk := tunableChecker(t, addrs, n, scheme)
	honest, tampered := pathColoring(n)
	in := pathInstance(n)
	checkMatchesCore(t, chk, in, honest, scheme.Verifier())

	radius.Store(200000)
	errc := make(chan error, 1)
	go func() {
		_, err := chk.Check(context.Background(), honest)
		errc <- err
	}()
	time.Sleep(100 * time.Millisecond)
	// Worker 1 dialed worker 0: the one data connection of the mesh
	// was accepted by worker 0.
	if got := logs[0].sever(transport.RoleData); got != 1 {
		t.Fatalf("severed %d data connections, want 1", got)
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("check over a severed data connection succeeded")
		}
	case <-time.After(2 * transport.DefaultRoundTimeout):
		t.Fatal("check over a severed data connection hung")
	}
	waitNoInstances(t, workers, transport.DefaultRoundTimeout)

	radius.Store(2)
	checkMatchesCore(t, chk, in, tampered, scheme.Verifier())
}

// TestAbandonedFloodStops cancels or breaks a check mid-flood, with a
// 200k-round radius that would flood for far longer than the test, in
// each of the ways a check can be abandoned. Every time, the workers'
// goroutines settle within one round deadline and no registration is
// left behind.
func TestAbandonedFloodStops(t *testing.T) {
	const n = 16
	const flood = 200000
	honest, tampered := pathColoring(n)
	in := pathInstance(n)

	t.Run("cancel", func(t *testing.T) {
		radius := new(atomic.Int64)
		radius.Store(2)
		scheme := tunableScheme{radius: radius}
		addrs, workers, _ := startLoggedFleet(t, 2, map[string]core.Scheme{scheme.Name(): scheme})
		chk := tunableChecker(t, addrs, n, scheme)
		checkMatchesCore(t, chk, in, honest, scheme.Verifier())

		radius.Store(flood)
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(100*time.Millisecond, cancel)
		if _, err := chk.Check(ctx, honest); err == nil {
			t.Fatal("check cancelled mid-flood succeeded")
		}
		// The next check registers afresh and does not wait for the
		// abandoned flood.
		radius.Store(2)
		start := time.Now()
		checkMatchesCore(t, chk, in, tampered, scheme.Verifier())
		if elapsed := time.Since(start); elapsed > transport.DefaultRoundTimeout/2 {
			t.Fatalf("check after a cancelled one took %v", elapsed)
		}
		lcp.CloseChecker(chk)
		t.Logf("settled in %v", settle(t))
		waitNoInstances(t, workers, transport.DefaultRoundTimeout)
	})

	t.Run("worker-death", func(t *testing.T) {
		radius := new(atomic.Int64)
		radius.Store(2)
		scheme := tunableScheme{radius: radius}
		addrs, workers, _ := startLoggedFleet(t, 3, map[string]core.Scheme{scheme.Name(): scheme})
		chk := tunableChecker(t, addrs, n, scheme)
		checkMatchesCore(t, chk, in, honest, scheme.Verifier())

		radius.Store(flood)
		time.AfterFunc(100*time.Millisecond, func() { _ = workers[2].Close() })
		if _, err := chk.Check(context.Background(), honest); err == nil {
			t.Fatal("check over a killed worker succeeded")
		}
		t.Logf("settled in %v", settle(t))
		waitNoInstances(t, workers[:2], transport.DefaultRoundTimeout)
	})

	t.Run("vanished-coordinator", func(t *testing.T) {
		radius := new(atomic.Int64)
		radius.Store(flood)
		scheme := tunableScheme{radius: radius}
		addrs, workers, logs := startLoggedFleet(t, 2, map[string]core.Scheme{scheme.Name(): scheme})
		ctx := context.Background()
		coord, err := remote.DialCoordinator(ctx, "vanishing", addrs, remote.Options{})
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		if err := coord.Register(ctx, in, scheme.Name()); err != nil {
			t.Fatalf("register: %v", err)
		}
		// The control connections vanish under the coordinator without
		// a Close: the workers see them end mid-flood.
		time.AfterFunc(100*time.Millisecond, func() {
			for _, l := range logs {
				l.sever(transport.RoleControl)
			}
		})
		if _, _, err := coord.Check(ctx, honest); err == nil {
			t.Fatal("check over vanished control connections succeeded")
		}
		t.Logf("settled in %v", settle(t))
		waitNoInstances(t, workers, transport.DefaultRoundTimeout)
	})
}

// TestFailedRegisterClosesCoordinator: a Register that one worker
// refuses (its registry lacks the scheme) leaves the coordinator
// closed, not registered with a stale partition, and the worker that
// accepted its shard drops it.
func TestFailedRegisterClosesCoordinator(t *testing.T) {
	scheme := pingScheme{r: 2}
	good, goodWorkers := startFleet(t, 1, map[string]core.Scheme{scheme.Name(): scheme})
	bad, _ := startFleet(t, 1, map[string]core.Scheme{})
	ctx := context.Background()
	coord, err := remote.DialCoordinator(ctx, "half-registered", append(good, bad...), remote.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer coord.Close()
	in := pathInstance(8)
	if err := coord.Register(ctx, in, scheme.Name()); err == nil || !strings.Contains(err.Error(), scheme.Name()) {
		t.Fatalf("register = %v, want the unknown scheme named", err)
	}
	if _, _, err := coord.Check(ctx, core.Proof{}); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("check after a failed register = %v, want a closed coordinator", err)
	}
	if err := coord.Register(ctx, in, scheme.Name()); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("register after a failed register = %v, want a closed coordinator", err)
	}
	waitNoInstances(t, goodWorkers, transport.DefaultRoundTimeout)
}

// TestConcurrentFacadeChecks: eight goroutines check honest and tampered
// proofs through one dist-tcp façade checker. Each check takes its own
// registration from the checker's network instead of queueing on one;
// every verdict is core.Check's, and after CloseChecker every worker
// control connection closes.
func TestConcurrentFacadeChecks(t *testing.T) {
	radius := new(atomic.Int64)
	radius.Store(2)
	scheme := tunableScheme{radius: radius}
	addrs, _, logs := startLoggedFleet(t, 3, map[string]core.Scheme{scheme.Name(): scheme})
	in := pathInstance(16)
	honest, tampered := pathColoring(16)
	v := scheme.Verifier()
	want := []*core.Result{core.Check(in, honest, v), core.Check(in, tampered, v)}
	chk, err := lcp.NewChecker(in, lcp.WithBackend(lcp.BackendDistTCP),
		lcp.WithScheme(scheme), lcp.WithWorkerAddrs(addrs...))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 6 {
				k := (g + i) % 2
				rep, err := chk.Check(context.Background(), []core.Proof{honest, tampered}[k])
				if err != nil {
					t.Errorf("goroutine %d check %d: %v", g, i, err)
					return
				}
				if !reflect.DeepEqual(rep.Outputs, want[k].Outputs) {
					t.Errorf("goroutine %d check %d: outputs differ:\n got %v\nwant %v", g, i, rep.Outputs, want[k].Outputs)
				}
			}
		}()
	}
	wg.Wait()
	open := func() int {
		n := 0
		for _, l := range logs {
			n += l.open(transport.RoleControl)
		}
		return n
	}
	if open() == 0 {
		t.Fatal("no control connection open after the checks")
	}
	lcp.CloseChecker(chk)
	for deadline := time.Now().Add(5 * time.Second); open() > 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d worker control connections still open 5s after CloseChecker", open())
		}
	}
}
