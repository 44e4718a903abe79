package remote

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"lcp/internal/core"
	"lcp/internal/dist"
	"lcp/internal/graph"
	"lcp/internal/textio"
	"lcp/internal/transport"
)

const (
	// helloTimeout bounds the handshake frame on every accepted
	// connection: a dialer that never says hello cannot park a socket
	// forever.
	helloTimeout = 10 * time.Second
	// controlWriteTimeout bounds one control-plane response write.
	controlWriteTimeout = 30 * time.Second
	// dataConnTTL bounds how long an accepted data connection waits to
	// be claimed by its check before the worker reaps it — the check
	// it belongs to either never started or already failed.
	dataConnTTL = 2 * time.Minute
)

// Worker serves one shard of registered instances: it accepts control
// connections from coordinators (register / check / close requests) and
// data connections from peer workers (one per shard pair per check),
// wires a dist.Shard per registered instance, and runs it for every
// check. One worker process can hold shards of many instances at once;
// checks on the same instance serialize, checks on different instances
// run concurrently.
type Worker struct {
	ln      net.Listener
	schemes map[string]core.Scheme

	mu      sync.Mutex
	insts   map[string]*workerInstance
	pending map[dataKey]chan net.Conn
	conns   map[net.Conn]struct{}
	closed  bool
	wg      sync.WaitGroup
}

// workerInstance is one registered shard: the automata wired at
// registration, and the routing the check phase needs.
type workerInstance struct {
	mu      sync.Mutex  // serializes checks on this instance
	shard   *dist.Shard // guarded by mu: every check reseeds and floods it
	proof   core.Proof  // guarded by mu: the check's decoded proofs, reused
	scheme  core.Scheme
	me      int
	workers []string
	timeout time.Duration
}

// dataKey routes an accepted data connection to the check it belongs
// to.
type dataKey struct {
	instance string
	seq      uint64
	src      int
}

// NewWorker wraps a listener as a worker speaking the given scheme
// registry. The registry is a parameter — not pulled from the public
// façade — so the worker can be embedded in tests with toy schemes and
// the package stays import-cycle-free.
func NewWorker(ln net.Listener, schemes map[string]core.Scheme) *Worker {
	return &Worker{
		ln:      ln,
		schemes: schemes,
		insts:   make(map[string]*workerInstance),
		pending: make(map[dataKey]chan net.Conn),
		conns:   make(map[net.Conn]struct{}),
	}
}

// Addr is the listener's address, for handing to coordinators.
func (w *Worker) Addr() string { return w.ln.Addr().String() }

// Serve accepts and dispatches connections until the context is
// cancelled or the worker is closed. It returns nil on a deliberate
// Close, the context's error on cancellation, and the accept error
// otherwise.
func (w *Worker) Serve(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() { _ = w.Close() })
	defer stop()
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			w.wg.Wait()
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			w.mu.Lock()
			closed := w.closed
			w.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			w.handleConn(ctx, conn)
		}()
	}
}

// Close stops the worker like a process death: the listener closes
// (unblocking Serve), every tracked connection — control, in-flight
// data, parked data — is severed, so peers mid-round fail their reads
// immediately instead of draining a deadline. This is exactly the
// "kill a worker mid-round" failure the fault tests exercise.
func (w *Worker) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	pending := w.pending
	w.pending = make(map[dataKey]chan net.Conn)
	conns := make([]net.Conn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	w.mu.Unlock()
	err := w.ln.Close()
	for _, c := range conns {
		_ = c.Close() // severing a live session; peers see the reset
	}
	for _, ch := range pending {
		select {
		case conn := <-ch:
			_ = conn.Close() // reaping a parked socket; nobody reads the result
		default:
		}
	}
	return err
}

// track registers a live connection for teardown at Close; it reports
// false (and closes the connection) when the worker is already closed.
func (w *Worker) track(conn net.Conn) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		_ = conn.Close() // racing Close: behave as if accepted after death
		return false
	}
	w.conns[conn] = struct{}{}
	return true
}

// untrack forgets a connection whose lifecycle ended on its own.
func (w *Worker) untrack(conn net.Conn) {
	w.mu.Lock()
	delete(w.conns, conn)
	w.mu.Unlock()
}

// release untracks and closes a connection in one step.
func (w *Worker) release(conn net.Conn) {
	w.untrack(conn)
	_ = conn.Close() // the caller is done with it either way
}

// handleConn routes one accepted connection by its hello frame.
func (w *Worker) handleConn(ctx context.Context, conn net.Conn) {
	if !w.track(conn) {
		return
	}
	h, err := transport.ReadHello(conn, helloTimeout)
	if err != nil {
		w.release(conn) // handshake never completed; nothing to report it on
		return
	}
	switch h.Role {
	case transport.RoleControl:
		w.serveControl(ctx, conn)
		w.untrack(conn)
	case transport.RoleData:
		w.parkData(h, conn)
	default:
		w.release(conn) // unknown role: drop, same as a bad handshake
	}
}

// parkData stashes a peer's data connection until the local check
// claims it, bounded by dataConnTTL.
func (w *Worker) parkData(h transport.Hello, conn net.Conn) {
	key := dataKey{instance: h.Instance, seq: h.Seq, src: h.Src}
	ch := w.pendingChan(key)
	if ch == nil {
		w.release(conn) // worker closed; dialer sees the reset
		return
	}
	select {
	case ch <- conn:
	default:
		w.release(conn) // duplicate handshake for the same edge; keep the first
		return
	}
	time.AfterFunc(dataConnTTL, func() { w.expireData(key) })
}

// pendingChan returns the parking channel for key, creating it if
// needed; nil after Close.
func (w *Worker) pendingChan(key dataKey) chan net.Conn {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	ch, ok := w.pending[key]
	if !ok {
		ch = make(chan net.Conn, 1)
		w.pending[key] = ch
	}
	return ch
}

// expireData reaps a parked data connection nobody claimed in time.
func (w *Worker) expireData(key dataKey) {
	w.mu.Lock()
	ch, ok := w.pending[key]
	if ok {
		delete(w.pending, key)
	}
	w.mu.Unlock()
	if !ok {
		return
	}
	select {
	case conn := <-ch:
		w.release(conn) // reaping an expired socket; the check it served is long gone
	default:
	}
}

// claimData waits for the peer's data connection for the given check,
// bounded by the timeout and the context.
func (w *Worker) claimData(ctx context.Context, key dataKey, timeout time.Duration) (net.Conn, error) {
	ch := w.pendingChan(key)
	if ch == nil {
		return nil, fmt.Errorf("remote: worker closed")
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case conn := <-ch:
		w.mu.Lock()
		delete(w.pending, key)
		w.mu.Unlock()
		return conn, nil
	case <-timer.C:
		return nil, fmt.Errorf("remote: no data connection from shard %d within %v", key.src, timeout)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// serveControl runs one coordinator's request loop. The connection
// idles without a read deadline between requests — teardown happens by
// closing it, which the worker's Close and the serve context both do.
func (w *Worker) serveControl(ctx context.Context, conn net.Conn) {
	stop := context.AfterFunc(ctx, func() {
		_ = conn.Close() // teardown: unblock the idle read below
	})
	defer stop()
	defer func() {
		_ = conn.Close() // loop exit: request stream is done either way
	}()
	r := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	for {
		if err := conn.SetReadDeadline(time.Time{}); err != nil {
			return
		}
		typ, payload, _, err := transport.ReadFrame(r)
		if err != nil {
			return
		}
		if typ != transport.FrameRequest {
			return
		}
		var req Request
		if err := json.Unmarshal(payload, &req); err != nil {
			return
		}
		resp := w.dispatch(ctx, &req)
		resp.Seq = req.Seq
		if err := writeJSONFrame(conn, bw, transport.FrameResponse, resp, time.Now().Add(controlWriteTimeout)); err != nil {
			return
		}
	}
}

// dispatch executes one control request and shapes its response.
// Failures are responses, not connection teardown: the coordinator
// decides what a failed register or check means for the run.
func (w *Worker) dispatch(ctx context.Context, req *Request) *Response {
	var err error
	resp := &Response{OK: true}
	switch req.Op {
	case OpRegister:
		err = w.register(req)
	case OpCheck:
		resp.Verdicts, resp.Stats, err = w.check(ctx, req)
	case OpClose:
		w.mu.Lock()
		delete(w.insts, req.Instance)
		w.mu.Unlock()
	default:
		err = fmt.Errorf("remote: unknown op %q", req.Op)
	}
	if err != nil {
		return &Response{OK: false, Error: err.Error()}
	}
	return resp
}

// register parses one instance shard, wires its automata, and installs
// it.
func (w *Worker) register(req *Request) error {
	scheme, ok := w.schemes[req.Scheme]
	if !ok {
		return fmt.Errorf("remote: unknown scheme %q", req.Scheme)
	}
	doc, err := textio.Parse(strings.NewReader(req.Doc))
	if err != nil {
		return fmt.Errorf("remote: bad instance doc: %w", err)
	}
	in := doc.Instance
	// Restore the full instance's nil-map conventions: this worker's
	// halo may have no labelled member, but view assembly keys the
	// label maps' presence off the instance — a nil map here would drop
	// remote labels flooded in over the wire and diverge from
	// core.Check.
	if req.HasNodeLabels && in.NodeLabel == nil {
		in.NodeLabel = map[int]string{}
	}
	if req.HasEdgeLabels && in.EdgeLabel == nil {
		in.EdgeLabel = map[graph.Edge]string{}
	}
	if req.HasWeights && in.Weights == nil {
		in.Weights = map[graph.Edge]int64{}
	}
	// Wire the shard now: a malformed registration (an owned node
	// missing from the halo, an unassigned neighbor) fails here, and
	// every check afterwards only seeds, floods, and decides.
	shard, err := dist.NewShard(dist.ShardPlan{In: in, Owned: req.Owned, Assign: req.Assign}, req.Me)
	if err != nil {
		return fmt.Errorf("remote: register: %w", err)
	}
	for _, p := range shard.Peers() {
		if p < 0 || p >= len(req.Workers) {
			return fmt.Errorf("remote: assignment names shard %d but only %d workers", p, len(req.Workers))
		}
	}
	timeout := time.Duration(req.RoundTimeoutMS) * time.Millisecond
	if timeout <= 0 {
		timeout = transport.DefaultRoundTimeout
	}
	inst := &workerInstance{
		shard:   shard,
		proof:   make(core.Proof, len(req.Owned)),
		scheme:  scheme,
		me:      req.Me,
		workers: req.Workers,
		timeout: timeout,
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("remote: worker closed")
	}
	w.insts[req.Instance] = inst
	return nil
}

// check runs one proof over a registered shard: establish the data
// edges for this sequence (dial lower peers, claim connections accepted
// from higher ones), run the shard, report the verdict bitmap and
// traffic.
func (w *Worker) check(ctx context.Context, req *Request) ([]byte, transport.Stats, error) {
	w.mu.Lock()
	inst := w.insts[req.Instance]
	w.mu.Unlock()
	if inst == nil {
		return nil, transport.Stats{}, fmt.Errorf("remote: instance %q not registered", req.Instance)
	}
	inst.mu.Lock()
	defer inst.mu.Unlock()
	if err := decodeProofs(req.Proofs, inst.shard.Owned(), inst.proof); err != nil {
		return nil, transport.Stats{}, err
	}
	peers := inst.shard.Peers()
	conns := make(map[int]net.Conn, len(peers))
	releaseAll := func() {
		for _, c := range conns {
			w.release(c) // unwinding a failed or finished session
		}
	}
	for _, p := range peers {
		var conn net.Conn
		var err error
		if p < inst.me {
			conn, err = transport.DialData(ctx, inst.workers[p], transport.Hello{
				Instance: req.Instance, Seq: req.Seq, Src: inst.me,
			}, inst.timeout)
			if err == nil && !w.track(conn) {
				err = fmt.Errorf("worker closed")
			}
		} else {
			conn, err = w.claimData(ctx, dataKey{instance: req.Instance, seq: req.Seq, src: p}, inst.timeout)
		}
		if err != nil {
			releaseAll()
			return nil, transport.Stats{}, fmt.Errorf("remote: shard %d <-> %d: %w", inst.me, p, err)
		}
		conns[p] = conn
	}
	tr := transport.NewTCP(inst.me, req.Seq, conns, inst.timeout)
	defer releaseAll() // session conns are per-check; stats were read before
	verdicts, err := inst.shard.Run(ctx, tr, inst.proof, inst.scheme.Verifier())
	stats := tr.Stats()
	if err != nil {
		return nil, stats, err
	}
	return appendVerdicts(nil, verdicts), stats, nil
}
