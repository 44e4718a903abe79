package remote

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"lcp/internal/core"
	"lcp/internal/dist"
	"lcp/internal/graph"
	"lcp/internal/transport"
)

// The fixed failure bounds of the control and data planes. They are
// engineering constants, not parameters of verification: a check is
// priced in rounds and messages, and a bound only turns a dead or
// stalled peer into an error. A caller that wants a tighter bound on
// its own requests passes a context deadline, which every round trip
// honours.
const (
	// dialTimeout bounds dialing and handshaking one worker's control
	// connection.
	dialTimeout = 5 * time.Second
	// roundTripTimeout bounds one control-plane round trip (register,
	// connect or check) with one worker.
	roundTripTimeout = 60 * time.Second
	// roundTimeout bounds each flood round's network wait on a worker,
	// and building a registration's data mesh.
	roundTimeout = transport.DefaultRoundTimeout
	// helloTimeout bounds the handshake frame on every accepted
	// connection: a dialer that never says hello cannot park a socket
	// forever.
	helloTimeout = 10 * time.Second
	// controlWriteTimeout bounds one control-plane response write.
	controlWriteTimeout = 30 * time.Second
)

// Worker serves one shard of registered instances: it accepts control
// connections from coordinators (register / connect / check requests)
// and data connections from peer workers (one per shard pair per
// registration), wires a dist.Shard per registered instance, and runs
// it over the instance's data mesh for every check. A registration
// lives exactly as long as the control connection that made it: when
// that connection closes, for any reason, the worker drops the
// instance and closes its mesh. One worker process can hold shards of
// many instances at once; checks on different instances run
// concurrently.
type Worker struct {
	ln      net.Listener
	schemes map[string]core.Scheme

	mu     sync.Mutex
	insts  map[string]*workerInstance // by name, for routing peers' data connections
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// workerInstance is one registered shard: the automata wired at
// registration, the routing the check phase needs, and its data mesh —
// one connection per peer shard it shares a cut edge with, built by
// OpConnect and reused by every check. Only the control connection
// that registered it runs requests on it, one at a time, so the shard
// and the proof need no lock; mu guards the mesh, which peers' dials
// fill concurrently.
type workerInstance struct {
	name    string
	seq     uint64 // the registration's sequence number; the mesh's Hellos carry it
	shard   *dist.Shard
	proof   core.Proof // the check's decoded proofs, reused
	scheme  core.Scheme
	me      int
	workers []string

	mu      sync.Mutex
	mesh    map[int]net.Conn // by peer shard; complete, and no longer written, once ready is closed
	ready   chan struct{}    // closed when every peer connection is present
	dropped bool             // the mesh is closed; no connection joins it any more
}

// addPeer installs peer p's mesh connection. A duplicate, or any
// connection after the mesh closed, is refused.
func (inst *workerInstance) addPeer(p int, conn net.Conn) error {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	switch {
	case inst.dropped:
		return fmt.Errorf("remote: registration %q dropped", inst.name)
	case inst.mesh[p] != nil:
		return fmt.Errorf("remote: duplicate data connection for shard %d", p)
	}
	inst.mesh[p] = conn
	if len(inst.mesh) == len(inst.shard.Peers()) {
		close(inst.ready)
	}
	return nil
}

// closeMesh severs every mesh connection, so peers blocked on one fail
// at once. Idempotent.
func (inst *workerInstance) closeMesh(w *Worker) {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	if !inst.dropped {
		inst.dropped = true
		for _, c := range inst.mesh {
			w.release(c)
		}
	}
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
// (unblocking Serve), every tracked connection — control and data — is
// severed, so peers mid-round fail their reads immediately instead of
// draining a deadline. This is exactly the "kill a worker mid-round"
// failure the fault tests exercise.
func (w *Worker) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	conns := make([]net.Conn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	w.mu.Unlock()
	err := w.ln.Close()
	for _, c := range conns {
		_ = c.Close() // severing a live session; peers see the reset
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
		if err := w.acceptData(h, conn); err != nil {
			w.release(conn) // no registration awaits it; the dialer sees the close
		}
	default:
		w.release(conn) // unknown role: drop, same as a bad handshake
	}
}

// acceptData routes a peer's data connection straight into the mesh of
// the registration its Hello names. Only a higher shard dials a lower
// one; an unknown instance, another registration's seq, a shard sharing
// no cut edge, or a duplicate is refused.
func (w *Worker) acceptData(h transport.Hello, conn net.Conn) error {
	w.mu.Lock()
	inst := w.insts[h.Instance]
	w.mu.Unlock()
	if inst == nil || inst.seq != h.Seq {
		return fmt.Errorf("remote: no registration %q with seq %d", h.Instance, h.Seq)
	}
	if _, ok := slices.BinarySearch(inst.shard.Peers(), h.Src); !ok || h.Src < inst.me {
		return fmt.Errorf("remote: shard %d does not dial shard %d", h.Src, inst.me)
	}
	return inst.addPeer(h.Src, conn)
}

// serveControl runs one coordinator's request loop. The connection
// idles without a read deadline between requests — teardown happens by
// closing it, which the worker's Close and the serve context both do.
// When the loop ends, for any reason, every registration this
// connection made is dropped.
func (w *Worker) serveControl(ctx context.Context, conn net.Conn) {
	stop := context.AfterFunc(ctx, func() {
		_ = conn.Close() // teardown: unblock the idle read below
	})
	defer stop()
	mine := make(map[string]*workerInstance)
	defer func() {
		_ = conn.Close() // loop exit: request stream is done either way
		for name, inst := range mine {
			w.drop(name, inst)
		}
	}()
	r := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	for {
		if err := conn.SetReadDeadline(time.Time{}); err != nil {
			return
		}
		typ, payload, _, err := transport.ReadFrame(r)
		if err != nil || typ != transport.FrameRequest {
			return
		}
		var req Request
		if err := json.Unmarshal(payload, &req); err != nil {
			return
		}
		resp := w.dispatchWatched(ctx, conn, r, &req, mine)
		resp.Seq = req.Seq
		if err := writeJSONFrame(conn, bw, transport.FrameResponse, resp, time.Now().Add(controlWriteTimeout)); err != nil {
			return
		}
	}
}

// dispatchWatched runs one request while watching its control
// connection. The protocol never pipelines requests, so EOF or any byte
// arriving before the response means the coordinator gave up: the
// request's context is cancelled, and a check in flight stops within
// one round deadline instead of flooding to its end.
func (w *Worker) dispatchWatched(ctx context.Context, conn net.Conn, r *bufio.Reader, req *Request, mine map[string]*workerInstance) *Response {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		// Returns on EOF, on a byte, or on the deadline yank below; a
		// byte stays buffered for the next request read.
		_, _ = r.Peek(1)
		cancel()
	}()
	resp := w.dispatch(ctx, req, mine)
	_ = conn.SetReadDeadline(time.Now()) // end the watch; the next request read clears the deadline
	<-watched
	return resp
}

// dispatch executes one control request and shapes its response. mine
// holds the registrations of the requesting control connection, the
// only one that may connect or check them. Failures are responses; a
// failed connect or check also ends the registration, closing its mesh
// so peers blocked on this shard fail at once.
func (w *Worker) dispatch(ctx context.Context, req *Request, mine map[string]*workerInstance) *Response {
	var err error
	resp := &Response{OK: true}
	switch req.Op {
	case OpRegister:
		var inst *workerInstance
		if inst, err = w.register(req, mine[req.Instance]); err == nil {
			mine[req.Instance] = inst
		}
	case OpConnect, OpCheck:
		inst := mine[req.Instance]
		if inst == nil {
			err = fmt.Errorf("remote: instance %q not registered", req.Instance)
			break
		}
		if req.Op == OpConnect {
			err = w.connect(ctx, inst)
		} else {
			resp.Verdicts, resp.Stats, err = inst.check(ctx, req)
		}
		if err != nil {
			delete(mine, req.Instance)
			w.drop(req.Instance, inst)
		}
	default:
		err = fmt.Errorf("remote: unknown op %q", req.Op)
	}
	if err != nil {
		return &Response{OK: false, Error: err.Error()}
	}
	return resp
}

// drop ends one registration: the instance leaves the registry if it is
// still the one registered under its name, and its mesh closes.
func (w *Worker) drop(name string, inst *workerInstance) {
	w.mu.Lock()
	if w.insts[name] == inst {
		delete(w.insts, name)
	}
	w.mu.Unlock()
	inst.closeMesh(w)
}

// register wires one shard from its records and installs it with an
// empty mesh. A malformed registration fails here, before anything is
// installed, and every check afterwards only seeds, floods, and
// decides. prev is the requesting connection's current registration
// under the same name, which this one replaces.
func (w *Worker) register(req *Request, prev *workerInstance) (*workerInstance, error) {
	scheme, ok := w.schemes[req.Scheme]
	if !ok {
		return nil, fmt.Errorf("remote: unknown scheme %q", req.Scheme)
	}
	recs, err := transport.DecodeRecords(req.Records)
	if err != nil {
		return nil, fmt.Errorf("remote: register: %w", err)
	}
	kind := graph.Undirected
	if req.Directed {
		kind = graph.Directed
	}
	shard, err := dist.WireRecords(req.Me, kind, req.Global, recs, req.Assign)
	if err != nil {
		return nil, fmt.Errorf("remote: register: %w", err)
	}
	for _, p := range shard.Peers() {
		if p < 0 || p >= len(req.Workers) {
			return nil, fmt.Errorf("remote: assignment names shard %d but only %d workers", p, len(req.Workers))
		}
	}
	inst := &workerInstance{
		name:    req.Instance,
		seq:     req.Seq,
		shard:   shard,
		proof:   make(core.Proof, len(recs)),
		scheme:  scheme,
		me:      req.Me,
		workers: req.Workers,
		mesh:    make(map[int]net.Conn, len(shard.Peers())),
		ready:   make(chan struct{}),
	}
	if len(shard.Peers()) == 0 {
		close(inst.ready)
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil, fmt.Errorf("remote: worker closed")
	}
	w.insts[req.Instance] = inst
	w.mu.Unlock()
	if prev != nil {
		w.drop(req.Instance, prev) // replaced: only its mesh is left to close
	}
	return inst, nil
}

// connect builds the instance's mesh: it dials every lower peer shard
// with the registration's Hello, then waits until every higher peer's
// dial has been accepted, bounded by roundTimeout. Coordinators
// send OpConnect only after every worker acknowledged OpRegister, so
// every dial finds its instance registered.
func (w *Worker) connect(ctx context.Context, inst *workerInstance) error {
	for _, p := range inst.shard.Peers() {
		if p > inst.me {
			break // Peers is ascending; higher shards dial this one
		}
		conn, err := transport.DialData(ctx, inst.workers[p], transport.Hello{
			Instance: inst.name, Seq: inst.seq, Src: inst.me,
		}, roundTimeout)
		if err != nil {
			return fmt.Errorf("remote: shard %d -> %d: %w", inst.me, p, err)
		}
		if !w.track(conn) {
			return fmt.Errorf("remote: worker closed")
		}
		if err := inst.addPeer(p, conn); err != nil {
			w.release(conn) // refused by our own mesh: it closed meanwhile
			return err
		}
	}
	timer := time.NewTimer(roundTimeout)
	defer timer.Stop()
	select {
	case <-inst.ready:
		return nil
	case <-timer.C:
		return fmt.Errorf("remote: shard %d: peer data connections still missing after %v", inst.me, roundTimeout)
	case <-ctx.Done():
		return ctx.Err()
	}
}

// check runs one proof over the registered shard and its mesh, and
// reports the verdict bitmap and the check's traffic. Every round is
// lockstep, so a successful check leaves no bytes in flight on the
// mesh, and the next check can read it through fresh buffers.
func (inst *workerInstance) check(ctx context.Context, req *Request) ([]byte, transport.Stats, error) {
	select {
	case <-inst.ready:
	default:
		return nil, transport.Stats{}, fmt.Errorf("remote: instance %q: data mesh not connected", inst.name)
	}
	if err := decodeProofs(req.Proofs, inst.shard.Owned(), inst.proof); err != nil {
		return nil, transport.Stats{}, err
	}
	tr := transport.NewTCP(inst.me, req.Seq, inst.mesh, roundTimeout)
	verdicts, err := inst.shard.Run(ctx, tr, inst.proof, inst.scheme.Verifier())
	stats := tr.Stats()
	if err != nil {
		return nil, stats, err
	}
	return appendVerdicts(nil, verdicts), stats, nil
}
