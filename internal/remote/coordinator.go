package remote

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"lcp/internal/core"
	"lcp/internal/dist"
	"lcp/internal/obs"
	"lcp/internal/partition"
	"lcp/internal/transport"
)

// Options tune the coordinator's partitioning. The zero value cuts
// the instance with partition.Contiguous.
type Options struct {
	// Partitioner assigns nodes to workers (default
	// partition.Contiguous).
	Partitioner partition.Partitioner
}

// Coordinator drives one instance's checks across a fleet of workers:
// Register ships each worker its nodes' round-0 records and builds the
// shard-pair data mesh, Check fans a proof out and merges the per-shard
// verdicts. It holds one persistent control connection per worker, and
// the workers hold the registration exactly as long as those
// connections live. Any failure closes the coordinator; recovery is a
// new DialCoordinator and Register. Methods serialize — a coordinator
// is one checking session, not a pool.
type Coordinator struct {
	instance string
	addrs    []string
	opts     Options

	mu     sync.Mutex
	conns  []*controlConn
	seq    uint64
	n      int     // nodes in the registered instance
	owned  [][]int // node ids per worker, from Register's partition; nil before Register
	closed bool
}

// controlConn is one worker's persistent control connection with its
// framing state.
type controlConn struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// DialCoordinator connects to every worker's control plane. The
// instance name must be unique among concurrently-registered instances
// across the fleet — the façade derives it from a process-unique
// counter. At least one worker address is required.
func DialCoordinator(ctx context.Context, instance string, addrs []string, opts Options) (*Coordinator, error) {
	if instance == "" {
		return nil, fmt.Errorf("remote: empty instance name")
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("remote: no worker addresses")
	}
	c := &Coordinator{instance: instance, addrs: addrs, opts: opts}
	for _, addr := range addrs {
		d := net.Dialer{Timeout: dialTimeout}
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			_ = c.closeConns() // the dial failure is the error worth reporting
			return nil, fmt.Errorf("remote: dial worker %s: %w", addr, err)
		}
		h := transport.Hello{Proto: transport.ProtoVersion, Role: transport.RoleControl, Instance: instance}
		if err := transport.WriteHello(conn, h, dialTimeout); err != nil {
			_ = conn.Close() // the handshake failure is the error worth reporting
			_ = c.closeConns()
			return nil, fmt.Errorf("remote: handshake with worker %s: %w", addr, err)
		}
		c.conns = append(c.conns, &controlConn{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)})
	}
	return c, nil
}

// Register partitions the instance across the workers and installs each
// worker's shard — the round-0 records of the nodes it decides, the
// assignment that routes its cut edges, and the full fleet's addresses
// — then has the workers connect the shard-pair
// mesh every check reuses. The OpRegister fan-out completes before any
// OpConnect is sent, so every worker holds the instance before a peer's
// dial reaches it. It must be called before Check; calling it again
// replaces the registration fleet-wide. A failed Register closes the
// coordinator.
func (c *Coordinator) Register(ctx context.Context, in *core.Instance, schemeName string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errClosed
	}
	if schemeName == "" {
		return c.fail(fmt.Errorf("remote: empty scheme name"))
	}
	tl := obs.TimelineFrom(ctx)
	defer tl.Start("remote.register")()
	n := in.G.N()
	plans, err := dist.PlanShards(in, max(1, min(len(c.conns), n)), c.opts.Partitioner)
	if err != nil {
		return c.fail(fmt.Errorf("remote: %w", err))
	}
	owned := make([][]int, len(c.conns))
	c.seq++
	regs := make([]*Request, len(c.conns))
	for i := range c.conns {
		var recs []transport.Record
		if i < len(plans) {
			owned[i], recs = plans[i].Owned, plans[i].Records()
		}
		regs[i] = &Request{
			Op:       OpRegister,
			Seq:      c.seq,
			Instance: c.instance,
			Scheme:   schemeName,
			Records:  transport.AppendRecords(nil, recs),
			Directed: in.G.Directed(),
			Global:   in.Global,
			Assign:   recordAssign(recs, plans[0].Assign),
			Me:       i,
			Workers:  c.addrs,
		}
	}
	if err := c.fanOut(ctx, regs, nil, nil); err != nil {
		return c.fail(err)
	}
	c.seq++
	connects := make([]*Request, len(c.conns))
	for i := range connects {
		connects[i] = &Request{Op: OpConnect, Seq: c.seq, Instance: c.instance}
	}
	if err := c.fanOut(ctx, connects, nil, nil); err != nil {
		return c.fail(err)
	}
	c.n = n
	c.owned = owned
	return nil
}

// recordAssign restricts the assignment to the nodes the records name —
// the owned nodes and their neighbors — which is all a worker routes.
func recordAssign(recs []transport.Record, assign map[int]int) map[int]int {
	out := make(map[int]int, len(recs))
	for _, rec := range recs {
		out[rec.ID] = assign[rec.ID]
		for _, er := range rec.Edges {
			out[er.E.U], out[er.E.V] = assign[er.E.U], assign[er.E.V]
		}
	}
	return out
}

// Check fans one proof out to the fleet and merges the verdicts into a
// result indistinguishable from core.Check on the full instance. The
// returned stats sum the fleet's data-plane traffic for this check. A
// worker failure — network, process death, shard error — or a
// cancelled context surfaces as an error within the fixed failure
// bounds (or the context's deadline, if sooner) and closes the coordinator, which drops the registration on
// every worker.
func (c *Coordinator) Check(ctx context.Context, p core.Proof) (*core.Result, transport.Stats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var stats transport.Stats
	if c.closed {
		return nil, stats, errClosed
	}
	if c.owned == nil {
		return nil, stats, fmt.Errorf("remote: no instance registered")
	}
	tl := obs.TimelineFrom(ctx)
	defer tl.Start("remote.fanout")()
	c.seq++
	reqs := make([]*Request, len(c.conns))
	for i := range c.conns {
		// Restrict the proof to the worker's owned nodes, packed in the
		// registered order with entry presence exact (an explicit ε
		// entry stays an entry). Remote nodes' proofs reach the worker
		// over the data plane, inside flooded records.
		reqs[i] = &Request{Op: OpCheck, Instance: c.instance, Seq: c.seq, Proofs: appendProofs(nil, c.owned[i], p)}
	}
	res := &core.Result{Outputs: make(map[int]bool, c.n)}
	var mergeMu sync.Mutex
	if err := c.fanOut(ctx, reqs, &stats, func(i int, resp *Response) error {
		verdicts, err := decodeVerdicts(resp.Verdicts, len(c.owned[i]))
		if err != nil {
			return err
		}
		mergeMu.Lock()
		defer mergeMu.Unlock()
		for j, ok := range verdicts {
			res.Outputs[c.owned[i][j]] = ok
		}
		return nil
	}); err != nil {
		return nil, stats, c.fail(err)
	}
	if len(res.Outputs) != c.n {
		return nil, stats, c.fail(fmt.Errorf("remote: merged %d verdicts, want %d", len(res.Outputs), c.n))
	}
	return res, stats, nil
}

// errClosed is the error of every request on a closed coordinator.
var errClosed = errors.New("remote: coordinator closed")

// fail ends the registration after a failure: the control connections
// close, so every worker drops the instance and stops any check in
// flight on it. Caller holds c.mu. It returns err.
func (c *Coordinator) fail(err error) error {
	c.closed = true
	_ = c.closeConns() // the failure is the error worth reporting
	return err
}

// fanOut sends one request per worker concurrently and collects the
// responses. The first failure wins; every round trip is bounded by
// roundTripTimeout and the context. onResp, when non-nil, consumes each
// successful response; stats, when non-nil, accumulates response stats.
func (c *Coordinator) fanOut(ctx context.Context, reqs []*Request, stats *transport.Stats, onResp func(int, *Response) error) error {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	report := func(i int, err error) {
		mu.Lock()
		if firstErr == nil && err != nil {
			firstErr = fmt.Errorf("worker %s: %w", c.addrs[i], err)
		}
		mu.Unlock()
	}
	for i, cc := range c.conns {
		wg.Add(1)
		go func(i int, cc *controlConn) {
			defer wg.Done()
			resp, err := c.roundTrip(ctx, cc, reqs[i])
			if err != nil {
				report(i, err)
				return
			}
			if !resp.OK {
				report(i, errors.New(resp.Error))
				return
			}
			mu.Lock()
			if stats != nil {
				stats.Add(resp.Stats)
			}
			mu.Unlock()
			if onResp != nil {
				if err := onResp(i, resp); err != nil {
					report(i, err)
				}
			}
		}(i, cc)
	}
	wg.Wait()
	if firstErr != nil {
		if err := ctx.Err(); err != nil {
			// The deadline yank manufactured the I/O errors; report the
			// cause.
			return err
		}
		return fmt.Errorf("remote: %w", firstErr)
	}
	return nil
}

// roundTrip sends one request on a control connection and reads its
// response. The protocol never pipelines requests, so a response for
// any other sequence number is a protocol error. Bounded by
// roundTripTimeout; a done context yanks the connection deadline to now.
func (c *Coordinator) roundTrip(ctx context.Context, cc *controlConn, req *Request) (*Response, error) {
	deadline := time.Now().Add(roundTripTimeout)
	stop := context.AfterFunc(ctx, func() {
		_ = cc.conn.SetDeadline(time.Now()) // best effort: the point is to interrupt blocked I/O
	})
	defer stop()
	var resp Response
	err := writeJSONFrame(cc.conn, cc.w, transport.FrameRequest, req, deadline)
	if err == nil {
		err = readJSONFrame(cc.conn, cc.r, transport.FrameResponse, &resp, deadline)
	}
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, err
	}
	if resp.Seq != req.Seq {
		return nil, fmt.Errorf("remote: response for seq %d, want %d", resp.Seq, req.Seq)
	}
	return &resp, nil
}

// Close closes the control connections, which ends the registration on
// every worker. The coordinator is unusable afterwards; closing twice is
// a no-op.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.closeConns()
}

// closeConns closes every control connection.
func (c *Coordinator) closeConns() error {
	var errs []error
	for _, cc := range c.conns {
		if err := cc.conn.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
