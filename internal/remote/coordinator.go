package remote

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"lcp/internal/core"
	"lcp/internal/engine"
	"lcp/internal/obs"
	"lcp/internal/partition"
	"lcp/internal/textio"
	"lcp/internal/transport"
)

// Coordinator option defaults.
const (
	// DefaultDialTimeout bounds dialing one worker's control connection.
	DefaultDialTimeout = 5 * time.Second
	// DefaultCheckTimeout bounds one whole control-plane round trip
	// (register or check) with one worker.
	DefaultCheckTimeout = 60 * time.Second
)

// Options tune the coordinator's timeouts and partitioning. The zero
// value selects sensible defaults.
type Options struct {
	// DialTimeout bounds dialing and handshaking one control
	// connection (default DefaultDialTimeout).
	DialTimeout time.Duration
	// CheckTimeout bounds one register or check round trip per worker
	// (default DefaultCheckTimeout). A dead worker surfaces as an error
	// within it.
	CheckTimeout time.Duration
	// RoundTimeout bounds each flood round's network wait on the
	// workers (default transport.DefaultRoundTimeout).
	RoundTimeout time.Duration
	// Partitioner assigns nodes to workers (default
	// partition.Contiguous).
	Partitioner partition.Partitioner
}

func (o Options) dialTimeout() time.Duration {
	if o.DialTimeout <= 0 {
		return DefaultDialTimeout
	}
	return o.DialTimeout
}

func (o Options) checkTimeout() time.Duration {
	if o.CheckTimeout <= 0 {
		return DefaultCheckTimeout
	}
	return o.CheckTimeout
}

func (o Options) roundTimeout() time.Duration {
	if o.RoundTimeout <= 0 {
		return transport.DefaultRoundTimeout
	}
	return o.RoundTimeout
}

func (o Options) partitioner() partition.Partitioner {
	if o.Partitioner == nil {
		return partition.Contiguous{}
	}
	return o.Partitioner
}

// Coordinator drives one instance's checks across a fleet of workers:
// Register ships each worker its radius-1 halo shard, Check fans a
// proof out and merges the per-shard verdicts. It holds one persistent
// control connection per worker; the per-check data connections are the
// workers' own business. Methods serialize — a coordinator is one
// checking session, not a pool.
type Coordinator struct {
	instance string
	addrs    []string
	opts     Options

	mu         sync.Mutex
	conns      []*controlConn
	seq        uint64
	registered bool
	n          int     // nodes in the registered instance
	owned      [][]int // node ids per worker, from Register's partition
	closed     bool
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
		d := net.Dialer{Timeout: opts.dialTimeout()}
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			_ = c.closeConns() // the dial failure is the error worth reporting
			return nil, fmt.Errorf("remote: dial worker %s: %w", addr, err)
		}
		h := transport.Hello{Proto: transport.ProtoVersion, Role: transport.RoleControl, Instance: instance}
		if err := transport.WriteHello(conn, h, opts.dialTimeout()); err != nil {
			_ = conn.Close() // the handshake failure is the error worth reporting
			_ = c.closeConns()
			return nil, fmt.Errorf("remote: handshake with worker %s: %w", addr, err)
		}
		c.conns = append(c.conns, &controlConn{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)})
	}
	return c, nil
}

// Register partitions the instance across the workers and installs each
// worker's shard: its radius-1 halo (serialized through textio), the
// nodes it decides, the assignment that routes its cut edges, and the
// full fleet's addresses. It must be called once before Check; calling
// it again replaces the registration fleet-wide.
func (c *Coordinator) Register(ctx context.Context, in *core.Instance, schemeName string) error {
	if schemeName == "" {
		return fmt.Errorf("remote: empty scheme name")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("remote: coordinator closed")
	}
	tl := obs.TimelineFrom(ctx)
	defer tl.Start("remote.register")()
	ids := in.G.Nodes()
	workers := len(c.conns)
	shards := workers
	if shards > len(ids) {
		shards = len(ids)
	}
	if shards < 1 {
		shards = 1
	}
	pt := c.opts.partitioner()
	assign := pt.Assign(in.G, shards)
	if err := partition.Validate(assign, len(ids), shards); err != nil {
		return fmt.Errorf("remote: partitioner %q: %v", pt.Name(), err)
	}
	groups := partition.Groups(in.G, assign, shards)
	assignByID := make(map[int]int, len(ids))
	for i, id := range ids {
		assignByID[id] = assign[i]
	}
	owned := make([][]int, workers)
	copy(owned, groups)
	c.seq++
	seq := c.seq
	reqs := make([]*Request, workers)
	for i := 0; i < workers; i++ {
		halo := in
		if len(owned[i]) < len(ids) {
			halo = engine.HaloInstance(in, owned[i], 1)
		}
		var sb strings.Builder
		if err := textio.Write(&sb, &textio.Document{Instance: halo}); err != nil {
			return fmt.Errorf("remote: serialize shard %d: %w", i, err)
		}
		haloAssign := make(map[int]int)
		for _, id := range halo.G.Nodes() {
			haloAssign[id] = assignByID[id]
		}
		reqs[i] = &Request{
			Op:             OpRegister,
			Seq:            seq,
			Instance:       c.instance,
			Scheme:         schemeName,
			Doc:            sb.String(),
			Me:             i,
			Workers:        c.addrs,
			Owned:          owned[i],
			Assign:         haloAssign,
			HasNodeLabels:  in.NodeLabel != nil,
			HasEdgeLabels:  in.EdgeLabel != nil,
			HasWeights:     in.Weights != nil,
			RoundTimeoutMS: c.opts.roundTimeout().Milliseconds(),
		}
	}
	if err := c.fanOut(ctx, reqs, nil, nil); err != nil {
		return err
	}
	c.registered = true
	c.n = len(ids)
	c.owned = owned
	return nil
}

// Check fans one proof out to the fleet and merges the verdicts into a
// result indistinguishable from core.Check on the full instance. The
// returned stats sum the fleet's data-plane traffic for this check. A
// worker failure — network, process death, shard error — surfaces as an
// error within the configured timeouts; the coordinator stays usable
// for further checks (the data plane is per-check, so nothing durable
// is poisoned).
func (c *Coordinator) Check(ctx context.Context, p core.Proof) (*core.Result, transport.Stats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var stats transport.Stats
	if c.closed {
		return nil, stats, fmt.Errorf("remote: coordinator closed")
	}
	if !c.registered {
		return nil, stats, fmt.Errorf("remote: no instance registered")
	}
	tl := obs.TimelineFrom(ctx)
	defer tl.Start("remote.fanout")()
	c.seq++
	seq := c.seq
	reqs := make([]*Request, len(c.conns))
	for i := range c.conns {
		// Restrict the proof to the worker's owned nodes, packed in the
		// registered order with entry presence exact (an explicit ε
		// entry stays an entry). Remote nodes' proofs reach the worker
		// over the data plane, inside flooded records.
		reqs[i] = &Request{Op: OpCheck, Instance: c.instance, Seq: seq, Proofs: appendProofs(nil, c.owned[i], p)}
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
		return nil, stats, err
	}
	if len(res.Outputs) != c.n {
		return nil, stats, fmt.Errorf("remote: merged %d verdicts, want %d", len(res.Outputs), c.n)
	}
	return res, stats, nil
}

// fanOut sends one request per worker concurrently and collects the
// responses. The first failure wins; every round trip is bounded by the
// check timeout and the context. onResp, when non-nil, consumes each
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
// response, skipping stale responses of earlier, timed-out requests
// (matched by sequence number). Bounded by the check timeout; a
// cancelled context yanks the connection deadline to now.
func (c *Coordinator) roundTrip(ctx context.Context, cc *controlConn, req *Request) (*Response, error) {
	deadline := time.Now().Add(c.opts.checkTimeout())
	stop := context.AfterFunc(ctx, func() {
		_ = cc.conn.SetDeadline(time.Now()) // best effort: the point is to interrupt blocked I/O
	})
	defer stop()
	if err := writeJSONFrame(cc.conn, cc.w, transport.FrameRequest, req, deadline); err != nil {
		return nil, err
	}
	for {
		var resp Response
		if err := readJSONFrame(cc.conn, cc.r, transport.FrameResponse, &resp, deadline); err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			return nil, err
		}
		switch {
		case resp.Seq == req.Seq:
			return &resp, nil
		case resp.Seq < req.Seq:
			// A stale response to a request that timed out earlier;
			// drain and keep waiting for ours.
		default:
			return nil, fmt.Errorf("remote: response for future seq %d, want %d", resp.Seq, req.Seq)
		}
	}
}

// Close tells every worker to forget the instance (best effort, short
// deadline) and closes the control connections. The coordinator is
// unusable afterwards.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.registered {
		deadline := time.Now().Add(c.opts.dialTimeout())
		c.seq++
		for _, cc := range c.conns {
			req := &Request{Op: OpClose, Instance: c.instance, Seq: c.seq}
			if err := writeJSONFrame(cc.conn, cc.w, transport.FrameRequest, req, deadline); err != nil {
				continue // best effort: the conn is closing anyway
			}
			var resp Response
			_ = readJSONFrame(cc.conn, cc.r, transport.FrameResponse, &resp, deadline) // best effort
		}
	}
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
