package remote

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
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
// shard-pair data mesh, Check fans a proof out and merges the verdicts
// with dist.MergeVerdicts. The workers hold the registration exactly as
// long as its control connections, one per worker, live; any failure
// closes the coordinator. Methods serialize: a registered coordinator is
// one dist.Group, which a dist.Network pools and replaces (Fleet).
type Coordinator struct {
	instance string
	addrs    []string
	opts     Options

	mu     sync.Mutex
	conns  []*controlConn
	seq    uint64
	plans  []dist.ShardPlan // one per worker, from the registration; nil before it
	closed bool
}

// fleetSeq distinguishes the registrations Fleet makes from this
// process on a shared worker fleet.
var fleetSeq atomic.Uint64

// Fleet is the dist.GroupBuilder of a worker fleet: each group is a
// Coordinator dialed to the first len(plans) addresses, one shard per
// worker, and registered with the plans and the scheme the workers
// resolve by name, under a process-unique instance name.
func Fleet(addrs []string, schemeName string) dist.GroupBuilder {
	return func(ctx context.Context, plans []dist.ShardPlan) (dist.Group, error) {
		id := fmt.Sprintf("lcp-%d-%d", os.Getpid(), fleetSeq.Add(1))
		c, err := DialCoordinator(ctx, id, addrs[:min(len(plans), len(addrs))], Options{})
		if err != nil {
			return nil, err
		}
		if err := c.register(ctx, plans, schemeName); err != nil {
			return nil, err // a failed registration has closed the coordinator
		}
		return c, nil
	}
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
// across the fleet — Fleet derives it from a process-unique counter. At
// least one worker address is required.
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

// Register partitions the instance across the workers, one shard per
// worker (a worker beyond the node count owns none), and installs each
// worker's shard — the round-0 records of the nodes it decides, the
// assignment that routes its cut edges, and the full fleet's addresses
// — then has the workers connect the shard-pair
// mesh every check reuses. The OpRegister fan-out completes before any
// OpConnect is sent, so every worker holds the instance before a peer's
// dial reaches it. It must be called before Check; calling it again
// replaces the registration fleet-wide. A failed Register closes the
// coordinator.
func (c *Coordinator) Register(ctx context.Context, in *core.Instance, schemeName string) error {
	plans, err := dist.PlanShards(in, len(c.conns), c.opts.Partitioner)
	if err != nil {
		_ = c.Close() // the partition error is the one worth reporting
		return fmt.Errorf("remote: %w", err)
	}
	return c.register(ctx, plans, schemeName)
}

// register installs plan i on worker i, as Register does.
func (c *Coordinator) register(ctx context.Context, plans []dist.ShardPlan, schemeName string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errClosed
	}
	if schemeName == "" {
		return c.fail(fmt.Errorf("remote: empty scheme name"))
	}
	if len(plans) != len(c.conns) {
		return c.fail(fmt.Errorf("remote: %d shards for %d workers", len(plans), len(c.conns)))
	}
	defer obs.TimelineFrom(ctx).Start("remote.register")()
	in := plans[0].In
	c.seq++
	regs := make([]*Request, len(c.conns))
	for i, plan := range plans {
		recs := plan.Records()
		regs[i] = &Request{
			Op:       OpRegister,
			Seq:      c.seq,
			Instance: c.instance,
			Scheme:   schemeName,
			Records:  transport.AppendRecords(nil, recs),
			Directed: in.G.Directed(),
			Global:   in.Global,
			Assign:   recordAssign(recs, plan.Assign),
			Me:       i,
			Workers:  c.addrs,
		}
	}
	if _, err := c.fanOut(ctx, regs); err != nil {
		return c.fail(err)
	}
	c.seq++
	connects := make([]*Request, len(c.conns))
	for i := range connects {
		connects[i] = &Request{Op: OpConnect, Seq: c.seq, Instance: c.instance}
	}
	if _, err := c.fanOut(ctx, connects); err != nil {
		return c.fail(err)
	}
	c.plans = plans
	return nil
}

// recordAssign restricts the assignment to the nodes the records name —
// the owned nodes and their neighbors — which is all a worker routes.
func recordAssign(recs []transport.Record, assign map[int]int) map[int]int {
	out := make(map[int]int, len(recs))
	for _, rec := range recs {
		out[rec.ID] = assign[rec.ID]
		for _, w := range rec.Nbrs {
			out[w] = assign[w]
		}
	}
	return out
}

// Check fans one proof out to the fleet and merges the verdicts into a
// result indistinguishable from core.Check on the full instance. The
// returned stats sum the fleet's data-plane traffic for this check. A
// worker failure — network, process death, shard error — or a
// cancelled context surfaces as an error within the fixed failure
// bounds (or the context's deadline, if sooner) and closes the
// coordinator, which drops the registration on every worker.
func (c *Coordinator) Check(ctx context.Context, p core.Proof) (*core.Result, transport.Stats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	verdicts, stats, err := c.run(ctx, p)
	if err != nil {
		return nil, stats, err
	}
	res, err := dist.MergeVerdicts(c.plans, verdicts)
	return res, stats, err
}

// Run is Check without the merge, for dist.Group. The workers run the
// scheme they were registered with, so v is not used.
func (c *Coordinator) Run(ctx context.Context, p core.Proof, _ core.Verifier) ([][]bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	verdicts, _, err := c.run(ctx, p)
	return verdicts, err
}

// run fans one proof out to the fleet and decodes each worker's
// verdicts. Caller holds c.mu.
func (c *Coordinator) run(ctx context.Context, p core.Proof) ([][]bool, transport.Stats, error) {
	var stats transport.Stats
	if c.closed {
		return nil, stats, errClosed
	}
	if c.plans == nil {
		return nil, stats, fmt.Errorf("remote: no instance registered")
	}
	defer obs.TimelineFrom(ctx).Start("remote.fanout")()
	c.seq++
	reqs := make([]*Request, len(c.conns))
	for i := range c.conns {
		// Restrict the proof to the worker's owned nodes, packed in the
		// registered order with entry presence exact (an explicit ε
		// entry stays an entry). Remote nodes' proofs reach the worker
		// over the data plane, inside flooded records.
		reqs[i] = &Request{Op: OpCheck, Instance: c.instance, Seq: c.seq, Proofs: appendProofs(nil, c.plans[i].Owned, p)}
	}
	resps, err := c.fanOut(ctx, reqs)
	if err != nil {
		return nil, stats, c.fail(err)
	}
	verdicts := make([][]bool, len(resps))
	for i, resp := range resps {
		stats.Add(resp.Stats)
		if verdicts[i], err = decodeVerdicts(resp.Verdicts, len(c.plans[i].Owned)); err != nil {
			return nil, stats, c.fail(fmt.Errorf("remote: worker %s: %w", c.addrs[i], err))
		}
	}
	return verdicts, stats, nil
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

// fanOut sends one request per worker concurrently and returns the
// responses in worker order. The first failure wins; every round trip
// is bounded by roundTripTimeout and the context.
func (c *Coordinator) fanOut(ctx context.Context, reqs []*Request) ([]*Response, error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	resps := make([]*Response, len(c.conns))
	for i, cc := range c.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := c.roundTrip(ctx, cc, reqs[i])
			if err == nil && !resp.OK {
				err = errors.New(resp.Error)
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("worker %s: %w", c.addrs[i], err)
				}
				mu.Unlock()
			}
			resps[i] = resp
		}()
	}
	wg.Wait()
	if firstErr != nil {
		if err := ctx.Err(); err != nil {
			// The deadline yank manufactured the I/O errors; report the
			// cause.
			return nil, err
		}
		return nil, fmt.Errorf("remote: %w", firstErr)
	}
	return resps, nil
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
