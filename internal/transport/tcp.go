package transport

// The TCP implementation: one connection per shard pair, one coalesced
// data frame per peer per round in each direction. Per-peer message
// counting is the round synchronization (a shard can only read its
// round-r frame from a peer that reached round r, and can only start
// round r+1 after draining every round-r frame), so adjacent shards
// skew by at most one round — the classic α-synchronizer — and Barrier
// is a no-op: unlike in-process
// zero-copy handover, frames are copied at Exchange time, so there is
// no shared buffer to protect.
//
// Failure is bounded, never hanging: every round's reads and writes
// run under a deadline, a cancelled context yanks the deadlines to
// now, and the first error poisons the transport — later rounds fail
// fast instead of desynchronizing the frame stream.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"
)

// DefaultRoundTimeout bounds one round's network wait when the caller
// passes no explicit timeout.
const DefaultRoundTimeout = 10 * time.Second

// TCP is one shard's transport over established peer connections. The
// handshake that produces the connections (dial, accept, Hello
// routing) lives with the caller — internal/remote — because routing
// needs the listener; TCP owns everything after: framing, coalescing,
// deadlines, teardown.
type TCP struct {
	me      int
	seq     uint64
	peers   []int
	conns   map[int]net.Conn
	writers map[int]*bufio.Writer
	readers map[int]*bufio.Reader
	staged  map[int][]Delivery
	timeout time.Duration

	mu     sync.Mutex // guards stats and broken across Exchange workers
	stats  Stats
	broken error
	closed sync.Once
}

// NewTCP wraps established per-peer connections (keyed by peer shard
// index) as the transport of shard me for check sequence seq. A
// non-positive timeout selects DefaultRoundTimeout.
func NewTCP(me int, seq uint64, conns map[int]net.Conn, timeout time.Duration) *TCP {
	if timeout <= 0 {
		timeout = DefaultRoundTimeout
	}
	t := &TCP{
		me:      me,
		seq:     seq,
		conns:   conns,
		writers: make(map[int]*bufio.Writer, len(conns)),
		readers: make(map[int]*bufio.Reader, len(conns)),
		staged:  make(map[int][]Delivery, len(conns)),
		timeout: timeout,
	}
	for p, c := range conns {
		t.peers = append(t.peers, p)
		t.writers[p] = bufio.NewWriter(c)
		t.readers[p] = bufio.NewReader(c)
	}
	sort.Ints(t.peers)
	return t
}

// Name identifies the implementation.
func (t *TCP) Name() string { return "tcp" }

// Shard is the index this transport speaks for.
func (t *TCP) Shard() int { return t.me }

// Peers lists the connected peer shard indices, ascending.
func (t *TCP) Peers() []int { return t.peers }

// Send stages recs for node dst on shard peer. The records are
// serialized at Exchange time, so unlike the in-process transport the
// caller's buffers are free again as soon as Exchange returns.
func (t *TCP) Send(peer, dst int, recs Batch) {
	t.staged[peer] = append(t.staged[peer], Delivery{Dst: dst, Recs: recs})
}

// Exchange writes one coalesced frame per peer (empty ones included —
// they carry the round synchronization), reads one frame per peer, and
// returns the decoded deliveries. A cancelled ctx interrupts the
// round's I/O by pulling every connection's deadline to now.
func (t *TCP) Exchange(ctx context.Context, round int) ([]Delivery, error) {
	t.mu.Lock()
	broken := t.broken
	t.mu.Unlock()
	if broken != nil {
		return nil, &Error{Transport: t.Name(), Round: round, Err: broken}
	}
	before := t.Stats()
	defer t.publishDelta(before)
	// Serialize before any I/O: staging is single-threaded, the frame
	// workers below are not.
	payloads := make(map[int][]byte, len(t.peers))
	for _, p := range t.peers {
		payloads[p] = AppendData(nil, DataHeader{Seq: t.seq, Round: round, Src: t.me}, t.staged[p])
		t.staged[p] = nil
	}
	deadline := time.Now().Add(t.timeout)
	stop := context.AfterFunc(ctx, func() {
		now := time.Now()
		for _, c := range t.conns {
			_ = c.SetDeadline(now) // best effort: the point is to interrupt blocked I/O
		}
	})
	defer stop()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		dels     []Delivery
	)
	report := func(err error) {
		mu.Lock()
		if firstErr == nil && err != nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for _, p := range t.peers {
		wg.Add(2)
		go func(p int) {
			defer wg.Done()
			if err := t.conns[p].SetWriteDeadline(deadline); err != nil {
				report(fmt.Errorf("peer %d: %w", p, err))
				return
			}
			n, err := WriteFrame(t.writers[p], FrameData, payloads[p])
			if err == nil {
				err = t.writers[p].Flush()
			}
			t.mu.Lock()
			t.stats.BytesOut += uint64(n)
			t.stats.FramesOut++
			t.mu.Unlock()
			if err != nil {
				report(fmt.Errorf("send to peer %d: %w", p, err))
			}
		}(p)
		go func(p int) {
			defer wg.Done()
			if err := t.conns[p].SetReadDeadline(deadline); err != nil {
				report(fmt.Errorf("peer %d: %w", p, err))
				return
			}
			typ, payload, n, err := ReadFrame(t.readers[p])
			t.mu.Lock()
			t.stats.BytesIn += uint64(n)
			t.stats.FramesIn++
			t.mu.Unlock()
			if err != nil {
				report(fmt.Errorf("recv from peer %d: %w", p, err))
				return
			}
			if typ != FrameData {
				report(fmt.Errorf("recv from peer %d: unexpected frame type %d", p, typ))
				return
			}
			hdr, pd, err := DecodeData(payload)
			if err != nil {
				report(fmt.Errorf("recv from peer %d: %w", p, err))
				return
			}
			if hdr.Seq != t.seq || hdr.Round != round || hdr.Src != p {
				report(fmt.Errorf("recv from peer %d: frame for seq %d round %d src %d, want seq %d round %d",
					p, hdr.Seq, hdr.Round, hdr.Src, t.seq, round))
				return
			}
			mu.Lock()
			dels = append(dels, pd...)
			mu.Unlock()
		}(p)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil && firstErr != nil {
		// The deadline yank manufactured the I/O error; report the cause.
		firstErr = err
	}
	if firstErr != nil {
		t.mu.Lock()
		t.broken = firstErr
		t.mu.Unlock()
		return nil, &Error{Transport: t.Name(), Round: round, Err: firstErr}
	}
	t.mu.Lock()
	t.stats.Rounds++
	t.mu.Unlock()
	metricRounds(t.Name()).Inc()
	return dels, nil
}

// publishDelta pushes one round's traffic growth over the before
// snapshot to the process metrics.
func (t *TCP) publishDelta(before Stats) {
	after := t.Stats()
	metricBytes(t.Name(), "in").Add(float64(after.BytesIn - before.BytesIn))
	metricBytes(t.Name(), "out").Add(float64(after.BytesOut - before.BytesOut))
	metricFrames(t.Name(), "in").Add(float64(after.FramesIn - before.FramesIn))
	metricFrames(t.Name(), "out").Add(float64(after.FramesOut - before.FramesOut))
}

// Barrier is a no-op over TCP: Exchange copies at staging time and
// message counting already bounds round skew. Only a context that died
// since the round's Exchange is surfaced.
func (t *TCP) Barrier(ctx context.Context, round int) error {
	if err := ctx.Err(); err != nil {
		return &Error{Transport: t.Name(), Round: round, Err: err}
	}
	return nil
}

// Stats reports traffic totals since construction.
func (t *TCP) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.stats
	return s
}

// Close closes every peer connection. Safe to call twice and
// concurrently with an in-flight Exchange, whose reads and writes fail
// promptly on the closed sockets.
func (t *TCP) Close() error {
	var errs []error
	t.closed.Do(func() {
		for _, p := range t.peers {
			if err := t.conns[p].Close(); err != nil {
				errs = append(errs, err)
			}
		}
	})
	return errors.Join(errs...)
}

// ProtoVersion is the handshake protocol version in Hello frames.
// Version 2 packs check requests and responses (proof bits and verdict
// bitmaps in the registered owned order) and groups data frames by
// batch; a version-1 peer cannot parse either. Version 3 builds the
// data connections once per registration (the connect request) instead
// of once per check, so a data Hello names a registration, not a check.
// Version 4 registers a worker with its owned nodes' round-0 records
// (AppendRecords) instead of a textio halo document. Version 5 adds the
// bare record (id and proof only), which warm checks flood.
const ProtoVersion = 5

// Connection roles named in Hello frames.
const (
	// RoleControl marks a coordinator's control-plane connection.
	RoleControl = "control"
	// RoleData marks a shard-pair data connection of one registration.
	RoleData = "data"
)

// Hello is the JSON payload of the handshake frame that opens every
// connection, telling the accepting side what the connection is for: a
// coordinator's control plane, or a registration's data edge from shard
// Src.
type Hello struct {
	// Proto is the protocol version (ProtoVersion).
	Proto int `json:"proto"`
	// Role is RoleControl or RoleData.
	Role string `json:"role"`
	// Instance names the registered instance (data connections).
	Instance string `json:"instance,omitempty"`
	// Seq is the sequence number of the registration whose mesh the
	// data connection joins (the coordinator's register request). The
	// accepting worker refuses a Seq other than its registration's, so
	// a dial left over from a replaced registration never joins the
	// current mesh. Checks are told apart by DataHeader.Seq instead.
	Seq uint64 `json:"seq,omitempty"`
	// Src is the dialing shard (data connections).
	Src int `json:"src,omitempty"`
}

// WriteHello sends a handshake frame under the timeout.
func WriteHello(conn net.Conn, h Hello, timeout time.Duration) error {
	payload, err := json.Marshal(h)
	if err != nil {
		return err
	}
	if err := conn.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	defer clearDeadline(conn)
	_, err = WriteFrame(conn, FrameHello, payload)
	return err
}

// ReadHello reads and validates a handshake frame under the timeout.
func ReadHello(conn net.Conn, timeout time.Duration) (Hello, error) {
	if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return Hello{}, err
	}
	defer clearDeadline(conn)
	typ, payload, _, err := ReadFrame(conn)
	if err != nil {
		return Hello{}, err
	}
	if typ != FrameHello {
		return Hello{}, fmt.Errorf("transport: expected hello frame, got type %d", typ)
	}
	var h Hello
	if err := json.Unmarshal(payload, &h); err != nil {
		return Hello{}, fmt.Errorf("transport: bad hello: %w", err)
	}
	if h.Proto != ProtoVersion {
		return Hello{}, fmt.Errorf("transport: peer speaks protocol version %d, this side speaks version %d", h.Proto, ProtoVersion)
	}
	return h, nil
}

// DialData dials a peer's listener and opens a data connection for one
// registration's mesh. The context bounds the dial; the timeout bounds
// the handshake write.
func DialData(ctx context.Context, addr string, h Hello, timeout time.Duration) (net.Conn, error) {
	d := net.Dialer{Timeout: timeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	h.Proto = ProtoVersion
	h.Role = RoleData
	if err := WriteHello(conn, h, timeout); err != nil {
		_ = conn.Close() // the handshake failure is the error worth reporting
		return nil, err
	}
	return conn, nil
}

// clearDeadline removes a connection deadline set for one handshake
// step, so it cannot fire inside a later round's I/O.
func clearDeadline(conn net.Conn) {
	_ = conn.SetDeadline(time.Time{}) // best effort on an already-working conn
}
