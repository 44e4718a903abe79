package remote_test

// The check-frame contract of a worker-resident shard: a registration is
// validated (and the shard wired) once, at register time; a cancelled
// check ends the registration and the façade recovers from it; a
// verdict bitmap that does not fit the registration is an error, not a
// panic; and a peer speaking another protocol version is turned away.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lcp/internal/core"
	"lcp/internal/dist"
	"lcp/internal/remote"
	"lcp/internal/transport"
)

// tunableScheme checks a proper 2-colouring of the proof bits at a
// radius the test turns between checks of one registration: a huge
// radius pins a check in its flood long enough to cancel it, a small
// one lets the next check finish.
type tunableScheme struct{ radius *atomic.Int64 }

func (s tunableScheme) Name() string { return "test-tunable" }
func (s tunableScheme) Verifier() core.Verifier {
	return core.VerifierFunc{R: int(s.radius.Load()), F: properColoring}
}
func (s tunableScheme) Prove(*core.Instance) (core.Proof, error) { return core.Proof{}, nil }

func properColoring(w *core.View) bool {
	c := w.ProofOf(w.Center)
	if c.Len() != 1 {
		return false
	}
	for _, nb := range w.Neighbors(w.Center) {
		if d := w.ProofOf(nb); d.Len() == 1 && d.Bit(0) == c.Bit(0) {
			return false
		}
	}
	return true
}

// TestCancelledCheckLeavesShardReusable cancels a check of an honest
// proof mid-flood and then checks a tampered one on the same façade
// checker: the cancel ends the registration, and the next check
// registers afresh and comes back with exactly core.Check's verdicts,
// none of the abandoned check's knowledge. A raw Coordinator has no
// such recovery: after a failed check it is closed.
func TestCancelledCheckLeavesShardReusable(t *testing.T) {
	radius := new(atomic.Int64)
	radius.Store(2)
	scheme := tunableScheme{radius: radius}
	addrs, _ := startFleet(t, 2, map[string]core.Scheme{scheme.Name(): scheme})
	in := pathInstance(16)
	honest, p := pathColoring(16)
	chk := tunableChecker(t, addrs, 16, scheme)
	checkMatchesCore(t, chk, in, honest, scheme.Verifier())

	cancelMidFlood := func(check func(context.Context) error) {
		t.Helper()
		radius.Store(40000)
		defer radius.Store(2)
		cctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(50*time.Millisecond, cancel)
		if err := check(cctx); err == nil {
			t.Fatal("check cancelled mid-flood succeeded")
		}
	}
	cancelMidFlood(func(ctx context.Context) error {
		_, err := chk.Check(ctx, honest)
		return err
	})
	if core.Check(in, p, scheme.Verifier()).Accepted() {
		t.Fatal("fixture proof should be rejected somewhere")
	}
	checkMatchesCore(t, chk, in, p, scheme.Verifier())

	ctx := context.Background()
	coord, err := remote.DialCoordinator(ctx, "cancel-then-check", addrs, remote.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer coord.Close()
	if err := coord.Register(ctx, in, scheme.Name()); err != nil {
		t.Fatalf("register: %v", err)
	}
	cancelMidFlood(func(ctx context.Context) error {
		_, _, err := coord.Check(ctx, honest)
		return err
	})
	if _, _, err := coord.Check(ctx, p); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("raw coordinator check after a cancelled one = %v, want a closed coordinator", err)
	}
}

// controlClient speaks the raw control protocol, so a test can send
// requests the coordinator would never build.
type controlClient struct {
	conn net.Conn
	r    *bufio.Reader
}

func dialControl(t *testing.T, addr string, proto int) *controlClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	h := transport.Hello{Proto: proto, Role: transport.RoleControl, Instance: "raw"}
	if err := transport.WriteHello(conn, h, 5*time.Second); err != nil {
		t.Fatalf("hello: %v", err)
	}
	return &controlClient{conn: conn, r: bufio.NewReader(conn)}
}

// readResponse reads one response frame.
func (c *controlClient) readResponse(t *testing.T) remote.Response {
	t.Helper()
	if err := c.conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	typ, payload, _, err := transport.ReadFrame(c.r)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	if typ != transport.FrameResponse {
		t.Fatalf("frame type %d, want a response", typ)
	}
	var resp remote.Response
	if err := json.Unmarshal(payload, &resp); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp
}

func (c *controlClient) roundTrip(t *testing.T, req *remote.Request) remote.Response {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := transport.WriteFrame(c.conn, transport.FrameRequest, payload); err != nil {
		t.Fatalf("write request: %v", err)
	}
	return c.readResponse(t)
}

// TestRegisterRejectsMalformedShard: a registration whose records
// cannot be wired fails OpRegister itself — the worker builds the
// automata there — and installs nothing, so a check on it finds no
// instance.
func TestRegisterRejectsMalformedShard(t *testing.T) {
	addrs, _ := startFleet(t, 2, map[string]core.Scheme{"test-ping": pingScheme{r: 1}})
	records := func(owned ...int) []byte {
		return transport.AppendRecords(nil, dist.ShardPlan{In: pathInstance(3), Owned: owned}.Records())
	}
	// One record, of node 1 with the one edge 2-3: count | id | flags |
	// #edges | edge | edge flags. transport.Record cannot hold it, so the
	// bytes are written by hand; the decoder rejects the edge.
	stray := []byte{1, 1, 0, 1, 2, 3, 0}
	cases := []struct {
		name    string
		records []byte
		assign  map[int]int
		want    string
	}{
		{"corrupt-records", records(1, 2)[:5], map[int]int{1: 0, 2: 0, 3: 1}, "corrupt"},
		{"duplicate-record", records(1, 2, 1), map[int]int{1: 0, 2: 0, 3: 1}, "duplicate record"},
		{"edge-not-incident", stray, map[int]int{1: 0, 2: 0, 3: 1}, "not an edge of node 1"},
		{"neighbor-without-assignment", records(1, 2), map[int]int{1: 0, 2: 0}, "no shard assignment"},
		{"neighbor-assigned-here-not-owned", records(1), map[int]int{1: 0, 2: 0, 3: 1}, "not owned"},
	}
	c := dialControl(t, addrs[0], transport.ProtoVersion)
	for i, tc := range cases {
		resp := c.roundTrip(t, &remote.Request{
			Op: remote.OpRegister, Seq: uint64(2*i + 1), Instance: tc.name, Scheme: "test-ping",
			Records: tc.records, Me: 0, Workers: addrs, Assign: tc.assign,
		})
		if resp.OK || !strings.Contains(resp.Error, tc.want) {
			t.Fatalf("%s: register response ok=%v error=%q, want a failure mentioning %q", tc.name, resp.OK, resp.Error, tc.want)
		}
		resp = c.roundTrip(t, &remote.Request{Op: remote.OpCheck, Seq: uint64(2*i + 2), Instance: tc.name})
		if resp.OK || !strings.Contains(resp.Error, "not registered") {
			t.Fatalf("%s: check after a failed register: ok=%v error=%q", tc.name, resp.OK, resp.Error)
		}
	}
}

// fakeWorker accepts one control connection and answers every request
// OK, attaching the given verdict bitmap to check responses.
func fakeWorker(t *testing.T, verdicts []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := transport.ReadHello(conn, 5*time.Second); err != nil {
			return
		}
		r := bufio.NewReader(conn)
		for {
			typ, payload, _, err := transport.ReadFrame(r)
			if err != nil || typ != transport.FrameRequest {
				return
			}
			var req remote.Request
			if err := json.Unmarshal(payload, &req); err != nil {
				return
			}
			resp := remote.Response{OK: true, Seq: req.Seq}
			if req.Op == remote.OpCheck {
				resp.Verdicts = verdicts
			}
			out, err := json.Marshal(resp)
			if err != nil {
				return
			}
			if _, err := transport.WriteFrame(conn, transport.FrameResponse, out); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestCoordinatorRejectsBadVerdictBitmap: a worker answering a check
// with a bitmap that does not fit its registered shard — too short, too
// long, or with bits past the last node — makes Check fail with an
// error naming the worker, never panic or merge a partial result.
func TestCoordinatorRejectsBadVerdictBitmap(t *testing.T) {
	in := pathInstance(10) // one worker owns all 10 nodes: a 2-byte bitmap
	for name, bitmap := range map[string][]byte{
		"empty":        nil,
		"short":        {0xff},
		"long":         {0xff, 0xc0, 0x00},
		"padding-bits": {0xff, 0xff},
	} {
		addr := fakeWorker(t, bitmap)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		coord, err := remote.DialCoordinator(ctx, "bad-bitmap-"+name, []string{addr}, remote.Options{})
		if err != nil {
			t.Fatalf("%s: dial: %v", name, err)
		}
		if err := coord.Register(ctx, in, "test-ping"); err != nil {
			t.Fatalf("%s: register: %v", name, err)
		}
		res, _, err := coord.Check(ctx, core.Proof{})
		if err == nil || !strings.Contains(err.Error(), "verdict bitmap") || !strings.Contains(err.Error(), addr) {
			t.Fatalf("%s: check = %v, %v; want an error about the verdict bitmap naming %s", name, res, err, addr)
		}
		_ = coord.Close() // the fake worker's close reply is irrelevant here
	}
	// The well-formed bitmap of the same shape merges.
	addr := fakeWorker(t, []byte{0xff, 0xc0})
	coord, err := remote.DialCoordinator(context.Background(), "good-bitmap", []string{addr}, remote.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.Register(context.Background(), in, "test-ping"); err != nil {
		t.Fatal(err)
	}
	res, _, err := coord.Check(context.Background(), core.Proof{})
	if err != nil || len(res.Outputs) != 10 || !res.Accepted() {
		t.Fatalf("well-formed bitmap: res=%v err=%v", res, err)
	}
}

// TestWorkerRejectsOldProtocolHello: a peer still speaking protocol
// version 1 (map-valued check frames, ungrouped data frames) is dropped
// at the handshake, and the worker keeps serving current peers.
func TestWorkerRejectsOldProtocolHello(t *testing.T) {
	addrs, _ := startFleet(t, 1, map[string]core.Scheme{"test-ping": pingScheme{r: 1}})
	old := dialControl(t, addrs[0], 1)
	if err := old.conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := transport.ReadFrame(old.r); !errors.Is(err, io.EOF) {
		t.Fatalf("v1 hello: read = %v, want the worker to hang up (EOF)", err)
	}
	coord, err := remote.DialCoordinator(context.Background(), "after-v1", addrs, remote.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.Register(context.Background(), pathInstance(4), "test-ping"); err != nil {
		t.Fatalf("register after a rejected v1 peer: %v", err)
	}
}
