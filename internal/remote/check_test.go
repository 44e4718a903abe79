package remote_test

// The check-frame contract of a worker-resident shard: a registration is
// validated (and the shard wired) once, at register time; a cancelled
// check leaves the shard reusable; a verdict bitmap that does not fit
// the registration is an error, not a panic; and a peer speaking
// another protocol version is turned away.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lcp/internal/bitstr"
	"lcp/internal/core"
	"lcp/internal/remote"
	"lcp/internal/textio"
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
// proof mid-flood and then checks a tampered one on the same
// registration: the shard the workers built at register time must come
// back with exactly core.Check's verdicts, none of the abandoned
// check's knowledge. The workers drain the abandoned flood before
// serving the next request, so the radius of the cancelled check is
// long enough to be mid-flood at the cancel, short enough to drain in
// seconds.
func TestCancelledCheckLeavesShardReusable(t *testing.T) {
	radius := new(atomic.Int64)
	scheme := tunableScheme{radius: radius}
	addrs, _ := startFleet(t, 2, map[string]core.Scheme{scheme.Name(): scheme})
	in := pathInstance(16)
	honest := core.Proof{}
	for i := 1; i <= 16; i++ {
		honest[i] = bitstr.FromBools(i%2 == 0)
	}
	p := honest.Clone()
	p[5] = bitstr.FromBools(true) // nodes 4, 5 and 6 reject
	ctx := context.Background()
	coord, err := remote.DialCoordinator(ctx, "cancel-then-check", addrs, remote.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer coord.Close()
	if err := coord.Register(ctx, in, scheme.Name()); err != nil {
		t.Fatalf("register: %v", err)
	}

	radius.Store(40000)
	cctx, cancel := context.WithCancel(ctx)
	time.AfterFunc(50*time.Millisecond, cancel)
	if _, _, err := coord.Check(cctx, honest); err == nil {
		t.Fatal("check cancelled mid-flood succeeded")
	}

	radius.Store(2)
	want := core.Check(in, p, scheme.Verifier())
	if want.Accepted() {
		t.Fatal("fixture proof should be rejected somewhere")
	}
	got, _, err := coord.Check(ctx, p)
	if err != nil {
		t.Fatalf("check after a cancelled one: %v", err)
	}
	if !reflect.DeepEqual(got.Outputs, want.Outputs) {
		t.Fatalf("outputs differ after a cancelled check:\n got %v\nwant %v", got.Outputs, want.Outputs)
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

// TestRegisterRejectsMalformedShard: a shard whose plan cannot be wired
// fails OpRegister itself — the worker builds the automata there — and
// installs nothing, so a check on it finds no instance.
func TestRegisterRejectsMalformedShard(t *testing.T) {
	addrs, _ := startFleet(t, 2, map[string]core.Scheme{"test-ping": pingScheme{r: 1}})
	var doc strings.Builder
	if err := textio.Write(&doc, &textio.Document{Instance: pathInstance(3)}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		owned  []int
		assign map[int]int
		want   string
	}{
		{"owned-node-missing-from-halo", []int{1, 2, 4}, map[int]int{1: 0, 2: 0, 3: 1, 4: 0}, "absent"},
		{"neighbor-without-assignment", []int{1, 2}, map[int]int{1: 0, 2: 0}, "no shard assignment"},
		{"neighbor-assigned-here-not-owned", []int{1}, map[int]int{1: 0, 2: 0, 3: 1}, "not owned"},
	}
	c := dialControl(t, addrs[0], transport.ProtoVersion)
	for i, tc := range cases {
		resp := c.roundTrip(t, &remote.Request{
			Op: remote.OpRegister, Seq: uint64(2*i + 1), Instance: tc.name, Scheme: "test-ping",
			Doc: doc.String(), Me: 0, Workers: addrs, Owned: tc.owned, Assign: tc.assign,
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
		ctx := context.Background()
		coord, err := remote.DialCoordinator(ctx, "bad-bitmap-"+name, []string{addr}, remote.Options{CheckTimeout: 10 * time.Second})
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
