package serve_test

// HTTP-surface tests for the dist-tcp backend: the 400 a server with no
// worker fleet returns (satellite: the escape hatch must fail with a
// clear message, not a hang), and a live check fanned out over an
// in-process worker fleet with verdicts matching the sequential
// reference.

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lcp"
	"lcp/internal/config"
	"lcp/internal/core"
	"lcp/internal/remote"
	"lcp/internal/serve"
)

// checkResponseWire is the subset of the /check response body these
// tests assert on.
type checkResponseWire struct {
	Accepted bool   `json:"accepted"`
	Backend  string `json:"backend"`
}

func decodeBody(t *testing.T, body []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("decode %q: %v", body, err)
	}
}

// startServeFleet boots n in-process workers serving the built-in
// scheme registry on loopback listeners, torn down with the test.
func startServeFleet(t *testing.T, n int) []string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		w := remote.NewWorker(ln, lcp.BuiltinSchemes())
		go func() {
			_ = w.Serve(ctx)
		}()
		t.Cleanup(func() { _ = w.Close() })
		addrs[i] = w.Addr()
	}
	return addrs
}

func TestServeDistTCPWithoutFleetIs400(t *testing.T) {
	ts := newTestServer(t) // no WorkerAddrs configured
	in := lcp.NewInstance(lcp.Cycle(9))
	scheme := lcp.OddNScheme()
	p, err := scheme.Prove(in)
	if err != nil {
		t.Fatal(err)
	}
	id := registerInstance(t, ts, docText(t, in, "odd-n", nil))

	resp, body := postJSON(t, ts.URL+"/check", map[string]any{
		"instance": id,
		"proof":    proofWire(p),
		"backend":  "dist-tcp",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	for _, needle := range []string{"worker", "lcpworker", "-worker-addrs"} {
		if !strings.Contains(string(body), needle) {
			t.Errorf("400 body should mention %q (the fix): %s", needle, body)
		}
	}
}

func TestServeDistTCPCheckMatchesReference(t *testing.T) {
	addrs := startServeFleet(t, 2)
	ts := httptest.NewServer(serve.New(lcp.BuiltinSchemes(), config.Config{WorkerAddrs: addrs}))
	t.Cleanup(ts.Close)

	in := lcp.NewInstance(lcp.Cycle(15))
	scheme := lcp.OddNScheme()
	good, err := scheme.Prove(in)
	if err != nil {
		t.Fatal(err)
	}
	bad := core.FlipBit(good, 7)
	id := registerInstance(t, ts, docText(t, in, "odd-n", nil))

	for _, tc := range []struct {
		name  string
		proof core.Proof
	}{
		{"honest", good},
		{"flipped", bad},
	} {
		want := core.Check(in, tc.proof, scheme.Verifier()).Accepted()
		// Two requests per proof: the second exercises the cached
		// remote checker (same scheme+partitioner key) on the entry.
		for round := 0; round < 2; round++ {
			resp, body := postJSON(t, ts.URL+"/check", map[string]any{
				"instance": id,
				"proof":    proofWire(tc.proof),
				"backend":  "dist-tcp",
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s[%d]: status %d: %s", tc.name, round, resp.StatusCode, body)
			}
			var out checkResponseWire
			decodeBody(t, body, &out)
			if out.Accepted != want {
				t.Errorf("%s[%d]: accepted=%v, reference says %v", tc.name, round, out.Accepted, want)
			}
			if out.Backend != "dist-tcp" {
				t.Errorf("%s[%d]: backend label %q, want dist-tcp", tc.name, round, out.Backend)
			}
		}
	}
}

// TestServeDistTCPDeleteReleasesFleet deletes the instance after a
// dist-tcp check and then reuses the same fleet from a fresh server:
// deletion must deregister (asynchronously) rather than leave the
// workers' per-instance state poisoned or the conns wedged.
func TestServeDistTCPDeleteReleasesFleet(t *testing.T) {
	addrs := startServeFleet(t, 2)
	ts := httptest.NewServer(serve.New(lcp.BuiltinSchemes(), config.Config{WorkerAddrs: addrs}))
	t.Cleanup(ts.Close)

	in := lcp.NewInstance(lcp.Cycle(11))
	scheme := lcp.OddNScheme()
	p, err := scheme.Prove(in)
	if err != nil {
		t.Fatal(err)
	}
	id := registerInstance(t, ts, docText(t, in, "odd-n", nil))
	resp, body := postJSON(t, ts.URL+"/check", map[string]any{
		"instance": id, "proof": proofWire(p), "backend": "dist-tcp",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("check: status %d: %s", resp.StatusCode, body)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/instances/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	del.Body.Close()
	if del.StatusCode != http.StatusNoContent && del.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", del.StatusCode)
	}

	// Fresh server, same fleet: a new instance must register and check
	// cleanly through the same worker processes.
	ts2 := httptest.NewServer(serve.New(lcp.BuiltinSchemes(), config.Config{WorkerAddrs: addrs}))
	t.Cleanup(ts2.Close)
	id2 := registerInstance(t, ts2, docText(t, in, "odd-n", nil))
	resp2, body2 := postJSON(t, ts2.URL+"/check", map[string]any{
		"instance": id2, "proof": proofWire(p), "backend": "dist-tcp",
	})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-delete check: status %d: %s", resp2.StatusCode, body2)
	}
	var out checkResponseWire
	decodeBody(t, body2, &out)
	if !out.Accepted {
		t.Error("post-delete check: honest proof rejected")
	}
}

// liveConns wraps a worker's listener and counts the accepted
// connections not yet closed.
type liveConns struct {
	net.Listener
	live atomic.Int64
}

func (l *liveConns) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.live.Add(1)
	return &countedConn{Conn: c, live: &l.live}, nil
}

type countedConn struct {
	net.Conn
	live *atomic.Int64
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.live.Add(-1) })
	return c.Conn.Close()
}

// TestServeDroppedEntryClosesItsChecker: a request that resolved an
// instance before a DELETE dropped it, and builds its dist-tcp checker
// only afterwards, must not cache the checker on the dropped entry: it
// closes it when it ends, so the fleet forgets the registration and
// every connection to the workers closes.
func TestServeDroppedEntryClosesItsChecker(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	var addrs []string
	var lns []*liveConns
	for range 2 {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		l := &liveConns{Listener: ln}
		w := remote.NewWorker(l, lcp.BuiltinSchemes())
		go func() {
			_ = w.Serve(ctx)
		}()
		t.Cleanup(func() { _ = w.Close() })
		addrs, lns = append(addrs, w.Addr()), append(lns, l)
	}
	srv := serve.New(lcp.BuiltinSchemes(), config.Config{WorkerAddrs: addrs})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	in := lcp.NewInstance(lcp.Cycle(11))
	p, err := lcp.OddNScheme().Prove(in)
	if err != nil {
		t.Fatal(err)
	}
	id := registerInstance(t, ts, docText(t, in, "odd-n", p))
	if err := srv.CheckAfterDrop(ctx, id, "dist-tcp"); err != nil {
		t.Fatalf("check: %v", err)
	}
	live := func() int64 { return lns[0].live.Load() + lns[1].live.Load() }
	for deadline := time.Now().Add(5 * time.Second); live() > 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d worker connections still open after the request ended: its checker was not closed", live())
		}
	}
}
