package serve_test

// Tests for the unified-façade surface of the server: the "backend"
// request option resolving through the shared config resolver, and the
// fixed-bound latency histograms on GET /stats.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"lcp"
	"lcp/internal/config"
	"lcp/internal/core"
	"lcp/internal/serve"
)

// TestServeBackendOption: every façade backend is selectable per
// request, answers identically on the honest and tampered proof, and
// echoes the backend it ran on.
func TestServeBackendOption(t *testing.T) {
	ts := newTestServer(t)
	in := lcp.NewInstance(lcp.Cycle(12))
	scheme := lcp.BipartiteScheme()
	p, err := scheme.Prove(in)
	if err != nil {
		t.Fatal(err)
	}
	id := registerInstance(t, ts, docText(t, in, "bipartite", nil))
	tampered := core.FlipBit(p, 2)
	wantTampered := core.Check(in, tampered, scheme.Verifier())
	for _, backend := range []string{"core", "dist", "engine"} {
		var verdict struct {
			Accepted bool   `json:"accepted"`
			Backend  string `json:"backend"`
		}
		resp, body := postJSON(t, ts.URL+"/check", map[string]any{
			"instance": id, "proof": proofWire(p), "backend": backend,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("backend %q: status %d: %s", backend, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &verdict); err != nil {
			t.Fatal(err)
		}
		if !verdict.Accepted {
			t.Fatalf("backend %q rejected the honest proof", backend)
		}
		if verdict.Backend != backend {
			t.Fatalf("backend %q: response says %q", backend, verdict.Backend)
		}

		var rej struct {
			Accepted  bool  `json:"accepted"`
			Rejectors []int `json:"rejectors"`
		}
		resp, body = postJSON(t, ts.URL+"/check", map[string]any{
			"instance": id, "proof": proofWire(tampered), "backend": backend,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("backend %q tampered: status %d: %s", backend, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &rej); err != nil {
			t.Fatal(err)
		}
		if rej.Accepted {
			t.Fatalf("backend %q accepted the tampered proof", backend)
		}
		if len(rej.Rejectors) != len(wantTampered.Rejectors()) {
			t.Fatalf("backend %q: rejectors %v, want %v", backend, rej.Rejectors, wantTampered.Rejectors())
		}

		// Batch through the same backend.
		resp, body = postJSON(t, ts.URL+"/check/batch", map[string]any{
			"instance": id, "proofs": []map[string]string{proofWire(p), proofWire(tampered)}, "backend": backend,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("backend %q batch: status %d: %s", backend, resp.StatusCode, body)
		}
		var batch struct {
			Accepted int `json:"accepted"`
			Checked  int `json:"checked"`
		}
		if err := json.Unmarshal(body, &batch); err != nil {
			t.Fatal(err)
		}
		if batch.Checked != 2 || batch.Accepted != 1 {
			t.Fatalf("backend %q batch: %d/%d accepted, want 1/2", backend, batch.Accepted, batch.Checked)
		}
	}
}

// TestServeBackendGuards: conflicting or misdirected backend options
// are rejected with 400, through the same resolver errors the flags
// produce.
func TestServeBackendGuards(t *testing.T) {
	ts := newTestServer(t)
	in := lcp.NewInstance(lcp.Cycle(8))
	id := registerInstance(t, ts, docText(t, in, "bipartite", nil))
	for name, req := range map[string]map[string]any{
		"unknown backend":       {"instance": id, "backend": "quantum"},
		"removed engine-dist":   {"instance": id, "backend": "engine-dist"},
		"removed distributed":   {"instance": id, "distributed": true},
		"partitioner on engine": {"instance": id, "backend": "engine", "partitioner": "bfs"},
	} {
		resp, body := postJSON(t, ts.URL+"/check", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, body)
		}
	}
	// Distributed backends cannot stream.
	resp, body := postJSON(t, ts.URL+"/check/stream", map[string]any{
		"instance": id, "backend": "dist",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("stream on dist: status %d: %s", resp.StatusCode, body)
	}
	// But the shared-memory backends can.
	resp, _ = postJSON(t, ts.URL+"/check/stream", map[string]any{
		"instance": id, "backend": "core",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream on core backend: status %d", resp.StatusCode)
	}
	// Partitioner with a distributed backend passes the guard.
	resp, body = postJSON(t, ts.URL+"/check", map[string]any{
		"instance": id, "backend": "dist", "partitioner": "bfs",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dist+bfs: status %d: %s", resp.StatusCode, body)
	}
}

// TestServeDefaultBackendFlag: a server whose configured default
// backend is distributed runs plain /check requests distributed — and
// honors a partitioner-only override without the client repeating the
// server's own default backend.
func TestServeDefaultBackendFlag(t *testing.T) {
	var base config.Config
	if err := base.Set("backend", "dist"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(lcp.BuiltinSchemes(), base))
	t.Cleanup(ts.Close)
	in := lcp.NewInstance(lcp.Cycle(10))
	scheme := lcp.BipartiteScheme()
	p, err := scheme.Prove(in)
	if err != nil {
		t.Fatal(err)
	}
	id := registerInstance(t, ts, docText(t, in, "bipartite", nil))
	for _, req := range []map[string]any{
		{"instance": id, "proof": proofWire(p)},
		{"instance": id, "proof": proofWire(p), "partitioner": "bfs"},
	} {
		resp, body := postJSON(t, ts.URL+"/check", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%v: status %d: %s", req, resp.StatusCode, body)
		}
		var out struct {
			Accepted bool   `json:"accepted"`
			Backend  string `json:"backend"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if !out.Accepted || out.Backend != "dist" {
			t.Fatalf("%v: accepted=%v backend=%q, want accepted on dist", req, out.Accepted, out.Backend)
		}
	}
	// The explicit per-request override back to a shared-memory backend
	// makes the partitioner meaningless again: still a 400.
	resp, body := postJSON(t, ts.URL+"/check", map[string]any{
		"instance": id, "proof": proofWire(p), "backend": "engine", "partitioner": "bfs",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("engine+partitioner on distributed-default server: status %d: %s", resp.StatusCode, body)
	}
}

// TestServeStatsLatencyHistograms: every /stats row carries the fixed
// bucket bounds and counts whose sum equals the request counter.
func TestServeStatsLatencyHistograms(t *testing.T) {
	ts := newTestServer(t)
	in := lcp.NewInstance(lcp.Cycle(8))
	id := registerInstance(t, ts, docText(t, in, "bipartite", nil))
	const checks = 5
	for range checks {
		resp, body := postJSON(t, ts.URL+"/check", map[string]any{"instance": id, "proof": map[string]string{}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("check: status %d: %s", resp.StatusCode, body)
		}
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Endpoints map[string]struct {
			Requests            int64     `json:"requests"`
			LatencyBucketLEMS   []float64 `json:"latency_bucket_le_ms"`
			LatencyBucketCounts []int64   `json:"latency_bucket_counts"`
		} `json:"endpoints"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	row, ok := stats.Endpoints["POST /check"]
	if !ok {
		t.Fatalf("no POST /check row in %v", stats.Endpoints)
	}
	if row.Requests != checks {
		t.Fatalf("POST /check requests = %d, want %d", row.Requests, checks)
	}
	if len(row.LatencyBucketLEMS) == 0 ||
		len(row.LatencyBucketCounts) != len(row.LatencyBucketLEMS)+1 {
		t.Fatalf("bucket shape wrong: %d bounds, %d counts",
			len(row.LatencyBucketLEMS), len(row.LatencyBucketCounts))
	}
	for i := 1; i < len(row.LatencyBucketLEMS); i++ {
		if row.LatencyBucketLEMS[i] <= row.LatencyBucketLEMS[i-1] {
			t.Fatalf("bucket bounds not increasing: %v", row.LatencyBucketLEMS)
		}
	}
	var sum int64
	for _, c := range row.LatencyBucketCounts {
		if c < 0 {
			t.Fatalf("negative bucket count in %v", row.LatencyBucketCounts)
		}
		sum += c
	}
	if sum != row.Requests {
		t.Fatalf("bucket counts sum to %d, requests %d", sum, row.Requests)
	}
	// Endpoints never hit report all-zero histograms with the same
	// bounds (the fixed-bound contract).
	idle, ok := stats.Endpoints["DELETE /instances/{id}"]
	if !ok {
		t.Fatal("no DELETE row")
	}
	var idleSum int64
	for _, c := range idle.LatencyBucketCounts {
		idleSum += c
	}
	if idleSum != 0 || len(idle.LatencyBucketLEMS) != len(row.LatencyBucketLEMS) {
		t.Fatalf("idle endpoint histogram wrong: sum %d, %d bounds", idleSum, len(idle.LatencyBucketLEMS))
	}
}
