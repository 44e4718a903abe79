package serve_test

// Tests for the server-level features around the engines: the bounded
// LRU instance store, the /stats counters, and the per-request
// partitioner override of the distributed path.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"lcp"
	"lcp/internal/config"
	"lcp/internal/core"
	"lcp/internal/dist"
	"lcp/internal/serve"
)

// TestServeInstanceLRUEviction: with -max-instances=2, registering a
// third instance evicts the least recently used one; requests naming it
// get a 404 with the distinct "evicted" error body, while a truly
// unknown id stays a plain error without that code.
func TestServeInstanceLRUEviction(t *testing.T) {
	ts := httptest.NewServer(serve.NewWith(lcp.BuiltinSchemes(), config.Config{}, serve.Config{MaxInstances: 2}))
	t.Cleanup(ts.Close)

	doc := func(n int) string {
		in := lcp.NewInstance(lcp.Cycle(n))
		return docText(t, in, "bipartite", nil)
	}
	id1 := registerInstance(t, ts, doc(4))
	id2 := registerInstance(t, ts, doc(6))

	// Touch id1 so id2 becomes the LRU victim.
	resp, body := postJSON(t, ts.URL+"/check", map[string]any{"instance": id1, "proof": map[string]string{}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("touch check: status %d: %s", resp.StatusCode, body)
	}

	id3 := registerInstance(t, ts, doc(8))
	if id3 == id1 || id3 == id2 {
		t.Fatalf("id reuse: %s", id3)
	}

	// id2 was evicted: distinct 404 body with code "evicted".
	resp, body = postJSON(t, ts.URL+"/check", map[string]any{"instance": id2, "proof": map[string]string{}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted check: status %d: %s", resp.StatusCode, body)
	}
	var errBody struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if err := json.Unmarshal(body, &errBody); err != nil {
		t.Fatal(err)
	}
	if errBody.Code != "evicted" || errBody.Error == "" {
		t.Fatalf("evicted check body: %s", body)
	}

	// id1 survived because the check touched it.
	resp, body = postJSON(t, ts.URL+"/check", map[string]any{"instance": id1, "proof": map[string]string{}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("survivor check: status %d: %s", resp.StatusCode, body)
	}

	// DELETE of the evicted id also reports the distinct body.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/instances/"+id2, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted delete: status %d", dresp.StatusCode)
	}
	if err := json.NewDecoder(dresp.Body).Decode(&errBody); err != nil {
		t.Fatal(err)
	}
	if errBody.Code != "evicted" {
		t.Fatalf("evicted delete body code %q", errBody.Code)
	}

	// A never-registered id has no "evicted" code.
	_, body = postJSON(t, ts.URL+"/check", map[string]any{"instance": "i999", "proof": map[string]string{}})
	var unknownBody struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(body, &unknownBody); err != nil {
		t.Fatal(err)
	}
	if unknownBody.Code == "evicted" {
		t.Fatalf("unknown id mislabelled evicted: %s", body)
	}
}

// TestServeStats: the /stats endpoint reports per-endpoint request
// counts and latency sums that move with traffic.
func TestServeStats(t *testing.T) {
	ts := httptest.NewServer(serve.NewWith(lcp.BuiltinSchemes(), config.Config{}, serve.Config{MaxInstances: 8}))
	t.Cleanup(ts.Close)

	in := lcp.NewInstance(lcp.Cycle(8))
	id := registerInstance(t, ts, docText(t, in, "bipartite", nil))
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/check", map[string]any{"instance": id, "proof": map[string]string{}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("check %d: status %d: %s", i, resp.StatusCode, body)
		}
	}

	read := func() map[string]struct {
		Requests       int64   `json:"requests"`
		LatencyNSTotal int64   `json:"latency_ns_total"`
		LatencyMSAvg   float64 `json:"latency_ms_avg"`
	} {
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/stats status %d", resp.StatusCode)
		}
		var out struct {
			Endpoints map[string]struct {
				Requests       int64   `json:"requests"`
				LatencyNSTotal int64   `json:"latency_ns_total"`
				LatencyMSAvg   float64 `json:"latency_ms_avg"`
			} `json:"endpoints"`
			Instances    int `json:"instances"`
			MaxInstances int `json:"max_instances"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if out.Instances != 1 || out.MaxInstances != 8 {
			t.Fatalf("instances=%d max=%d", out.Instances, out.MaxInstances)
		}
		return out.Endpoints
	}

	stats := read()
	check := stats["POST /check"]
	if check.Requests != 3 {
		t.Errorf("POST /check requests = %d, want 3", check.Requests)
	}
	if check.LatencyNSTotal <= 0 || check.LatencyMSAvg <= 0 {
		t.Errorf("POST /check latency not recorded: %+v", check)
	}
	if stats["POST /instances"].Requests != 1 {
		t.Errorf("POST /instances requests = %d, want 1", stats["POST /instances"].Requests)
	}
	// The first /stats read counts itself on the second read.
	if got := read()["GET /stats"].Requests; got < 1 {
		t.Errorf("GET /stats requests = %d, want >= 1", got)
	}
	// Untouched endpoints report zero rows, not absent ones.
	if row, ok := stats["POST /check/stream"]; !ok || row.Requests != 0 {
		t.Errorf("untouched endpoint row: %+v ok=%v", row, ok)
	}
}

// TestServePartitionerOption: distributed checks accept a per-request
// partitioner override, verdicts agree across all of them, junk names
// are rejected, and the option without a distributed backend is a
// client error.
func TestServePartitionerOption(t *testing.T) {
	ts := newTestServer(t)
	in := lcp.NewInstance(lcp.Grid(5, 5))
	scheme := lcp.BipartiteScheme()
	p, err := scheme.Prove(in)
	if err != nil {
		t.Fatal(err)
	}
	id := registerInstance(t, ts, docText(t, in, "bipartite", nil))

	want := core.Check(in, p, scheme.Verifier()).Accepted()
	for _, name := range []string{"", "contiguous", "bfs", "greedy"} {
		reqBody := map[string]any{"instance": id, "proof": proofWire(p), "backend": "dist"}
		if name != "" {
			reqBody["partitioner"] = name
		}
		resp, body := postJSON(t, ts.URL+"/check", reqBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("partitioner=%q: status %d: %s", name, resp.StatusCode, body)
		}
		var out struct {
			Accepted bool `json:"accepted"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Accepted != want {
			t.Errorf("partitioner=%q: accepted=%v, want %v", name, out.Accepted, want)
		}
	}

	// Batch path takes the override too.
	resp, body := postJSON(t, ts.URL+"/check/batch", map[string]any{
		"instance": id, "backend": "dist", "partitioner": "bfs",
		"proofs": []map[string]string{proofWire(p), proofWire(core.FlipBit(p, 1))},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch bfs: status %d: %s", resp.StatusCode, body)
	}

	for name, reqBody := range map[string]map[string]any{
		"junk-name":       {"instance": id, "proof": proofWire(p), "backend": "dist", "partitioner": "quantum"},
		"not-distributed": {"instance": id, "proof": proofWire(p), "partitioner": "bfs"},
		"on-prove":        {"instance": id, "backend": "dist", "partitioner": "bfs"},
	} {
		url := ts.URL + "/check"
		if name == "on-prove" {
			url = ts.URL + "/prove"
		}
		resp, body := postJSON(t, url, reqBody)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, resp.StatusCode, body)
		}
	}
}

// TestServePartitionerEnginesAmortize: repeated overridden requests hit
// the same cached dist checker for that partitioner — observable as
// stable verdicts over many proofs without re-registering (and
// exercised for races by -race CI runs).
func TestServePartitionerEnginesAmortize(t *testing.T) {
	ts := newTestServer(t)
	in := lcp.NewInstance(lcp.Cycle(15))
	scheme := lcp.OddNScheme()
	p, err := scheme.Prove(in)
	if err != nil {
		t.Fatal(err)
	}
	id := registerInstance(t, ts, docText(t, in, "odd-n", nil))
	for i := 0; i < 6; i++ {
		proof := p
		wantAccept := true
		if i%2 == 1 {
			proof = core.FlipBit(p, int64(i))
			wantAccept = core.Check(in, proof, scheme.Verifier()).Accepted()
		}
		resp, body := postJSON(t, ts.URL+"/check", map[string]any{
			"instance": id, "proof": proofWire(proof), "backend": "dist", "partitioner": "greedy",
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status %d: %s", i, resp.StatusCode, body)
		}
		var out struct {
			Accepted bool `json:"accepted"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Accepted != wantAccept {
			t.Errorf("run %d: accepted=%v, want %v", i, out.Accepted, wantAccept)
		}
	}
}

// TestServeDistWiresOnce: the entry caches its dist checker, so two dist
// requests on one instance wire the instance's shards once, not once
// per request.
func TestServeDistWiresOnce(t *testing.T) {
	ts := newTestServer(t)
	in := lcp.NewInstance(lcp.Cycle(15))
	scheme := lcp.OddNScheme()
	p, err := scheme.Prove(in)
	if err != nil {
		t.Fatal(err)
	}
	id := registerInstance(t, ts, docText(t, in, "odd-n", nil))
	before := dist.Metrics().Wirings
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/check", map[string]any{
			"instance": id, "proof": proofWire(p), "backend": "dist",
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	if got := dist.Metrics().Wirings - before; got != 1 {
		t.Fatalf("two dist requests wired %v shard sets, want 1", got)
	}
}

// TestServeEngineCheckerCached: concurrent engine-backend /check
// requests on one registered instance, with the backend named or
// defaulted, build one cached checker, and deleting the instance drops
// it.
func TestServeEngineCheckerCached(t *testing.T) {
	srv := serve.New(lcp.BuiltinSchemes(), config.Config{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	in := lcp.NewInstance(lcp.Cycle(15))
	scheme := lcp.OddNScheme()
	p, err := scheme.Prove(in)
	if err != nil {
		t.Fatal(err)
	}
	id := registerInstance(t, ts, docText(t, in, "odd-n", nil))
	cached, ok := srv.CachedCheckers(id)
	if !ok {
		t.Fatalf("instance %s not in the store", id)
	}
	if n := cached(); n != 0 {
		t.Fatalf("fresh instance caches %d checkers, want 0", n)
	}
	const requests = 8
	var wg sync.WaitGroup
	for i := range requests {
		req := map[string]any{"instance": id, "proof": proofWire(p)}
		if i%2 == 0 {
			req["backend"] = "engine"
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/check", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	if n := cached(); n != 1 {
		t.Fatalf("%d engine requests cached %d checkers, want 1", requests, n)
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
	if del.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", del.StatusCode)
	}
	// Deletion closes the checkers off the response path.
	for deadline := time.Now().Add(10 * time.Second); cached() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("deleted instance still caches %d checkers", cached())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
