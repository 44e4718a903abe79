// Command lcpload is a small load-test harness for the lcpserve HTTP
// service: it drives POST /check and POST /check/batch at a configurable
// concurrency for a fixed duration each and reports throughput (req/s)
// and latency quantiles (p50/p99) per endpoint — the numbers behind any
// "heavy traffic" claim, measured instead of asserted.
//
// Point it at a running daemon, or at nothing: with no -url it starts
// the server in process on a loopback listener (the same http.Handler
// lcpserve serves) so a single command exercises the full HTTP stack
// hermetically — that mode is what `make load-smoke` runs in CI.
//
//	lcpload -url http://localhost:8080 -duration 5s -concurrency 16
//	lcpload -duration 2s -nodes 256 -batch 32 -backend dist
//
// The workload registers one instance (an even cycle with the bipartite
// scheme, proved by the server's own registry) and then re-verifies its
// certificate — the register-once / check-many pattern the amortized
// engine behind the server is built for.
//
// Around the load window the harness scrapes GET /metrics and prints the
// counter deltas (requests by route, checker outcomes, engine cache
// hits, dist rounds and deliveries), and fails the run if the exposition
// does not parse or any counter moved backwards — so every load run also
// smoke-tests the observability contract.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"time"

	"lcp"
	"lcp/internal/config"
	"lcp/internal/serve"
	"lcp/internal/textio"
)

func main() {
	url := flag.String("url", "", "base URL of a running lcpserve (empty: start the server in process)")
	duration := flag.Duration("duration", 3*time.Second, "measurement window per endpoint")
	concurrency := flag.Int("concurrency", 8, "concurrent client workers")
	nodes := flag.Int("nodes", 128, "instance size (an even cycle, bipartite scheme)")
	batch := flag.Int("batch", 16, "proofs per /check/batch request")
	backend := flag.String("backend", "", "request-level backend override: "+fmt.Sprint(config.Backends()))
	partitioner := flag.String("partitioner", "", "request-level partitioner override (requires a distributed backend)")
	batchColumns := flag.String("batch-columns", "", "batch strategy override for /check/batch: auto, true, or false (requires the engine backend)")
	flag.Parse()

	if err := run(*url, *duration, *concurrency, *nodes, *batch, *backend, *partitioner, *batchColumns); err != nil {
		fmt.Fprintln(os.Stderr, "lcpload:", err)
		os.Exit(1)
	}
}

func run(url string, duration time.Duration, concurrency, nodes, batch int, backend, partitioner, batchColumns string) error {
	if concurrency < 1 || nodes < 4 || batch < 1 {
		return fmt.Errorf("bad flags: concurrency, batch >= 1 and nodes >= 4 required")
	}
	if url == "" {
		ts := httptest.NewServer(serve.New(lcp.BuiltinSchemes(), config.Config{}))
		defer ts.Close()
		url = ts.URL
		fmt.Printf("in-process lcpserve on %s\n", url)
	}

	// Register the instance: an even cycle, 1-bit-per-node bipartite
	// certificate, proved locally and shipped in the document.
	if nodes%2 == 1 {
		nodes++
	}
	in := lcp.NewInstance(lcp.Cycle(nodes))
	scheme := lcp.BipartiteScheme()
	proof, err := lcp.Prove(scheme, in)
	if err != nil {
		return err
	}
	var doc bytes.Buffer
	if err := textio.Write(&doc, &textio.Document{Instance: in, SchemeName: scheme.Name(), Proof: proof}); err != nil {
		return err
	}
	resp, err := http.Post(url+"/instances", "text/plain", &doc)
	if err != nil {
		return err
	}
	var reg struct {
		ID string `json:"id"`
	}
	if err := decode(resp, &reg); err != nil {
		return fmt.Errorf("register instance: %v", err)
	}

	proofWire := make(map[string]string, len(proof))
	for node, bits := range proof {
		proofWire[fmt.Sprint(node)] = bits.String()
	}
	common := map[string]any{"instance": reg.ID}
	if backend != "" {
		common["backend"] = backend
	}
	if partitioner != "" {
		common["partitioner"] = partitioner
	}
	checkBody, err := body(common, "proof", proofWire)
	if err != nil {
		return err
	}
	proofs := make([]map[string]string, batch)
	for i := range proofs {
		proofs[i] = proofWire
	}
	// batch_columns only exists on /check/batch; sending it to /check
	// would be rejected, so it extends a batch-only copy of the common
	// fields.
	batchCommon := common
	if batchColumns != "" {
		batchCommon = make(map[string]any, len(common)+1)
		for k, v := range common {
			batchCommon[k] = v
		}
		batchCommon["batch_columns"] = batchColumns
	}
	batchBody, err := body(batchCommon, "proofs", proofs)
	if err != nil {
		return err
	}

	fmt.Printf("target %s, instance %s (n=%d), %d workers, %s per endpoint, batch=%d\n\n",
		url, reg.ID, nodes, concurrency, duration, batch)
	before, err := scrapeCounters(url + "/metrics")
	if err != nil {
		return fmt.Errorf("pre-load metrics scrape: %v", err)
	}
	fmt.Printf("%-14s %10s %8s %10s %10s %10s\n", "endpoint", "requests", "errors", "req/s", "p50 ms", "p99 ms")
	failures := 0
	for _, ep := range []struct {
		path string
		body []byte
	}{
		{"/check", checkBody},
		{"/check/batch", batchBody},
	} {
		r := fire(url+ep.path, ep.body, concurrency, duration)
		fmt.Printf("%-14s %10d %8d %10.0f %10.3f %10.3f\n",
			ep.path, r.requests, r.errors, r.reqPerSec, r.p50.Seconds()*1e3, r.p99.Seconds()*1e3)
		failures += r.errors
	}
	after, err := scrapeCounters(url + "/metrics")
	if err != nil {
		return fmt.Errorf("post-load metrics scrape: %v", err)
	}
	if err := printCounterDeltas(os.Stdout, before, after); err != nil {
		return err
	}
	if failures > 0 {
		return fmt.Errorf("%d requests failed", failures)
	}
	return nil
}

// body marshals the common request fields plus one extra key.
func body(common map[string]any, key string, value any) ([]byte, error) {
	m := make(map[string]any, len(common)+1)
	for k, v := range common {
		m[k] = v
	}
	m[key] = value
	return json.Marshal(m)
}

type loadResult struct {
	requests  int
	errors    int
	reqPerSec float64
	p50, p99  time.Duration
}

// fire hammers one endpoint with the fixed body from concurrency
// workers until the deadline, collecting per-request latencies. The
// client carries a hard per-request timeout so a deadlocked handler
// becomes a counted error (and a non-zero exit) instead of hanging the
// harness — in CI, a hung load-smoke is indistinguishable from a pass
// until the runner's global timeout.
func fire(url string, reqBody []byte, concurrency int, duration time.Duration) loadResult {
	var (
		mu        sync.Mutex
		latencies []time.Duration
		errs      int
	)
	client := &http.Client{Timeout: duration + 30*time.Second}
	start := time.Now()
	deadline := start.Add(duration)
	var wg sync.WaitGroup
	for range concurrency {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []time.Duration
			myErrs := 0
			for time.Now().Before(deadline) {
				t0 := time.Now()
				resp, err := client.Post(url, "application/json", bytes.NewReader(reqBody))
				if err != nil {
					myErrs++
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					myErrs++
					continue
				}
				mine = append(mine, time.Since(t0))
			}
			mu.Lock()
			latencies = append(latencies, mine...)
			errs += myErrs
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	res := loadResult{requests: len(latencies), errors: errs}
	if len(latencies) > 0 {
		res.reqPerSec = float64(len(latencies)) / elapsed.Seconds()
		res.p50 = quantile(latencies, 0.50)
		res.p99 = quantile(latencies, 0.99)
	}
	return res
}

// quantile reads the q-th quantile from sorted latencies (nearest-rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

func decode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
