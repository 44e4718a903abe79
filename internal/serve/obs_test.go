package serve_test

// Tests for the observability surface: trace-ID propagation through
// headers, contexts and error bodies; the Prometheus exposition at
// GET /metrics (well-formedness, coverage, counter monotonicity); and
// the structured request log.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lcp"
	"lcp/internal/config"
	"lcp/internal/serve"
)

func getWithHeader(t *testing.T, url, traceID string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if traceID != "" {
		req.Header.Set("X-Trace-Id", traceID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

var hexTraceID = regexp.MustCompile(`^[0-9a-f]{32}$`)

func TestServeTraceIDGenerated(t *testing.T) {
	ts := newTestServer(t)
	resp, _ := getWithHeader(t, ts.URL+"/healthz", "")
	got := resp.Header.Get("X-Trace-Id")
	if !hexTraceID.MatchString(got) {
		t.Fatalf("generated trace ID %q, want 32 hex chars", got)
	}
	resp2, _ := getWithHeader(t, ts.URL+"/healthz", "")
	if again := resp2.Header.Get("X-Trace-Id"); again == got {
		t.Fatalf("two requests share trace ID %q", got)
	}
}

func TestServeTraceIDEchoedEndToEnd(t *testing.T) {
	ts := newTestServer(t)
	in := lcp.NewInstance(lcp.Cycle(6))
	id := registerInstance(t, ts, docText(t, in, "bipartite", nil))

	const trace = "client-supplied.trace_01"
	body, err := json.Marshal(map[string]any{"instance": id, "proof": map[string]string{}})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/check", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Trace-Id", trace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != trace {
		t.Fatalf("echoed trace ID %q, want %q", got, trace)
	}

	// An invalid client ID (spaces, too long, ...) is replaced, not echoed.
	resp2, _ := getWithHeader(t, ts.URL+"/healthz", "not a valid trace id!")
	if got := resp2.Header.Get("X-Trace-Id"); !hexTraceID.MatchString(got) {
		t.Fatalf("invalid client trace ID handled as %q, want a fresh 32-hex ID", got)
	}
}

func TestServeTraceIDInErrorBody(t *testing.T) {
	ts := newTestServer(t)
	const trace = "err-trace-42"
	body, err := json.Marshal(map[string]any{"instance": "nope"})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/check", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Trace-Id", trace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var errBody struct {
		Error   string `json:"error"`
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(raw, &errBody); err != nil {
		t.Fatal(err)
	}
	if errBody.TraceID != trace {
		t.Fatalf("error body trace_id %q, want %q (body: %s)", errBody.TraceID, trace, raw)
	}
	if resp.Header.Get("X-Trace-Id") != trace {
		t.Fatalf("error response header trace %q, want %q", resp.Header.Get("X-Trace-Id"), trace)
	}
}

var promNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// promScrape is one parsed exposition: the family types and every
// sample (keyed by full series identity: name plus label set).
type promScrape struct {
	types   map[string]string
	samples map[string]float64
}

// parseProm validates the text exposition's well-formedness and
// returns the parsed scrape: every sample line must parse as
// `name{labels} value`, belong to a family declared by a preceding
// # TYPE line, and carry a valid metric name.
func parseProm(t *testing.T, text string) promScrape {
	t.Helper()
	sc := promScrape{types: make(map[string]string), samples: make(map[string]float64)}
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, found := strings.Cut(rest, " ")
			if !found || !promNameRE.MatchString(name) {
				t.Fatalf("malformed HELP line: %q", line)
			}
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, found := strings.Cut(rest, " ")
			if !found || !promNameRE.MatchString(name) {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			switch kind {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown family type in %q", line)
			}
			sc.types[name] = kind
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment line: %q", line)
		}
		// Sample: name[{labels}] value
		series, value, found := cutSample(line)
		if !found {
			t.Fatalf("malformed sample line: %q", line)
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
		}
		if !promNameRE.MatchString(name) {
			t.Fatalf("bad metric name in sample %q", line)
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if trimmed, ok := strings.CutSuffix(name, suffix); ok && sc.types[trimmed] == "histogram" {
				family = trimmed
				break
			}
		}
		if _, ok := sc.types[family]; !ok {
			t.Fatalf("sample %q has no preceding # TYPE for family %q", line, family)
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("sample %q: bad value: %v", line, err)
		}
		sc.samples[series] = v
	}
	return sc
}

// cutSample splits a sample line at the value separator: the last space
// outside braces (label values may contain spaces).
func cutSample(line string) (series, value string, ok bool) {
	depth := 0
	for i := len(line) - 1; i >= 0; i-- {
		switch line[i] {
		case '}':
			depth++
		case '{':
			depth--
		case ' ':
			if depth == 0 {
				return line[:i], line[i+1:], true
			}
		}
	}
	return "", "", false
}

// family returns the counter family's type for the series key.
func (sc promScrape) familyOf(series string) string {
	name := series
	if i := strings.IndexByte(series, '{'); i >= 0 {
		name = series[:i]
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if trimmed, ok := strings.CutSuffix(name, suffix); ok && sc.types[trimmed] == "histogram" {
			return "histogram"
		}
	}
	return sc.types[name]
}

func scrapeMetrics(t *testing.T, ts *httptest.Server) promScrape {
	t.Helper()
	resp, body := getWithHeader(t, ts.URL+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("GET /metrics content type %q", ct)
	}
	return parseProm(t, string(body))
}

func TestServeMetricsExposition(t *testing.T) {
	ts := newTestServer(t)
	in := lcp.NewInstance(lcp.Cycle(8))
	scheme := lcp.BipartiteScheme()
	p, err := scheme.Prove(in)
	if err != nil {
		t.Fatal(err)
	}
	id := registerInstance(t, ts, docText(t, in, "bipartite", nil))
	check := func(backend string) {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/check", map[string]any{
			"instance": id, "proof": proofWire(p), "backend": backend,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("check %s: status %d: %s", backend, resp.StatusCode, body)
		}
	}
	check(string(config.BackendEngine))
	check(string(config.BackendDist))

	first := scrapeMetrics(t, ts)

	// The acceptance surface: request, engine-cache, and dist
	// round/message metrics all present in one scrape.
	wantSeries := []string{
		`lcp_http_requests_total{route="POST /check",code="200"}`,
		`lcp_uptime_seconds`,
	}
	for _, series := range wantSeries {
		if _, ok := first.samples[series]; !ok {
			t.Errorf("series %q missing from /metrics", series)
		}
	}
	wantFamilies := []string{
		"lcp_http_request_seconds", "lcp_build_info", "lcp_instances",
		"lcp_instances_evicted_total", "lcp_engine_cache_hits_total",
		"lcp_engine_cache_misses_total", "lcp_dist_runs_total",
		"lcp_dist_rounds_total", "lcp_dist_deliveries_total",
		"lcp_checker_checks_total", "lcp_checker_stage_seconds_total",
	}
	for _, fam := range wantFamilies {
		if _, ok := first.types[fam]; !ok {
			t.Errorf("family %q missing from /metrics", fam)
		}
	}

	// Counters are monotone across requests: re-check, re-scrape, and
	// every counter/histogram series present in both scrapes must not
	// have decreased.
	check(string(config.BackendEngine))
	second := scrapeMetrics(t, ts)
	compared := 0
	for series, v1 := range first.samples {
		kind := first.familyOf(series)
		if kind != "counter" && kind != "histogram" {
			continue
		}
		v2, ok := second.samples[series]
		if !ok {
			t.Errorf("series %q vanished between scrapes", series)
			continue
		}
		if v2 < v1 {
			t.Errorf("series %q decreased: %v -> %v", series, v1, v2)
		}
		compared++
	}
	if compared == 0 {
		t.Fatal("no counter series compared between scrapes")
	}
	key := `lcp_http_requests_total{route="POST /check",code="200"}`
	if second.samples[key] != first.samples[key]+1 {
		t.Errorf("%s: %v -> %v, want +1", key, first.samples[key], second.samples[key])
	}
}

// syncBuffer serializes writes so the test can read the log buffer
// while the server may still be logging.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestServeRequestLogging(t *testing.T) {
	logBuf := &syncBuffer{}
	ts := httptest.NewServer(serve.NewWith(lcp.BuiltinSchemes(), config.Config{},
		serve.Config{LogRequests: true, LogWriter: logBuf}))
	t.Cleanup(ts.Close)

	in := lcp.NewInstance(lcp.Cycle(6))
	scheme := lcp.BipartiteScheme()
	p, err := scheme.Prove(in)
	if err != nil {
		t.Fatal(err)
	}
	id := registerInstance(t, ts, docText(t, in, "bipartite", nil))

	send := func(trace string, reqBody map[string]any) {
		t.Helper()
		raw, err := json.Marshal(reqBody)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/check", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Trace-Id", trace)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	send("log-trace-ok", map[string]any{"instance": id, "proof": proofWire(p)})
	send("log-trace-err", map[string]any{"instance": "missing"})
	// A synchronizing request: by the time its log line is visible, the
	// earlier lines are too (the logger serializes).
	getWithHeader(t, ts.URL+"/healthz", "log-trace-sync")
	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(logBuf.String(), "log-trace-sync") {
		if time.Now().After(deadline) {
			t.Fatalf("sync log line never appeared; log so far:\n%s", logBuf.String())
		}
		time.Sleep(time.Millisecond)
	}

	logText := logBuf.String()
	okLine := findLine(logText, "log-trace-ok")
	if okLine == "" {
		t.Fatalf("no log line for successful check; log:\n%s", logText)
	}
	for _, want := range []string{`route="POST /check"`, "status=200", "backend=engine", "verdict=accepted", "dur_ms="} {
		if !strings.Contains(okLine, want) {
			t.Errorf("success line missing %q: %s", want, okLine)
		}
	}
	errLine := findLine(logText, "log-trace-err")
	if errLine == "" {
		t.Fatalf("no log line for failed check; log:\n%s", logText)
	}
	for _, want := range []string{"status=400", `err="unknown instance`} {
		if !strings.Contains(errLine, want) {
			t.Errorf("error line missing %q: %s", want, errLine)
		}
	}
	if got := strings.Count(logText, "log-trace-ok"); got != 1 {
		t.Errorf("successful request logged %d lines, want 1", got)
	}
}

func findLine(text, substr string) string {
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, substr) {
			return line
		}
	}
	return ""
}

// TestServeMetricsHTTPStages: the body-decode and response-encode time
// of requests accumulates in lcp_serve_stage_seconds_total, one series
// per stage, and every check adds to both.
func TestServeMetricsHTTPStages(t *testing.T) {
	ts := newTestServer(t)
	in := lcp.NewInstance(lcp.Cycle(8))
	p, err := lcp.BipartiteScheme().Prove(in)
	if err != nil {
		t.Fatal(err)
	}
	id := registerInstance(t, ts, docText(t, in, "bipartite", nil))
	check := func() {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/check", map[string]any{"instance": id, "proof": proofWire(p)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("check: status %d: %s", resp.StatusCode, body)
		}
	}
	series := []string{
		`lcp_serve_stage_seconds_total{stage="http.decode"}`,
		`lcp_serve_stage_seconds_total{stage="http.encode"}`,
	}
	check()
	first := scrapeMetrics(t, ts)
	check()
	second := scrapeMetrics(t, ts)
	for _, s := range series {
		v1, ok := first.samples[s]
		if !ok {
			t.Errorf("series %q missing from /metrics", s)
			continue
		}
		if first.types["lcp_serve_stage_seconds_total"] != "counter" {
			t.Errorf("lcp_serve_stage_seconds_total is not a counter")
		}
		if v2 := second.samples[s]; v1 <= 0 || v2 <= v1 {
			t.Errorf("%s: %v after one check, %v after two; want it to grow with each", s, v1, v2)
		}
	}
}
