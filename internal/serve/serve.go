package serve

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"lcp"
	"lcp/internal/bitstr"
	"lcp/internal/config"
	"lcp/internal/core"
	"lcp/internal/engine"
	"lcp/internal/obs"
	"lcp/internal/textio"
)

// maxBodyBytes bounds request bodies (instances and proof batches).
const maxBodyBytes = 16 << 20

// Config tunes the server itself, as opposed to the engines it wires
// (engine.Options). The zero value keeps every registered instance
// forever — the pre-eviction behaviour.
type Config struct {
	// MaxInstances bounds the in-memory instance store. When a new
	// registration would exceed it, the least-recently-used instance is
	// evicted: its engine (and every cached view skeleton and wiring
	// inside) becomes garbage once in-flight checks drain, and later
	// requests naming it get a 404 with code "evicted" so clients can
	// distinguish "never existed" from "aged out, re-register it".
	// 0 means unbounded.
	MaxInstances int
	// LogRequests turns on structured request logging: one line per
	// request carrying the trace ID, method, route, status, latency,
	// and — where the handler resolved them — backend, verdict and error
	// message. Errors log under the same trace ID the client received.
	LogRequests bool
	// LogWriter receives the request log lines. nil means os.Stderr.
	LogWriter io.Writer
}

// Server is the HTTP verification service. Create with New; it
// implements http.Handler and is safe for concurrent use.
type Server struct {
	schemes map[string]core.Scheme
	base    config.Config
	cfg     Config
	mux     *http.ServeMux
	// reg is the per-server metrics registry (HTTP histograms, build
	// info, instance-store gauges); GET /metrics serves it followed by
	// the process-wide obs.Default() (checker/engine/dist counters). Two
	// registries keep concurrent Server values — the test suite runs
	// many — from colliding on per-route state.
	reg    *obs.Registry
	routes map[string]*obs.Histogram // request pattern -> latency histogram
	start  time.Time
	logger *log.Logger // nil unless Config.LogRequests

	mu           sync.Mutex
	instances    map[string]*instanceEntry
	lru          *list.List          // *instanceEntry, most recently used in front
	evicted      map[string]struct{} // ids dropped by the MaxInstances policy
	evictedQ     []string            // same ids, oldest first, for pruning
	evictedTotal int64               // monotone eviction count, for /stats
	nextID       int
}

// maxEvictedRemembered bounds how many evicted ids keep their distinct
// 404 body. The set exists for client UX, not correctness, so under
// registration churn the oldest evictions age out to a plain "unknown
// instance" error instead of growing the server's memory with every id
// ever evicted.
const maxEvictedRemembered = 1024

type instanceEntry struct {
	ID     string
	Doc    *textio.Document
	Engine *engine.Engine
	elem   *list.Element // LRU position; nil for inline one-shot entries
	// dist holds the entry's dist and dist-tcp checkers, keyed by
	// backend, scheme and partitioner and guarded by the server mutex.
	// Each one wires its shards (dist) or dials the worker fleet and
	// registers the instance (dist-tcp) on first use — the expensive
	// part of the message-passing paths — so repeated requests reuse
	// the wiring like the engine path reuses cached views. Evicting or
	// deleting the entry closes them, which tells a fleet to forget the
	// instance.
	dist map[string]lcp.Checker
}

// closeDist closes the entry's dist and dist-tcp checkers (dropped
// wirings; fleet deregistration + control connections). Caller holds
// the server mutex or owns the entry exclusively.
func (entry *instanceEntry) closeDist() {
	for _, chk := range entry.dist {
		lcp.CloseChecker(chk)
	}
	entry.dist = nil
}

// latencyBoundsMS are the fixed per-endpoint histogram bucket upper
// bounds, in milliseconds — the canonical obs.LatencyBoundsMS table,
// shared with the obs histograms so GET /stats (which reports
// milliseconds, keeping its JSON shape stable) and the Prometheus
// exposition (which records seconds) can never drift. One table for
// every endpoint: cross-endpoint comparability beats per-endpoint
// tuning.
var latencyBoundsMS = obs.LatencyBoundsMS

// latencyBoundsSeconds is latencyBoundsMS in seconds, the unit the obs
// histograms record.
var latencyBoundsSeconds = obs.LatencyBoundsSeconds()

// New builds a server over the given scheme registry (normally
// lcp.BuiltinSchemes()). The base config applies to every instance the
// server wires; per-request options ("backend", "partitioner")
// override it through the same config.Set resolver the lcpserve flags
// go through.
func New(schemes map[string]core.Scheme, base config.Config) *Server {
	return NewWith(schemes, base, Config{})
}

// NewWith is New with an explicit server configuration.
func NewWith(schemes map[string]core.Scheme, base config.Config, cfg Config) *Server {
	s := &Server{
		schemes:   schemes,
		base:      base,
		cfg:       cfg,
		mux:       http.NewServeMux(),
		reg:       obs.NewRegistry(),
		routes:    make(map[string]*obs.Histogram),
		start:     time.Now(),
		instances: make(map[string]*instanceEntry),
		lru:       list.New(),
		evicted:   make(map[string]struct{}),
	}
	if cfg.LogRequests {
		out := cfg.LogWriter
		if out == nil {
			out = os.Stderr
		}
		s.logger = log.New(out, "", log.LstdFlags|log.LUTC)
	}
	s.registerServerMetrics()
	s.handle("POST /instances", s.handleCreateInstance)
	s.handle("GET /instances", s.handleListInstances)
	s.handle("DELETE /instances/{id}", s.handleDeleteInstance)
	s.handle("POST /prove", s.handleProve)
	s.handle("POST /check", s.handleCheck)
	s.handle("POST /check/batch", s.handleCheckBatch)
	s.handle("POST /check/stream", s.handleCheckStream)
	s.handle("GET /schemes", s.handleSchemes)
	s.handle("GET /stats", s.handleStats)
	s.handle("GET /metrics", s.handleMetrics)
	s.handle("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	return s
}

// registerServerMetrics wires the server-level families: build info,
// uptime, and the instance store's occupancy/eviction counters. The
// store metrics read the live values at scrape time under the server
// mutex — the eviction count stays owned by the LRU bookkeeping and is
// simply exposed, not duplicated.
func (s *Server) registerServerMetrics() {
	version := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	s.reg.Gauge("lcp_build_info",
		"Constant 1, labelled with the Go toolchain and module version of the running binary.",
		obs.Label{Name: "go_version", Value: runtime.Version()},
		obs.Label{Name: "module_version", Value: version}).Set(1)
	s.reg.GaugeFunc("lcp_uptime_seconds",
		"Seconds since this server was constructed.",
		func() float64 { return time.Since(s.start).Seconds() })
	s.reg.GaugeFunc("lcp_instances",
		"Registered instances currently in the store.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.instances))
		})
	s.reg.Gauge("lcp_instances_max",
		"Configured instance-store bound (-max-instances); 0 means unbounded.").Set(float64(s.cfg.MaxInstances))
	s.reg.CounterFunc("lcp_instances_evicted_total",
		"Instances evicted by the LRU policy since process start.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.evictedTotal)
		})
}

// traceWriter wraps the response writer for one request: it carries the
// request's trace ID (so writeJSON can echo it into error bodies),
// captures the status code for metrics and logging, and lets handlers
// annotate the resolved backend and verdict for the request log line.
// Flush passes through so the streaming endpoint keeps working.
type traceWriter struct {
	http.ResponseWriter
	trace   string
	status  int
	backend string
	verdict string
	errMsg  string
}

func (tw *traceWriter) WriteHeader(code int) {
	if tw.status == 0 {
		tw.status = code
	}
	tw.ResponseWriter.WriteHeader(code)
}

func (tw *traceWriter) Write(b []byte) (int, error) {
	if tw.status == 0 {
		tw.status = http.StatusOK
	}
	return tw.ResponseWriter.Write(b)
}

func (tw *traceWriter) Flush() {
	if f, ok := tw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// note annotates the request's log line with the resolved backend and
// verdict. Handlers call it with whatever they know; empty strings
// leave the previous annotation in place.
func note(w http.ResponseWriter, backend, verdict string) {
	if tw, ok := w.(*traceWriter); ok {
		if backend != "" {
			tw.backend = backend
		}
		if verdict != "" {
			tw.verdict = verdict
		}
	}
}

// handle registers a handler behind the observability middleware: the
// request's trace ID is adopted from a valid X-Trace-Id header or
// minted fresh, echoed on the response up front (so even error bodies
// carry it), and threaded through the request context; the request is
// then timed into the route's latency histogram and counted by status
// code, and — when request logging is on — reported as one structured
// line.
func (s *Server) handle(pattern string, fn http.HandlerFunc) {
	hist := s.reg.Histogram("lcp_http_request_seconds",
		"HTTP request latency by route.",
		latencyBoundsSeconds, obs.Label{Name: "route", Value: pattern})
	s.routes[pattern] = hist
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		trace := r.Header.Get(obs.TraceHeader)
		if !obs.ValidTraceID(trace) {
			trace = obs.NewTraceID()
		}
		tw := &traceWriter{ResponseWriter: w, trace: trace}
		tw.Header().Set(obs.TraceHeader, trace)
		fn(tw, r.WithContext(obs.ContextWithTraceID(r.Context(), trace)))
		if tw.status == 0 {
			// The handler never wrote: net/http will send an implicit 200.
			tw.status = http.StatusOK
		}
		elapsed := time.Since(start)
		hist.Observe(elapsed.Seconds())
		s.reg.Counter("lcp_http_requests_total",
			"HTTP requests by route and status code.",
			obs.Label{Name: "route", Value: pattern},
			obs.Label{Name: "code", Value: strconv.Itoa(tw.status)}).Inc()
		if s.logger != nil {
			line := fmt.Sprintf("trace=%s method=%s route=%q status=%d dur_ms=%.3f",
				trace, r.Method, pattern, tw.status, float64(elapsed)/float64(time.Millisecond))
			if tw.backend != "" {
				line += " backend=" + tw.backend
			}
			if tw.verdict != "" {
				line += " verdict=" + tw.verdict
			}
			if tw.errMsg != "" {
				line += fmt.Sprintf(" err=%q", tw.errMsg)
			}
			s.logger.Print(line)
		}
	})
}

// handleMetrics serves the Prometheus text exposition: the per-server
// registry (HTTP, build info, instance store) followed by the process-
// wide one (checker, engine, dist). The two hold disjoint family names,
// so the concatenation is a single well-formed exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.PromContentType)
	_ = s.reg.WriteProm(w)
	_ = obs.Default().WriteProm(w)
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	s.mux.ServeHTTP(w, r)
}

// ---- wire types ----

type checkRequest struct {
	// Instance is the id of a registered instance; Document is an
	// inline textio document for one-shot checks. Exactly one is set.
	Instance string `json:"instance,omitempty"`
	Document string `json:"document,omitempty"`
	// Scheme overrides the document's scheme directive.
	Scheme string `json:"scheme,omitempty"`
	// Proof maps node id to a bit string ("0110"); empty means the
	// document's proof lines.
	Proof map[string]string `json:"proof,omitempty"`
	// Proofs is the batch variant (POST /check/batch only).
	Proofs []map[string]string `json:"proofs,omitempty"`
	// Backend overrides the execution path for this request: "core",
	// "dist", "engine", or "dist-tcp". It resolves through the same
	// config.Set resolver as the lcpserve flags, so the names (and the
	// semantics) are identical on the command line and on the wire.
	// Empty means the server's configured default backend.
	Backend string `json:"backend,omitempty"`
	// Partitioner overrides how the distributed backends assign nodes
	// to shards for this request: "contiguous", "bfs", or "greedy" (see
	// internal/partition). Requires a distributed backend. Empty means
	// the server's configured default. Each named partitioner gets its
	// own long-lived checker per registered instance and scheme, so
	// repeated requests amortize exactly like the default one.
	Partitioner string `json:"partitioner,omitempty"`
	// StopOnReject makes /check/stream cancel remaining work as soon
	// as the first rejection streams out.
	StopOnReject bool `json:"stop_on_reject,omitempty"`
}

type checkResponse struct {
	Accepted  bool  `json:"accepted"`
	Nodes     int   `json:"nodes"`
	ProofBits int   `json:"proof_bits"`
	Rejectors []int `json:"rejectors,omitempty"`
	// Backend reports the execution path that produced the verdict —
	// the resolved value of the request's "backend" option over the
	// server default.
	Backend string `json:"backend,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
	// Code distinguishes machine-actionable failures; "evicted" marks
	// an instance dropped by the -max-instances LRU policy (the client
	// should re-register, not fix its id).
	Code string `json:"code,omitempty"`
	// TraceID is the request's trace ID — the same value as the
	// X-Trace-Id response header — repeated in the body so a client
	// that only kept the JSON can still quote it when reporting.
	TraceID string `json:"trace_id,omitempty"`
}

type instanceInfo struct {
	ID     string `json:"id"`
	Nodes  int    `json:"nodes"`
	Edges  int    `json:"edges"`
	Scheme string `json:"scheme,omitempty"`
	Proof  bool   `json:"has_proof"`
}

// ---- helpers ----

func writeJSON(w http.ResponseWriter, status int, v any) {
	// Error bodies pick up the request's trace ID on the way out, and
	// the message is remembered for the request log line — the handler
	// just writes the error; the middleware owns the correlation.
	if er, ok := v.(errorResponse); ok {
		if tw, ok := w.(*traceWriter); ok {
			er.TraceID = tw.trace
			tw.errMsg = er.Error
			v = er
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// rejectFields enforces per-endpoint strictness on the shared request
// shape: a field that the endpoint would silently ignore is a client
// bug (e.g. a "proofs" array sent to /check would otherwise fall back
// to the document's stored proof and report a verdict for a proof that
// was never checked), so it is rejected outright.
func rejectFields(w http.ResponseWriter, req *checkRequest, endpoint string) bool {
	bad := func(field string) bool {
		writeError(w, http.StatusBadRequest, "%q is not accepted by %s", field, endpoint)
		return false
	}
	if req.Proofs != nil && endpoint != "/check/batch" {
		return bad("proofs")
	}
	if req.Proof != nil && (endpoint == "/check/batch" || endpoint == "/prove") {
		return bad("proof")
	}
	if req.StopOnReject && endpoint != "/check/stream" {
		return bad("stop_on_reject")
	}
	if req.Backend != "" {
		if endpoint == "/prove" {
			return bad("backend")
		}
		// Streaming verdicts is a shared-memory affair: the message-
		// passing backends only have verdicts once the round protocol
		// completes, so "stream" would be a slower spelling of /check.
		if endpoint == "/check/stream" &&
			req.Backend != string(config.BackendCore) && req.Backend != string(config.BackendEngine) {
			return bad("backend")
		}
	}
	if req.Partitioner != "" && (endpoint == "/prove" || endpoint == "/check/stream") {
		return bad("partitioner")
	}
	// Whether a partitioner override is honored depends on the
	// *resolved* backend (the server default counts, not just the
	// request fields), so that guard lives in requestConfig.
	return true
}

// parseProof decodes the JSON proof map into a core.Proof against the
// instance's node set.
func parseProof(in *core.Instance, m map[string]string) (core.Proof, error) {
	p := make(core.Proof, len(m))
	for key, bits := range m {
		id, err := strconv.Atoi(key)
		if err != nil {
			return nil, fmt.Errorf("bad proof node id %q", key)
		}
		if !in.G.Has(id) {
			return nil, fmt.Errorf("proof references unknown node %d", id)
		}
		var w bitstr.Writer
		for _, r := range bits {
			switch r {
			case '0':
				w.WriteBit(false)
			case '1':
				w.WriteBit(true)
			default:
				return nil, fmt.Errorf("node %d: bad proof bit %q", id, r)
			}
		}
		p[id] = w.String()
	}
	return p, nil
}

// formatProof renders a proof as the JSON wire map.
func formatProof(p core.Proof) map[string]string {
	out := make(map[string]string, len(p))
	for id, s := range p {
		out[strconv.Itoa(id)] = s.String()
	}
	return out
}

// safeVerifier wraps a scheme's verifier so that a panic while
// verifying one node fails closed: the node rejects instead of the
// panic escaping into an engine worker goroutine and taking the daemon
// down. Built-in verifiers do not panic on any input the property
// tests throw at them, but the service must not bet its life on that.
type safeVerifier struct{ v core.Verifier }

func (s safeVerifier) Radius() int { return s.v.Radius() }

func (s safeVerifier) Verify(w *core.View) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return s.v.Verify(w)
}

// httpError carries an explicit status and machine-readable code
// through the resolve path; writeResolveError renders it (and falls
// back to a plain 400 for ordinary validation errors).
type httpError struct {
	status int
	code   string
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func writeResolveError(w http.ResponseWriter, err error) {
	if he, ok := err.(*httpError); ok {
		writeJSON(w, he.status, errorResponse{Error: he.msg, Code: he.code})
		return
	}
	writeError(w, http.StatusBadRequest, "%v", err)
}

// resolve turns a check request into (entry, scheme). For registered
// instances the long-lived entry is returned (and touched in the LRU
// order); for inline documents a one-shot entry is wired on the spot.
func (s *Server) resolve(req *checkRequest) (*instanceEntry, core.Scheme, error) {
	var entry *instanceEntry
	switch {
	case req.Instance != "" && req.Document != "":
		return nil, nil, fmt.Errorf("set either instance or document, not both")
	case req.Instance != "":
		s.mu.Lock()
		entry = s.instances[req.Instance]
		if entry != nil {
			s.lru.MoveToFront(entry.elem)
		}
		_, wasEvicted := s.evicted[req.Instance]
		s.mu.Unlock()
		if entry == nil {
			if wasEvicted {
				return nil, nil, &httpError{
					status: http.StatusNotFound,
					code:   "evicted",
					msg: fmt.Sprintf("instance %q was evicted by the instance store's LRU policy (-max-instances=%d); re-register it",
						req.Instance, s.cfg.MaxInstances),
				}
			}
			return nil, nil, fmt.Errorf("unknown instance %q", req.Instance)
		}
	case req.Document != "":
		doc, err := textio.Parse(strings.NewReader(req.Document))
		if err != nil {
			return nil, nil, fmt.Errorf("parse document: %v", err)
		}
		entry = &instanceEntry{Doc: doc, Engine: engine.New(doc.Instance, s.base.EngineOptions())}
	default:
		return nil, nil, fmt.Errorf("missing instance id or inline document")
	}
	name := req.Scheme
	if name == "" {
		name = entry.Doc.SchemeName
	}
	if name == "" {
		return nil, nil, fmt.Errorf("no scheme: set \"scheme\" in the request or a scheme directive in the document")
	}
	scheme, ok := s.schemes[name]
	if !ok {
		return nil, nil, fmt.Errorf("unknown scheme %q (GET /schemes lists them)", name)
	}
	return entry, scheme, nil
}

// requestConfig resolves one request's execution configuration: the
// server's base config with the request-level overrides applied through
// config.Set — the same resolver the lcpserve flags feed, so "backend"
// and "partitioner" mean exactly the same thing on the wire as on the
// command line.
func (s *Server) requestConfig(req *checkRequest) (config.Config, error) {
	cfg := s.base
	if req.Backend != "" {
		if err := cfg.Set("backend", req.Backend); err != nil {
			return cfg, err
		}
	}
	if req.Partitioner != "" {
		// The partitioner shapes the distributed shard cut; on the
		// cached-view paths it would be silently ignored, which is the
		// exact client bug this guard exists for. The check runs against
		// the resolved backend, so a server whose *default* backend is
		// distributed honors partitioner-only requests.
		if b := cfg.ResolvedBackend(); b != config.BackendDist && b != config.BackendDistTCP {
			return cfg, fmt.Errorf("%q requires a distributed backend (%q or %q), resolved backend is %q",
				"partitioner", config.BackendDist, config.BackendDistTCP, b)
		}
		if err := cfg.Set("partitioner", req.Partitioner); err != nil {
			return cfg, err
		}
	}
	if cfg.ResolvedBackend() == config.BackendDistTCP && len(cfg.WorkerAddrs) == 0 {
		return cfg, fmt.Errorf("backend %q needs a worker fleet, and this server was started without one: run lcpworker processes and restart lcpserve with -worker-addrs host:port,...",
			config.BackendDistTCP)
	}
	return cfg, nil
}

// checkerFor builds the façade checker executing one request: the
// resolved config's backend over the entry's instance. The engine
// backend is a cheap per-request shim over the entry's cached engine
// (so every request amortizes the same views); the message-passing
// backends come from distCheckerFor, cached per entry. Every
// in-process verifier is wrapped in the fail-closed safeVerifier.
func (s *Server) checkerFor(entry *instanceEntry, cfg config.Config, scheme core.Scheme) (lcp.Checker, error) {
	switch cfg.ResolvedBackend() {
	case config.BackendDist, config.BackendDistTCP:
		return s.distCheckerFor(entry, cfg, scheme)
	}
	opts := []lcp.CheckerOption{
		lcp.WithBackend(string(cfg.ResolvedBackend())),
		lcp.WithVerifier(safeVerifier{scheme.Verifier()}),
	}
	if cfg.ResolvedBackend() == config.BackendEngine {
		opts = append(opts, lcp.WithEngine(entry.Engine))
	}
	return lcp.NewChecker(entry.Doc.Instance, opts...)
}

// distCheckerFor returns the entry's dist or dist-tcp checker for the
// request's scheme and partitioner, building it on first use. A dist
// checker wires the instance's shards at its first check; a dist-tcp
// checker registers the instance on the worker fleet. Either way a
// cached checker amortizes that cost across requests, and eviction
// closes it (deregistering fleet-side). The dist-tcp verifier is not
// wrapped in safeVerifier — it runs in the worker process, whose shard
// runner already converts verifier panics to errors.
func (s *Server) distCheckerFor(entry *instanceEntry, cfg config.Config, scheme core.Scheme) (lcp.Checker, error) {
	backend := cfg.ResolvedBackend()
	key := string(backend) + "\x00" + scheme.Name() + "\x00" + cfg.PartitionerName()
	s.mu.Lock()
	defer s.mu.Unlock()
	if chk, ok := entry.dist[key]; ok {
		return chk, nil
	}
	opts := []lcp.CheckerOption{
		lcp.WithBackend(string(backend)),
		lcp.WithPartitioner(cfg.Partitioner),
	}
	if backend == config.BackendDistTCP {
		opts = append(opts, lcp.WithScheme(scheme), lcp.WithWorkerAddrs(cfg.WorkerAddrs...))
	} else {
		opts = append(opts, lcp.WithVerifier(safeVerifier{scheme.Verifier()}), lcp.WithShards(cfg.Shards))
	}
	chk, err := lcp.NewChecker(entry.Doc.Instance, opts...)
	if err != nil {
		return nil, err
	}
	if entry.dist == nil {
		entry.dist = make(map[string]lcp.Checker)
	}
	entry.dist[key] = chk
	return chk, nil
}

// requestProof picks the proof for a single-proof request: the inline
// JSON proof if present, the document's proof lines otherwise.
func requestProof(in *core.Instance, doc *textio.Document, req *checkRequest) (core.Proof, error) {
	if req.Proof != nil {
		return parseProof(in, req.Proof)
	}
	return doc.Proof, nil
}

// ---- handlers ----

func (s *Server) handleCreateInstance(w http.ResponseWriter, r *http.Request) {
	// The body is already bounded by MaxBytesReader; parse it straight
	// off the wire.
	doc, err := textio.Parse(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "parse instance: %v", err)
		return
	}
	s.mu.Lock()
	s.nextID++
	entry := &instanceEntry{
		ID:     fmt.Sprintf("i%d", s.nextID),
		Doc:    doc,
		Engine: engine.New(doc.Instance, s.base.EngineOptions()),
	}
	// Evict from the cold end until the newcomer fits. In-flight checks
	// on an evicted engine finish on the caches they resolved; the
	// engine is garbage once they drain.
	var evictedEntries []*instanceEntry
	for s.cfg.MaxInstances > 0 && s.lru.Len() >= s.cfg.MaxInstances {
		old := s.lru.Remove(s.lru.Back()).(*instanceEntry)
		delete(s.instances, old.ID)
		evictedEntries = append(evictedEntries, old)
		s.evicted[old.ID] = struct{}{}
		s.evictedTotal++
		s.evictedQ = append(s.evictedQ, old.ID)
		if len(s.evictedQ) > maxEvictedRemembered {
			delete(s.evicted, s.evictedQ[0])
			s.evictedQ = append(s.evictedQ[:0], s.evictedQ[1:]...)
		}
	}
	entry.elem = s.lru.PushFront(entry)
	s.instances[entry.ID] = entry
	s.mu.Unlock()
	// Deregister evicted entries' dist-tcp instances from the worker
	// fleet off the request path: an in-flight remote check holds its
	// coordinator's lock, so closing waits for it to drain.
	for _, old := range evictedEntries {
		go old.closeDist()
	}
	writeJSON(w, http.StatusCreated, s.info(entry))
}

func (s *Server) info(entry *instanceEntry) instanceInfo {
	return instanceInfo{
		ID:     entry.ID,
		Nodes:  entry.Doc.Instance.G.N(),
		Edges:  entry.Doc.Instance.G.M(),
		Scheme: entry.Doc.SchemeName,
		Proof:  len(entry.Doc.Proof) > 0,
	}
}

func (s *Server) handleListInstances(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]instanceInfo, 0, len(s.instances))
	for _, entry := range s.instances {
		out = append(out, s.info(entry))
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleDeleteInstance(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	entry := s.instances[id]
	delete(s.instances, id)
	if entry != nil {
		s.lru.Remove(entry.elem)
	}
	_, wasEvicted := s.evicted[id]
	s.mu.Unlock()
	if entry == nil {
		if wasEvicted {
			writeJSON(w, http.StatusNotFound, errorResponse{
				Error: fmt.Sprintf("instance %q was already evicted", id),
				Code:  "evicted",
			})
			return
		}
		writeError(w, http.StatusNotFound, "unknown instance %q", id)
		return
	}
	// Checks already in flight finish on the engine they resolved; the
	// engine and its caches are garbage collected once they drain. The
	// dist-tcp checkers hold fleet registrations, so those are closed
	// explicitly — off the response path, since close waits for any
	// in-flight remote check to drain.
	go entry.closeDist()
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

func (s *Server) handleProve(w http.ResponseWriter, r *http.Request) {
	var req checkRequest
	if !decodeJSON(w, r, &req) || !rejectFields(w, &req, "/prove") {
		return
	}
	entry, scheme, err := s.resolve(&req)
	if err != nil {
		writeResolveError(w, err)
		return
	}
	proof, err := scheme.Prove(entry.Doc.Instance)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "prove: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"scheme":        scheme.Name(),
		"proof":         formatProof(proof),
		"bits_per_node": proof.Size(),
	})
}

func toResponse(nodes int, p core.Proof, rep *lcp.Report) checkResponse {
	return checkResponse{
		Accepted:  rep.Accepted(),
		Nodes:     nodes,
		ProofBits: p.Size(),
		Rejectors: rep.Rejectors(),
		Backend:   rep.Backend,
	}
}

// checkCall is one check request resolved down to the checker that
// runs it.
type checkCall struct {
	req   checkRequest
	entry *instanceEntry
	cfg   config.Config
	chk   lcp.Checker
}

// prepareCheck is the preamble every check endpoint shares: decode the
// body, reject the fields the endpoint would ignore, resolve the
// instance and scheme, resolve the request's configuration, and build
// its checker. On failure it writes the error response and returns
// nil; otherwise the caller must call done when the request ends.
func (s *Server) prepareCheck(w http.ResponseWriter, r *http.Request, endpoint string) *checkCall {
	c := &checkCall{}
	if !decodeJSON(w, r, &c.req) || !rejectFields(w, &c.req, endpoint) {
		return nil
	}
	entry, scheme, err := s.resolve(&c.req)
	if err != nil {
		writeResolveError(w, err)
		return nil
	}
	cfg, err := s.requestConfig(&c.req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil
	}
	// A server whose default backend is distributed still streams on
	// the engine: streaming exists for early verdicts, which only the
	// shared-memory backends can deliver (rejectFields guards the
	// explicit request-level override the same way).
	if b := cfg.ResolvedBackend(); endpoint == "/check/stream" && b != config.BackendCore && b != config.BackendEngine {
		cfg.Backend = config.BackendEngine
	}
	chk, err := s.checkerFor(entry, cfg, scheme)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil
	}
	c.entry, c.cfg, c.chk = entry, cfg, chk
	return c
}

// done releases an inline one-shot entry's checkers: nothing caches
// the entry, so a dist-tcp checker must leave the fleet when the
// request ends (a dist checker just drops its wirings).
func (c *checkCall) done() {
	if c.entry.elem == nil {
		c.entry.closeDist()
	}
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	c := s.prepareCheck(w, r, "/check")
	if c == nil {
		return
	}
	defer c.done()
	in := c.entry.Doc.Instance
	p, err := requestProof(in, c.entry.Doc, &c.req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The request context rides into the checker: a client that hangs
	// up mid-check stops the work at the backend's next cancellation
	// point (between rounds, nodes, or proofs) instead of burning
	// goroutines on an answer nobody reads.
	rep, err := c.chk.Check(r.Context(), p)
	if err != nil {
		note(w, string(c.cfg.ResolvedBackend()), "")
		writeError(w, http.StatusInternalServerError, "check: %v", err)
		return
	}
	note(w, rep.Backend, verdictWord(rep.Accepted()))
	writeJSON(w, http.StatusOK, toResponse(in.G.N(), p, rep))
}

// verdictWord renders a check's outcome for log lines.
func verdictWord(accepted bool) string {
	if accepted {
		return "accepted"
	}
	return "rejected"
}

func (s *Server) handleCheckBatch(w http.ResponseWriter, r *http.Request) {
	c := s.prepareCheck(w, r, "/check/batch")
	if c == nil {
		return
	}
	defer c.done()
	if len(c.req.Proofs) == 0 {
		writeError(w, http.StatusBadRequest, "batch request needs a \"proofs\" array")
		return
	}
	in := c.entry.Doc.Instance
	proofs := make([]core.Proof, len(c.req.Proofs))
	for i, m := range c.req.Proofs {
		p, err := parseProof(in, m)
		if err != nil {
			writeError(w, http.StatusBadRequest, "proofs[%d]: %v", i, err)
			return
		}
		proofs[i] = p
	}
	// The façade owns the batch strategy: sequential over the cached
	// views on the shared-memory backends, a bounded concurrent pool on
	// the message-passing ones (each proof draws its own wiring, so the
	// batch saturates the machine instead of flooding one proof at a
	// time). The request context cancels between proofs and between
	// communication rounds, so a client hang-up stops burning shard
	// goroutines mid-batch.
	reports, err := c.chk.CheckBatch(r.Context(), proofs)
	if err != nil {
		var be *lcp.BatchError
		if errors.As(err, &be) {
			writeError(w, http.StatusInternalServerError, "proofs[%d]: %v", be.Index, be.Err)
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	out := make([]checkResponse, len(reports))
	accepted := 0
	for i, rep := range reports {
		out[i] = toResponse(in.G.N(), proofs[i], rep)
		if rep.Accepted() {
			accepted++
		}
	}
	note(w, string(c.cfg.ResolvedBackend()), fmt.Sprintf("accepted=%d/%d", accepted, len(out)))
	writeJSON(w, http.StatusOK, map[string]any{
		"results":  out,
		"accepted": accepted,
		"checked":  len(out),
	})
}

// verdictLine is one NDJSON verdict of /check/stream; summaryLine is
// the trailing line that closes every stream.
type verdictLine struct {
	Node   int  `json:"node"`
	Accept bool `json:"accept"`
}

type summaryLine struct {
	Done         bool `json:"done"`
	Accepted     bool `json:"accepted"`
	Checked      int  `json:"checked"`
	Nodes        int  `json:"nodes"`
	StoppedEarly bool `json:"stopped_early"`
}

func (s *Server) handleCheckStream(w http.ResponseWriter, r *http.Request) {
	c := s.prepareCheck(w, r, "/check/stream")
	if c == nil {
		return
	}
	defer c.done()
	in := c.entry.Doc.Instance
	p, err := requestProof(in, c.entry.Doc, &c.req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The request context cancels the stream when the client hangs up;
	// stop_on_reject additionally cancels it on the first rejection.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stream, err := c.chk.CheckStream(ctx, p)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "stream: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	checked := 0
	accepted := true
	stopped := false
	for verdict := range stream {
		checked++
		if !verdict.Accept {
			accepted = false
		}
		_ = enc.Encode(verdictLine{Node: verdict.Node, Accept: verdict.Accept})
		if flusher != nil {
			flusher.Flush()
		}
		if !verdict.Accept && c.req.StopOnReject {
			stopped = true
			cancel()
			break
		}
	}
	// Drain: the stream's workers exit on the cancelled context.
	nodes := in.G.N()
	note(w, string(c.cfg.ResolvedBackend()), verdictWord(accepted && checked == nodes))
	_ = enc.Encode(summaryLine{
		Done:         true,
		Accepted:     accepted && checked == nodes,
		Checked:      checked,
		Nodes:        nodes,
		StoppedEarly: stopped,
	})
	if flusher != nil {
		flusher.Flush()
	}
}

func (s *Server) handleSchemes(w http.ResponseWriter, r *http.Request) {
	names := make([]string, 0, len(s.schemes))
	for name := range s.schemes {
		names = append(names, name)
	}
	sort.Strings(names)
	writeJSON(w, http.StatusOK, names)
}

// statsEntry is one endpoint's row in the GET /stats response. The
// counters are monotone since process start; the derived average is a
// convenience, the sums and buckets are what a scraper should rate().
// LatencyBucketCounts[i] counts requests whose latency fell at or under
// LatencyBucketLEMS[i] milliseconds (and over the previous bound); the
// final entry, one past the bounds, is the overflow bucket. The bounds
// are fixed per process, so two scrapes subtract cleanly into a tail-
// latency estimate — the thing a bare sum can never give.
type statsEntry struct {
	Requests            int64     `json:"requests"`
	LatencyNSTotal      int64     `json:"latency_ns_total"`
	LatencyMSAvg        float64   `json:"latency_ms_avg"`
	LatencyBucketLEMS   []float64 `json:"latency_bucket_le_ms"`
	LatencyBucketCounts []int64   `json:"latency_bucket_counts"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	// The rows derive from the same obs histograms /metrics exposes —
	// one source of truth, two renderings — converted back to this
	// endpoint's historical units (milliseconds bounds, nanosecond sum).
	endpoints := make(map[string]statsEntry, len(s.routes))
	for pattern, hist := range s.routes {
		n := int64(hist.Count())
		row := statsEntry{
			Requests:          n,
			LatencyNSTotal:    int64(hist.Sum() * float64(time.Second)),
			LatencyBucketLEMS: latencyBoundsMS,
		}
		if n > 0 {
			row.LatencyMSAvg = float64(row.LatencyNSTotal) / float64(n) / 1e6
		}
		hcounts := hist.Counts()
		counts := make([]int64, len(hcounts))
		for i, c := range hcounts {
			counts[i] = int64(c)
		}
		row.LatencyBucketCounts = counts
		endpoints[pattern] = row
	}
	s.mu.Lock()
	instances, evicted := len(s.instances), s.evictedTotal
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"endpoints":         endpoints,
		"instances":         instances,
		"instances_evicted": evicted,
		"max_instances":     s.cfg.MaxInstances,
	})
}
