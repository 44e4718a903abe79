package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"time"

	"lcp"
	"lcp/internal/config"
	"lcp/internal/core"
	"lcp/internal/obs"
	"lcp/internal/serve"
	"lcp/internal/textio"
)

const (
	// batchK is the proofs per /check/batch request: past the façade's
	// auto threshold, so the engine's column path engages.
	batchK = 16
	// tampered is how many one-bit-flipped proofs join the honest one.
	tampered = 8
	// opTimeout bounds one operation, so that a wedged server or fleet
	// is a counted failure instead of a stalled run.
	opTimeout = 20 * time.Second
)

// serveRun is the serve phase's state.
type serveRun struct {
	*run
	in          *core.Instance
	doc         []byte // textio document: instance, scheme, honest proof
	cases       []proofCase
	frags       [][]byte // each case's proof as a JSON object
	batches     [][]int  // case indices of each /check/batch request
	client      *http.Client
	ts          *httptest.Server
	id          string   // the registered instance
	checkBodies [][]byte // per case, addressed to id
	batchBodies [][]byte // per batch, addressed to id
}

// The serve phase measures each kind of operation in a closed loop of
// its own, as cmd/lcpload measures each endpoint for a window of its
// own: a /check never waits behind a /check/batch, so each latency is
// its own kind's, and no assumed mix of kinds weighs the metrics. These
// are the loops' shares of the phase's time; the write loop's is the
// smallest, as writes are the rare operation. The loops take turns
// serveRounds times, so that a burst of load from outside the benchmark
// lasting a few seconds falls on a part of every metric's samples, not
// on all of one metric's.
const (
	checkShare  = 0.35
	batchShare  = 0.45
	writeShare  = 0.20
	serveRounds = 4
)

// serveSamples are one pass over the serve loops: latencies in
// milliseconds, ascending, and the summed wall time of the read loops.
type serveSamples struct {
	check, batch, register []float64
	honest, tampered       []float64 // check, split by the proof sent
	checkSecs, batchSecs   float64
}

func servePhase(r *run, rng *rand.Rand, window time.Duration) (float64, error) {
	s, err := newServeRun(r, rng)
	if err != nil {
		return 0, err
	}
	defer s.client.CloseIdleConnections()
	sp := &speedLog{}
	sp.probe()
	setups := make([]float64, setupReps)
	for i := range setups {
		if s.ts != nil {
			s.ts.Close()
		}
		t0 := time.Now()
		err := s.setup()
		setups[i] = time.Since(t0).Seconds()
		if err != nil {
			s.ts.Close()
			return 0, fmt.Errorf("set-up: %w", err)
		}
	}
	defer s.ts.Close()
	sp.probe()
	s.checkBodies, s.batchBodies = s.bodies(s.id)
	loopSeed := rng.Int63()
	if !r.traced() {
		s.report(sp, s.loops(sp, loopSeed, window, nil))
		sp.log("serve")
		return median(setups) * sp.factor(), nil
	}
	hits, misses := engineCacheCounters()
	h0, m0 := hits.Value(), misses.Value()
	plain := s.loops(sp, loopSeed, window/2, nil)
	traced := s.loops(sp, loopSeed, window/2, r.tr)
	dh, dm := hits.Value()-h0, misses.Value()-m0
	r.put("engine.cache_hit_frac", "ratio", dh/(dh+dm))
	r.put("trace.overhead_ratio.serve", "ratio", percentile(traced.check, 0.5)/percentile(plain.check, 0.5))
	return median(setups), s.layers()
}

// engineCacheCounters finds the engine's view-cache counters in the
// process-wide registry; registration is get-or-create, so these are
// the engine's own.
func engineCacheCounters() (hits, misses *obs.Counter) {
	return obs.Default().Counter("lcp_engine_cache_hits_total", ""),
		obs.Default().Counter("lcp_engine_cache_misses_total", "")
}

func newServeRun(r *run, rng *rand.Rand) (*serveRun, error) {
	in := r.fam.serve(rng.Int63())
	scheme := r.fam.scheme
	honest, err := scheme.Prove(in)
	if err != nil {
		return nil, fmt.Errorf("prove: %w", err)
	}
	cases, err := oracle(in, scheme.Verifier(), honest, tampered, rng)
	if err != nil {
		return nil, err
	}
	var doc bytes.Buffer
	if err := textio.Write(&doc, &textio.Document{Instance: in, SchemeName: scheme.Name(), Proof: honest}); err != nil {
		return nil, err
	}
	s := &serveRun{
		run: r, in: in, doc: doc.Bytes(), cases: cases,
		client: &http.Client{Timeout: opTimeout},
	}
	for _, c := range cases {
		m := make(map[string]string, len(c.proof))
		for id, bits := range c.proof {
			m[strconv.Itoa(id)] = bits.String()
		}
		frag, err := json.Marshal(m)
		if err != nil {
			return nil, err
		}
		s.frags = append(s.frags, frag)
	}
	s.batches = make([][]int, 8)
	for i := range s.batches {
		s.batches[i] = make([]int, batchK)
		for j := range s.batches[i] {
			s.batches[i][j] = pick(rng, cases)
		}
	}
	return s, nil
}

// setup starts a server, registers the instance and sends its first,
// cold check: the time until the service answers warm checks.
func (s *serveRun) setup() error {
	s.ts = httptest.NewServer(serve.New(lcp.BuiltinSchemes(), config.Config{}))
	id, err := s.register("")
	if err != nil {
		return err
	}
	s.id = id
	err = s.check(s.checkBody(id, 0), 0, "")
	s.tally.record(err)
	return err
}

func (s *serveRun) checkBody(id string, c int) []byte {
	return fmt.Appendf(nil, `{"instance":%q,"proof":%s}`, id, s.frags[c])
}

func (s *serveRun) bodies(id string) (checks, batches [][]byte) {
	for c := range s.cases {
		checks = append(checks, s.checkBody(id, c))
	}
	for _, b := range s.batches {
		var buf bytes.Buffer
		fmt.Fprintf(&buf, `{"instance":%q,"proofs":[`, id)
		for j, c := range b {
			if j > 0 {
				buf.WriteByte(',')
			}
			buf.Write(s.frags[c])
		}
		buf.WriteString("]}")
		batches = append(batches, buf.Bytes())
	}
	return checks, batches
}

func (s *serveRun) batchProofs(b int) []core.Proof {
	proofs := make([]core.Proof, len(s.batches[b]))
	for j, c := range s.batches[b] {
		proofs[j] = s.cases[c].proof
	}
	return proofs
}

// do sends one request and decodes a 2xx JSON answer into out.
func (s *serveRun) do(method, path, ctype string, body []byte, trace string, out any) error {
	req, err := http.NewRequest(method, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if trace != "" {
		req.Header.Set(obs.TraceHeader, trace)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// verdictJSON is the verdict part of a /check answer.
type verdictJSON struct {
	Accepted  bool  `json:"accepted"`
	Rejectors []int `json:"rejectors"`
}

func (s *serveRun) register(trace string) (string, error) {
	var info struct {
		ID string `json:"id"`
	}
	err := s.do(http.MethodPost, "/instances", "text/plain", s.doc, trace, &info)
	return info.ID, err
}

func (s *serveRun) check(body []byte, c int, trace string) error {
	var v verdictJSON
	if err := s.do(http.MethodPost, "/check", "application/json", body, trace, &v); err != nil {
		return err
	}
	return s.cases[c].verify(v.Accepted, v.Rejectors)
}

func (s *serveRun) batch(b int, trace string) error {
	var resp struct {
		Results []verdictJSON `json:"results"`
	}
	if err := s.do(http.MethodPost, "/check/batch", "application/json", s.batchBodies[b], trace, &resp); err != nil {
		return err
	}
	return s.verifyBatch(b, resp.Results)
}

func (s *serveRun) verifyBatch(b int, got []verdictJSON) error {
	if len(got) != len(s.batches[b]) {
		return fmt.Errorf("%w: %d batch results, want %d", errWrongVerdict, len(got), len(s.batches[b]))
	}
	for j, c := range s.batches[b] {
		if err := s.cases[c].verify(got[j].Accepted, got[j].Rejectors); err != nil {
			return fmt.Errorf("proofs[%d]: %w", j, err)
		}
	}
	return nil
}

// registerCycle is the write path: register the document, send its
// first (cold) check, then delete it. It returns the time of the first
// two steps.
func (s *serveRun) registerCycle(trace string) (float64, error) {
	t0 := time.Now()
	id, err := s.register(trace)
	if err != nil {
		return 0, err
	}
	err = s.check(s.checkBody(id, 0), 0, trace)
	ms := msSince(t0)
	if derr := s.do(http.MethodDelete, "/instances/"+id, "", nil, trace, nil); err == nil {
		err = derr
	}
	return ms, err
}

// loops runs the serve loops in turn, serveRounds times over within
// the window, each from one client: /check, /check/batch, and the write
// loop, which registers, cold-checks and deletes. A non-nil tr records a
// span per operation and sends its trace id to the server.
func (s *serveRun) loops(sp *speedLog, seed int64, window time.Duration, tr *tracer) serveSamples {
	var sm serveSamples
	slice := func(share float64) time.Duration { return time.Duration(share * float64(window) / serveRounds) }
	seeds := rand.New(rand.NewSource(seed))
	for range serveRounds {
		lat, secs := closedLoop(sp, seeds.Int63(), slice(checkShare), func(rng *rand.Rand) (float64, bool) {
			c := pick(rng, s.cases)
			ms, ok := s.op(tr, "serve.client.check", func(trace string) (float64, error) { return s.timedCheck(c, trace) })
			if ok && c == 0 {
				sm.honest = append(sm.honest, ms)
			} else if ok {
				sm.tampered = append(sm.tampered, ms)
			}
			return ms, ok
		})
		sm.check, sm.checkSecs = append(sm.check, lat...), sm.checkSecs+secs
		lat, secs = closedLoop(sp, seeds.Int63(), slice(batchShare), func(rng *rand.Rand) (float64, bool) {
			b := rng.Intn(len(s.batches))
			return s.op(tr, "serve.client.batch", func(trace string) (float64, error) {
				t0 := time.Now()
				err := s.batch(b, trace)
				return msSince(t0), err
			})
		})
		sm.batch, sm.batchSecs = append(sm.batch, lat...), sm.batchSecs+secs
		lat, _ = closedLoop(sp, seeds.Int63(), slice(writeShare), func(*rand.Rand) (float64, bool) {
			return s.op(tr, "serve.client.register", s.registerCycle)
		})
		sm.register = append(sm.register, lat...)
	}
	for _, xs := range [][]float64{sm.check, sm.batch, sm.register, sm.honest, sm.tampered} {
		sort.Float64s(xs)
	}
	return sm
}

// op runs one client operation under a span, counts its outcome, and
// returns its latency and whether it succeeded. fn gets the trace id to
// send, empty when the loop is untraced.
func (s *serveRun) op(tr *tracer, name string, fn func(trace string) (float64, error)) (float64, bool) {
	trace := ""
	if tr != nil {
		trace = obs.NewTraceID()
	}
	_, end := tr.start(trace, 0, name)
	ms, err := fn(trace)
	end()
	s.tally.record(err)
	return ms, err == nil
}

func (s *serveRun) timedCheck(c int, trace string) (float64, error) {
	t0 := time.Now()
	err := s.check(s.checkBodies[c], c, trace)
	return msSince(t0), err
}

// report puts the end-to-end metrics and prints what each kind of
// operation costs, so that the loops' time shares and the proportion of
// tampered proofs can be weighed against measurements.
func (s *serveRun) report(sp *speedLog, sm serveSamples) {
	chk := percentile(sm.check, 0.5)
	s.putAt(sp, "serve.check_p50_ms", "ms", chk)
	s.putAt(sp, "serve.check_p90_ms", "ms", percentile(sm.check, 0.90))
	s.putAt(sp, "serve.checks_per_s", "1/s", float64(len(sm.check))/sm.checkSecs)
	s.putAt(sp, "serve.batch_proofs_per_s", "1/s", float64(len(sm.batch)*batchK)/sm.batchSecs)
	s.putAt(sp, "serve.batch_p75_ms", "ms", percentile(sm.batch, 0.75))
	s.putAt(sp, "serve.register_p50_ms", "ms", percentile(sm.register, 0.5))
	logLatency("serve /check", sm.check)
	logLatency("  honest proofs", sm.honest)
	logLatency("  tampered proofs", sm.tampered)
	logLatency("serve /check/batch", sm.batch)
	logLatency("serve register+cold check", sm.register)
	fmt.Fprintf(os.Stderr, "  serve median cost in /check medians: batch of %d %.2f (%.3f per proof), write %.2f; "+
		"time shares: /check %.0f%%, batch %.0f%%, write %.0f%%\n",
		batchK, percentile(sm.batch, 0.5)/chk, percentile(sm.batch, 0.5)/chk/batchK, percentile(sm.register, 0.5)/chk,
		100*checkShare, 100*batchShare, 100*writeShare)
}
