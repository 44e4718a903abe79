package lcp

// The unified verification façade. The paper studies exactly one
// object — a constant-radius local verifier run on every node — but the
// library has several ways to execute it: the sequential reference
// (core.Check), the message-passing LOCAL runtime (dist), the amortized
// cached-view engine, and the multi-process worker fleet (dist-tcp).
// Checker is the one front door: NewChecker compiles functional options
// into the shared internal config.Config (the same object lcpserve
// flags and serve's HTTP request options resolve into), every backend
// answers with the same Report shape, and context cancellation behaves
// uniformly across all of them.

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lcp/internal/config"
	"lcp/internal/core"
	"lcp/internal/dist"
	"lcp/internal/engine"
	"lcp/internal/obs"
	"lcp/internal/remote"
)

// Backend names accepted by WithBackend. Each selects one execution
// path; all are property-tested verdict-identical.
const (
	// BackendCore: the sequential reference runner — one BFS view per
	// node per proof, no caching, no concurrency.
	BackendCore = string(config.BackendCore)
	// BackendDist: the message-passing LOCAL runtime — node automata,
	// grouped onto WithShards shards by WithPartitioner, flood their
	// radius-r balls round by round.
	BackendDist = string(config.BackendDist)
	// BackendEngine: the amortized engine — radius-r view skeletons
	// cached per instance, checks served by a WithWorkers-bounded pool.
	// This is the default backend.
	BackendEngine = string(config.BackendEngine)
	// BackendDistTCP: the multi-process scale-out — the instance is
	// partitioned across external lcpworker processes (WithWorkerAddrs),
	// each flooding its shard over TCP, with this process acting as the
	// fan-out coordinator. Requires WithScheme (the workers resolve the
	// scheme by name in their own registries; verifier code does not
	// travel).
	BackendDistTCP = string(config.BackendDistTCP)
)

// Checker is the unified verification interface over one instance and
// one verifier: construct it once with NewChecker, then fire proofs at
// it. Implementations are safe for concurrent use and amortize whatever
// their backend can (cached views, prewired shards) across calls.
//
// Context cancellation is uniform but backend-granular: the core and
// engine backends abort between nodes, and the message-passing
// backends between communication rounds. A verifier that panics is
// converted to an error on the message-passing backends; on the
// shared-memory backends it propagates to the caller of
// Check/CheckBatch and must be recovered around CheckStream's channel
// (internal/serve wraps untrusted verifiers accordingly).
type Checker interface {
	// Check verifies one proof on every node.
	Check(ctx context.Context, p Proof) (*Report, error)
	// CheckBatch verifies many proofs in order, one Report per proof.
	// On the distributed backends the proofs run concurrently on a
	// bounded pool. The first failure aborts the batch with a
	// *BatchError; no partial reports are returned.
	CheckBatch(ctx context.Context, proofs []Proof) ([]*Report, error)
	// CheckStream verifies one proof and streams per-node verdicts as
	// they are decided; the channel closes when every node has reported
	// or the context is cancelled. The shared-memory backends stream
	// while deciding (cancel on the first rejection to stop paying for
	// the rest of the graph); the message-passing backends complete
	// their round protocol first, then stream the verdicts.
	CheckStream(ctx context.Context, p Proof) (<-chan Verdict, error)
}

// Report is the unified result of a façade check, subsuming the legacy
// *Result (per-node outputs, accept/reject summary) and the engine's
// streamed Verdicts, plus timing and the backend that produced it.
type Report struct {
	// Backend is the execution path that produced the report.
	Backend string
	// Outputs is the per-node verdict map (the *Result surface).
	Outputs map[int]bool
	// Elapsed is the wall-clock time of the check.
	Elapsed time.Duration
	// Stages is the per-stage breakdown of Elapsed, in the order the
	// stages first ran. Which stages appear depends on the backend
	// ("core.check"; "dist.wire"/"dist.seed"/"dist.flood"/"dist.run";
	// "engine.views"/"engine.verify"). Stages recorded by concurrent
	// workers sum their wall time, so a stage's Total can exceed
	// Elapsed; Count says how many observations merged. An engine
	// CheckBatch runs one walk for all its proofs, so each of its
	// reports carries the whole batch's Elapsed and Stages.
	Stages []Stage
}

// Stage is one named phase of a check with its accumulated wall time.
type Stage struct {
	// Name identifies the phase, prefixed by the layer that ran it
	// ("core.", "dist.", "engine.").
	Name string
	// Total is the accumulated wall time of every run of the stage.
	Total time.Duration
	// Count is how many observations were merged into Total.
	Count int64
}

// Nodes is the number of nodes that decided.
func (r *Report) Nodes() int { return len(r.Outputs) }

// Accepted reports whether every node output 1.
func (r *Report) Accepted() bool { return r.Result().Accepted() }

// Rejectors returns the nodes that output 0, sorted ascending.
func (r *Report) Rejectors() []int { return r.Result().Rejectors() }

// FirstReject returns the smallest-id rejecting node; ok is false when
// the proof was accepted everywhere.
func (r *Report) FirstReject() (node int, ok bool) {
	rej := r.Rejectors()
	if len(rej) == 0 {
		return 0, false
	}
	return rej[0], true
}

// Result views the report as the legacy result type.
func (r *Report) Result() *Result { return &Result{Outputs: r.Outputs} }

// Verdicts lists the per-node verdicts in ascending node order — the
// batch form of what CheckStream emits.
func (r *Report) Verdicts() []Verdict {
	out := make([]Verdict, 0, len(r.Outputs))
	for node, accept := range r.Outputs {
		out = append(out, Verdict{Node: node, Accept: accept})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// BatchError locates the first failing proof of a CheckBatch.
type BatchError struct {
	// Index is the position of the failing proof in the batch.
	Index int
	// Err is the underlying failure.
	Err error
}

func (e *BatchError) Error() string { return fmt.Sprintf("proofs[%d]: %v", e.Index, e.Err) }

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *BatchError) Unwrap() error { return e.Err }

// checkerConfig accumulates the functional options before NewChecker
// compiles them into a checker.
type checkerConfig struct {
	cfg        config.Config
	verifier   core.Verifier
	schemeName string
	engine     *engine.Engine
	err        error
}

func (cc *checkerConfig) fail(err error) {
	if cc.err == nil {
		cc.err = err
	}
}

// CheckerOption configures NewChecker.
type CheckerOption func(*checkerConfig)

// WithBackend selects the execution path: BackendCore, BackendDist,
// BackendEngine (the default), or BackendDistTCP.
func WithBackend(name string) CheckerOption {
	return func(cc *checkerConfig) {
		b, err := config.ParseBackend(name)
		if err != nil {
			cc.fail(fmt.Errorf("lcp: %v", err))
			return
		}
		cc.cfg.Backend = b
	}
}

// WithVerifier binds the local verifier the checker runs. Exactly one
// of WithVerifier and WithScheme is required.
func WithVerifier(v Verifier) CheckerOption {
	return func(cc *checkerConfig) { cc.verifier = v }
}

// WithScheme binds the scheme's verifier and records the scheme's name.
// On the in-process backends it is shorthand for
// WithVerifier(s.Verifier()); the dist-tcp backend requires it, because
// the workers resolve the scheme by name in their own registries.
func WithScheme(s Scheme) CheckerOption {
	return func(cc *checkerConfig) {
		cc.verifier = s.Verifier()
		cc.schemeName = s.Name()
	}
}

// WithWorkerAddrs lists the lcpworker control addresses (host:port) the
// dist-tcp backend fans out to, one shard per worker. The textual
// spelling is the "worker-addrs" option key (comma-separated), the same
// knob lcpserve flags and HTTP request options resolve.
func WithWorkerAddrs(addrs ...string) CheckerOption {
	return func(cc *checkerConfig) { cc.cfg.WorkerAddrs = addrs }
}

// WithWorkers bounds the engine backends' shared-memory worker pool
// (0 = GOMAXPROCS).
func WithWorkers(n int) CheckerOption {
	return func(cc *checkerConfig) { cc.cfg.Workers = n }
}

// WithShards sets how many shard goroutines a dist-backend check runs
// (0 = GOMAXPROCS). The count is capped at the node count, so the node
// count itself gives one goroutine per node.
func WithShards(n int) CheckerOption {
	return func(cc *checkerConfig) { cc.cfg.Shards = n }
}

// WithPartitioner sets the node→shard assignment policy of the
// distributed backends, like lcpserve's -partitioner flag: the dist
// shard layout and the dist-tcp worker cut.
func WithPartitioner(p Partitioner) CheckerOption {
	return func(cc *checkerConfig) { cc.cfg.Partitioner = p }
}

// WithEngine backs the engine backend with an existing Engine instead
// of wiring a private one, so several checkers (one per scheme, say)
// share one set of cached views. The engine must serve the same
// instance the checker is built for.
func WithEngine(e *Engine) CheckerOption {
	return func(cc *checkerConfig) { cc.engine = e }
}

// checker is the façade implementation: one backend, one instance, one
// verifier, state amortized per backend (cached engine, prewired
// message-passing network).
type checker struct {
	in         *core.Instance
	v          core.Verifier
	cfg        config.Config
	schemeName string         // dist-tcp backend: resolved on the workers
	eng        *engine.Engine // engine backend

	mu    sync.Mutex
	net   *dist.Network       // dist backend, wired lazily on first check
	coord *remote.Coordinator // dist-tcp backend, dialed and registered lazily
}

// checkerSeq distinguishes concurrently-registered instances of this
// process on a shared worker fleet.
var checkerSeq atomic.Uint64

// NewChecker compiles the options into a Checker for the instance. The
// verifier is required (WithScheme or WithVerifier); everything else
// defaults: engine backend, GOMAXPROCS workers, GOMAXPROCS dist shards,
// contiguous partitioner.
func NewChecker(in *Instance, opts ...CheckerOption) (Checker, error) {
	if in == nil || in.G == nil {
		return nil, fmt.Errorf("lcp: nil instance")
	}
	cc := &checkerConfig{}
	for _, opt := range opts {
		opt(cc)
	}
	if cc.err != nil {
		return nil, cc.err
	}
	if cc.verifier == nil {
		return nil, fmt.Errorf("lcp: checker needs a verifier: pass WithScheme or WithVerifier")
	}
	c := &checker{in: in, v: cc.verifier, cfg: cc.cfg, schemeName: cc.schemeName}
	if cc.engine != nil && c.backend() != config.BackendEngine {
		return nil, fmt.Errorf("lcp: WithEngine requires the engine backend, not %q", c.backend())
	}
	switch c.backend() {
	case config.BackendDistTCP:
		if len(c.cfg.WorkerAddrs) == 0 {
			return nil, fmt.Errorf("lcp: %v", c.cfg.Validate())
		}
		if c.schemeName == "" {
			return nil, fmt.Errorf("lcp: backend %q needs WithScheme (workers resolve the scheme by name; a bare WithVerifier cannot travel)", c.backend())
		}
	case config.BackendEngine:
		if cc.engine != nil {
			if cc.engine.Instance() != in {
				return nil, fmt.Errorf("lcp: WithEngine: the engine serves a different instance")
			}
			c.eng = cc.engine
		} else {
			c.eng = engine.New(in, c.cfg.EngineOptions())
		}
	}
	return c, nil
}

func (c *checker) backend() config.Backend { return c.cfg.ResolvedBackend() }

// network wires the dist backend's reusable message-passing network on
// first use; construction is the expensive part of a run, so it is paid
// once per checker, not once per proof.
func (c *checker) network() (*dist.Network, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.net == nil {
		nw, err := dist.NewNetwork(c.in, c.cfg.DistOptions())
		if err != nil {
			return nil, err
		}
		c.net = nw
	}
	return c.net, nil
}

// coordinator dials the worker fleet and registers the instance on
// first use — the expensive part of the dist-tcp path (halo cutting,
// instance shipping, the data mesh), paid once per checker, not once
// per proof. It is also the only recovery path: a failed check drops
// the coordinator, and the next check dials and registers afresh.
func (c *checker) coordinator(ctx context.Context) (*remote.Coordinator, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.coord != nil {
		return c.coord, nil
	}
	id := fmt.Sprintf("lcp-%d-%d", os.Getpid(), checkerSeq.Add(1))
	coord, err := remote.DialCoordinator(ctx, id, c.cfg.WorkerAddrs, remote.Options{Partitioner: c.cfg.Partitioner})
	if err != nil {
		return nil, err
	}
	if err := coord.Register(ctx, c.in, c.schemeName); err != nil {
		return nil, err // a failed Register has closed the coordinator
	}
	c.coord = coord
	return coord, nil
}

// close drops the dist backend's wirings and tells a dist-tcp worker
// fleet to forget the instance. Used by CloseChecker; long-lived
// in-process checkers can simply be garbage collected.
func (c *checker) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.net != nil {
		c.net.Close()
		c.net = nil
	}
	if c.coord != nil {
		_ = c.coord.Close() // closing the control connections is the deregistration
		c.coord = nil
	}
}

// CloseChecker releases a checker's amortized state eagerly: the dist
// backend's node wirings, and — on the dist-tcp backend — the worker
// fleet's registration and control connections. Safe on every Checker
// this package constructs and on every backend; a checker that holds no
// such state is a no-op. The checker must not be used afterwards.
func CloseChecker(c Checker) {
	if impl, ok := c.(*checker); ok {
		impl.close()
	}
}

func (c *checker) report(res *core.Result, start time.Time) *Report {
	return &Report{
		Backend: string(c.backend()),
		Outputs: res.Outputs,
		Elapsed: time.Since(start),
	}
}

func (c *checker) Check(ctx context.Context, p Proof) (*Report, error) {
	start := time.Now()
	// Every check gets its own timeline (shadowing any outer one), so the
	// reports of a batch carry per-proof breakdowns, not a shared blur.
	tl := obs.NewTimeline()
	ctx = obs.ContextWithTimeline(ctx, tl)
	var res *core.Result
	var err error
	switch c.backend() {
	case config.BackendCore:
		stop := tl.Start("core.check")
		res, err = core.CheckCtx(ctx, c.in, p, c.v)
		stop()
	case config.BackendDist:
		var nw *dist.Network
		stop := tl.Start("dist.wire")
		nw, err = c.network()
		stop()
		if err == nil {
			res, err = nw.CheckCtx(ctx, p, c.v)
		}
	case config.BackendEngine:
		res, err = c.eng.CheckProofCtx(ctx, p, c.v)
	case config.BackendDistTCP:
		var coord *remote.Coordinator
		coord, err = c.coordinator(ctx)
		if err == nil {
			if res, _, err = coord.Check(ctx, p); err != nil {
				// The failure closed the coordinator; forget it, unless a
				// concurrent check already replaced it.
				c.mu.Lock()
				if c.coord == coord {
					c.coord = nil
				}
				c.mu.Unlock()
			}
		}
	default:
		err = fmt.Errorf("lcp: unknown backend %q", c.backend())
	}
	c.record(tl, res, err)
	if err != nil {
		return nil, err
	}
	rep := c.report(res, start)
	for _, st := range tl.Snapshot() {
		rep.Stages = append(rep.Stages, Stage{Name: st.Name, Total: st.Total, Count: st.Count})
	}
	return rep, nil
}

// record publishes one check's outcome and stage times to the process
// metrics, labelled by backend — the scrapeable aggregate of what the
// per-check Report.Stages break down individually.
func (c *checker) record(tl *obs.Timeline, res *core.Result, err error) {
	c.recordOutcome(res, err)
	c.recordStages(tl)
}

// recordOutcome publishes one check's (or one batch column's) verdict
// to lcp_checker_checks_total.
func (c *checker) recordOutcome(res *core.Result, err error) {
	outcome := "accepted"
	switch {
	case err != nil:
		outcome = "error"
	case !res.Accepted():
		outcome = "rejected"
	}
	obs.Default().Counter("lcp_checker_checks_total",
		"Façade checks by backend and outcome.",
		obs.Label{Name: "backend", Value: string(c.backend())},
		obs.Label{Name: "outcome", Value: outcome}).Inc()
}

// recordStages publishes a timeline's stage times to
// lcp_checker_stage_seconds_total. A column-wise batch records its
// shared timeline once, not once per column.
func (c *checker) recordStages(tl *obs.Timeline) {
	backend := obs.Label{Name: "backend", Value: string(c.backend())}
	for _, st := range tl.Snapshot() {
		obs.Default().Counter("lcp_checker_stage_seconds_total",
			"Accumulated stage wall time of façade checks, by backend and stage.",
			backend, obs.Label{Name: "stage", Value: st.Name}).Add(st.Total.Seconds())
	}
}

func (c *checker) CheckBatch(ctx context.Context, proofs []Proof) ([]*Report, error) {
	switch c.backend() {
	case config.BackendDist:
		// The round protocol leaves cores idle per proof; the network
		// hands every concurrent caller its own wiring, so a batch
		// saturates the machine on a bounded pool instead of flooding
		// one proof at a time.
		return c.checkBatchConcurrent(ctx, proofs)
	case config.BackendEngine:
		return c.checkBatchWalk(ctx, proofs)
	}
	reports := make([]*Report, 0, len(proofs))
	for i, p := range proofs {
		rep, err := c.Check(ctx, p)
		if err != nil {
			return nil, &BatchError{Index: i, Err: err}
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// checkBatchWalk serves the batch through the engine's column walk:
// one walk over the cached skeletons feeds every proof, so the batch
// shares a single timeline and wall clock — each Report carries the
// batch's Elapsed and Stages, not a per-proof slice of them. The walk
// fails (or is cancelled) as a unit: no column has a complete verdict
// until it finishes, so the BatchError of a failed batch points at
// index 0, the first proof without a report.
func (c *checker) checkBatchWalk(ctx context.Context, proofs []Proof) ([]*Report, error) {
	start := time.Now()
	tl := obs.NewTimeline()
	ctx = obs.ContextWithTimeline(ctx, tl)
	results, err := c.eng.CheckBatchCtx(ctx, proofs, c.v)
	c.recordStages(tl)
	if err != nil {
		c.recordOutcome(nil, err)
		return nil, &BatchError{Index: 0, Err: err}
	}
	elapsed := time.Since(start)
	stages := make([]Stage, 0, 4)
	for _, st := range tl.Snapshot() {
		stages = append(stages, Stage{Name: st.Name, Total: st.Total, Count: st.Count})
	}
	reports := make([]*Report, len(results))
	for i, res := range results {
		c.recordOutcome(res, nil)
		reports[i] = &Report{
			Backend: string(c.backend()),
			Outputs: res.Outputs,
			Elapsed: elapsed,
			Stages:  stages,
		}
	}
	return reports, nil
}

// checkBatchConcurrent fans a batch out over a GOMAXPROCS-bounded
// worker pool. After the first error, idle workers stop picking up
// proofs; in-flight ones finish, and the smallest failing index wins.
func (c *checker) checkBatchConcurrent(ctx context.Context, proofs []Proof) ([]*Report, error) {
	reports := make([]*Report, len(proofs))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		errIdx   = -1
		batchErr error
		next     atomic.Int64
	)
	workers := runtime.GOMAXPROCS(0)
	if workers > len(proofs) {
		workers = len(proofs)
	}
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(proofs) {
					return
				}
				mu.Lock()
				failed := errIdx != -1
				mu.Unlock()
				if failed {
					return
				}
				rep, err := c.Check(ctx, proofs[i])
				if err != nil {
					mu.Lock()
					if errIdx == -1 || i < errIdx {
						errIdx, batchErr = i, err
					}
					mu.Unlock()
					return
				}
				reports[i] = rep
			}
		}()
	}
	wg.Wait()
	if batchErr != nil {
		return nil, &BatchError{Index: errIdx, Err: batchErr}
	}
	return reports, nil
}

func (c *checker) CheckStream(ctx context.Context, p Proof) (<-chan Verdict, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch c.backend() {
	case config.BackendEngine:
		return c.eng.CheckStream(ctx, p, c.v), nil
	case config.BackendCore:
		out := make(chan Verdict)
		go func() {
			defer close(out)
			radius := c.v.Radius()
			for _, node := range c.in.G.Nodes() {
				if ctx.Err() != nil {
					return
				}
				verdict := Verdict{Node: node, Accept: c.v.Verify(core.BuildView(c.in, p, node, radius))}
				select {
				case out <- verdict:
				case <-ctx.Done():
					return
				}
			}
		}()
		return out, nil
	default:
		// Message-passing backends: verdicts only exist once the round
		// protocol completes, so run it (cancellable between rounds) and
		// stream the result.
		rep, err := c.Check(ctx, p)
		if err != nil {
			return nil, err
		}
		out := make(chan Verdict)
		go func() {
			defer close(out)
			for _, v := range rep.Verdicts() {
				select {
				case out <- v:
				case <-ctx.Done():
					return
				}
			}
		}()
		return out, nil
	}
}
