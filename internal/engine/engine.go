package engine

import (
	"context"
	"runtime"
	"slices"
	"sync"

	"lcp/internal/core"
	"lcp/internal/graph"
	"lcp/internal/obs"
	"lcp/internal/partition"
)

// Options configures an Engine. The zero value serves with GOMAXPROCS
// workers.
type Options struct {
	// Workers bounds the worker pool of the check paths (CheckProof,
	// CheckBatch, CheckStream) and of skeleton construction. 0 means
	// GOMAXPROCS.
	Workers int
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Verdict is one node's decision, as streamed by CheckStream.
type Verdict struct {
	Node   int
	Accept bool
}

// Engine is a long-lived verification service for a single instance.
// It is safe for concurrent use; the first check at a given radius
// builds that radius's caches, later checks reuse them.
type Engine struct {
	in  *core.Instance
	opt Options

	// Caches are per radius, each behind its own build guard so a cold
	// build at one radius never blocks warm checks at another (or a
	// second caller at the same radius from doubling the work).
	mu    sync.Mutex
	views map[int]*viewCache // radius -> proof-free skeletons, aligned with in.G.Nodes()

	// flats recycles the dense proof tables of the cached-view paths:
	// one table per in-flight check, loaded in O(n) from the map-backed
	// proof and then shared read-only by every node's view. Pooling them
	// keeps the per-check allocation at one Load instead of one table.
	flats sync.Pool // *core.FlatProof aligned with in.G

	// columns recycles the node-major batch tables of the column-wise
	// path (CheckBatchColumns), one table per in-flight batch.
	columns sync.Pool // *core.ProofColumns aligned with in.G
}

type viewCache struct {
	once  sync.Once
	views []*core.View

	// balls is the per-node ball membership as sorted graph indices,
	// derived lazily from the skeletons' distance maps for the
	// column-wise batch path (it compares proof columns over exactly
	// the entries a verifier can observe). Built once per radius.
	ballsOnce sync.Once
	balls     [][]int32
}

// ballIndexes returns, for each node index, the graph indices of its
// radius-r ball members in ascending order. Must be called after the
// cache's views are built. Membership is re-walked with the pooled
// ball scratch (one reused id buffer, no per-node map iteration); the
// result is identical to the skeletons' distance maps because both
// come from the same BFS.
func (c *viewCache) ballIndexes(g *graph.Graph) [][]int32 {
	c.ballsOnce.Do(func() {
		balls := make([][]int32, len(c.views))
		var ids []int
		for i, w := range c.views {
			ids = g.AppendBallIDs(ids[:0], w.Center, w.Radius)
			bi := make([]int32, len(ids))
			for j, v := range ids {
				bi[j] = int32(g.Index(v))
			}
			slices.Sort(bi)
			balls[i] = bi
		}
		c.balls = balls
	})
	return c.balls
}

// New builds an engine for the instance. The instance (graph, labels,
// weights, globals) must not be mutated while the engine serves; if it
// is, call Invalidate to drop the stale caches.
func New(in *core.Instance, opt Options) *Engine {
	if in == nil || in.G == nil {
		panic("engine: nil instance")
	}
	return &Engine{
		in:    in,
		opt:   opt,
		views: make(map[int]*viewCache),
	}
}

// Instance returns the instance the engine serves.
func (e *Engine) Instance() *core.Instance { return e.in }

// Invalidate drops every cached view skeleton. Checks already in
// flight keep using the caches they resolved; new checks rebuild.
func (e *Engine) Invalidate() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.views = make(map[int]*viewCache)
}

// InvalidateRadius drops the caches of a single radius, leaving other
// radii warm.
func (e *Engine) InvalidateRadius(radius int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.views, radius)
}

// viewsFor returns the per-node skeletons for the radius, building and
// caching them on first use. Skeletons are core.Views with a nil Proof;
// checks shallow-copy them and attach the check's flat proof table, so
// the maps inside are shared read-only across all concurrent checks and
// no per-ball proof restriction is ever materialized.
//
// tl, when non-nil, receives the time spent in this call as the
// "engine.views" stage — near zero on a warm cache, the whole skeleton
// build on a miss (or the wait for a concurrent builder).
func (e *Engine) viewsFor(radius int, tl *obs.Timeline) []*core.View {
	return e.cacheFor(radius, tl).views
}

// cacheFor is viewsFor returning the whole per-radius cache, for paths
// that also need the derived ball-index lists (CheckBatchColumns).
func (e *Engine) cacheFor(radius int, tl *obs.Timeline) *viewCache {
	e.mu.Lock()
	c, ok := e.views[radius]
	if !ok {
		c = &viewCache{}
		e.views[radius] = c
	}
	e.mu.Unlock()
	stop := tl.Start("engine.views")
	built := false
	c.once.Do(func() {
		built = true
		nodes := e.in.G.Nodes()
		vs := make([]*core.View, len(nodes))
		forEachRange(len(nodes), e.opt.workers(), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				w := core.BuildView(e.in, nil, nodes[i], radius)
				w.Proof = nil
				vs[i] = w
			}
		})
		c.views = vs
		engineSkeletons.Add(float64(len(nodes)))
	})
	stop()
	if built {
		engineViewMisses.Inc()
	} else {
		engineViewHits.Inc()
	}
	return c
}

// flatFor draws a pooled dense proof table and loads the proof into it.
// The table is owned by one check; return it with releaseFlat once every
// view that references it has been verified.
func (e *Engine) flatFor(p core.Proof) *core.FlatProof {
	//lint:ignore poolput ownership transfer: the check that called flatFor returns the table via releaseFlat once its views are verified
	fp, ok := e.flats.Get().(*core.FlatProof)
	if !ok {
		fp = core.NewFlatProof(e.in.G)
	}
	fp.Load(p)
	return fp
}

func (e *Engine) releaseFlat(fp *core.FlatProof) { e.flats.Put(fp) }

// verifyOnSkeleton runs the verifier on a cached skeleton against the
// check's shared flat proof table. The skeleton is shallow-copied; no
// per-ball proof map is built — View.ProofOf restricts the table to the
// ball through the skeleton's distance map.
func verifyOnSkeleton(skel *core.View, fp *core.FlatProof, v core.Verifier) bool {
	w := *skel
	w.Flat = fp
	return v.Verify(&w)
}

// CheckProof verifies one proof on the cached views, sharding the node
// set across the worker pool. Verdict-for-verdict identical to
// core.Check(in, p, v), at a fraction of the per-proof cost once the
// radius is warm.
func (e *Engine) CheckProof(p core.Proof, v core.Verifier) *core.Result {
	return e.checkProof(nil, p, v)
}

// CheckProofCtx is CheckProof with the context conventions of the other
// Ctx entry points: a context already done fails fast with ctx.Err()
// (a single proof remains the unit of work — once started, the check
// runs to completion), and a context-carried obs.Timeline receives the
// per-stage breakdown ("engine.views", "engine.verify").
func (e *Engine) CheckProofCtx(ctx context.Context, p core.Proof, v core.Verifier) (*core.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.checkProof(obs.TimelineFrom(ctx), p, v), nil
}

func (e *Engine) checkProof(tl *obs.Timeline, p core.Proof, v core.Verifier) *core.Result {
	views := e.viewsFor(v.Radius(), tl)
	nodes := e.in.G.Nodes()
	outs := make([]bool, len(nodes))
	fp := e.flatFor(p)
	defer e.releaseFlat(fp)
	stop := tl.Start("engine.verify")
	forEachRange(len(nodes), e.opt.workers(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			outs[i] = verifyOnSkeleton(views[i], fp, v)
		}
	})
	stop()
	res := &core.Result{Outputs: make(map[int]bool, len(nodes))}
	for i, id := range nodes {
		res.Outputs[id] = outs[i]
	}
	return res
}

// CheckBatch verifies many proofs against the same cached views,
// returning one result per proof in order.
func (e *Engine) CheckBatch(proofs []core.Proof, v core.Verifier) []*core.Result {
	//lint:ignore ctxflow ctx-less CheckBatch is the documented uncancellable entry point; CheckBatchCtx is the threaded variant
	out, _ := e.CheckBatchCtx(context.Background(), proofs, v)
	return out
}

// CheckBatchCtx is CheckBatch with context cancellation: the batch
// aborts between proofs once the context is done, returning the results
// completed so far together with ctx.Err(). A single proof is the unit
// of work — an individual CheckProof runs to completion — so a cancelled
// HTTP request stops costing at the next proof boundary instead of
// after the whole batch.
func (e *Engine) CheckBatchCtx(ctx context.Context, proofs []core.Proof, v core.Verifier) ([]*core.Result, error) {
	tl := obs.TimelineFrom(ctx)
	if len(proofs) > 0 {
		e.viewsFor(v.Radius(), tl) // warm once, outside the per-proof loop
	}
	out := make([]*core.Result, 0, len(proofs))
	for _, p := range proofs {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		out = append(out, e.checkProof(tl, p, v))
	}
	return out, nil
}

// CheckStream verifies the proof and streams each node's verdict as it
// is decided. The channel closes when every node has reported or the
// context is cancelled — cancel on the first rejected Verdict to stop
// paying for the rest of the graph. Verdict order is whatever the
// worker pool produces; the Node field identifies the decider.
//
// Unlike CheckProof, stream workers cannot re-raise a verifier panic on
// the consumer's goroutine; an untrusted verifier should be wrapped in
// its own recover before streaming (internal/serve does this).
func (e *Engine) CheckStream(ctx context.Context, p core.Proof, v core.Verifier) <-chan Verdict {
	out := make(chan Verdict)
	go func() {
		defer close(out)
		views := e.viewsFor(v.Radius(), obs.TimelineFrom(ctx))
		nodes := e.in.G.Nodes()
		fp := e.flatFor(p)
		defer e.releaseFlat(fp)
		var wg sync.WaitGroup
		for _, r := range partition.SplitRanges(len(nodes), e.opt.workers()) {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					if ctx.Err() != nil {
						return
					}
					verdict := Verdict{Node: nodes[i], Accept: verifyOnSkeleton(views[i], fp, v)}
					select {
					case out <- verdict:
					case <-ctx.Done():
						return
					}
				}
			}(r[0], r[1])
		}
		wg.Wait()
	}()
	return out
}

// CheckFirstReject streams internally and returns the first rejecting
// node, cancelling the remaining work as soon as it is found. ok
// reports whether a rejection exists; on fully accepting proofs it is
// false and the whole graph was checked.
func (e *Engine) CheckFirstReject(ctx context.Context, p core.Proof, v core.Verifier) (node int, ok bool) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	for verdict := range e.CheckStream(ctx, p, v) {
		if !verdict.Accept {
			return verdict.Node, true
		}
	}
	return 0, false
}

// forEachRange runs fn over the range partition on one goroutine per
// part and waits for all of them. A panic inside a worker (a panicking
// verifier, say) is re-raised on the caller's goroutine after the join,
// mirroring what a sequential core.Check would do — so callers (and
// net/http handlers above them) can recover it instead of the process
// dying in a bare goroutine.
func forEachRange(n, parts int, fn func(lo, hi int)) {
	ranges := partition.SplitRanges(n, parts)
	if len(ranges) == 1 {
		fn(ranges[0][0], ranges[0][1])
		return
	}
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicked any
	for _, r := range ranges {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicOnce.Do(func() { panicked = p })
				}
			}()
			fn(lo, hi)
		}(r[0], r[1])
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
