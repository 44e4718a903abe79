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
	// Workers bounds the worker pool of the check paths
	// (CheckProofCtx, CheckBatchCtx, CheckStream) and of skeleton
	// construction. 0 means GOMAXPROCS.
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

	// columns recycles the node-major proof tables of the column walk
	// and the stream: one table per in-flight check, loaded in O(nk)
	// from the map-backed proofs and then shared read-only by every
	// node's view. Pooling them keeps the per-check allocation at one
	// Load instead of one table.
	columns sync.Pool // *core.ProofColumns aligned with in.G
}

type viewCache struct {
	once  sync.Once
	views []*core.View

	// balls is the per-node ball membership as sorted graph indices,
	// derived lazily for walks of two or more proofs (they compare
	// proof columns over exactly the entries a verifier can observe; a
	// single proof has nothing to compare). Built once per radius.
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

// cacheFor returns the per-radius cache, building its skeletons on
// first use. Skeletons are core.Views with a nil Proof; checks copy one
// into a per-worker View and attach a column of the check's proof
// table, so the maps inside are shared read-only across all concurrent
// checks and no per-ball proof restriction is ever materialized.
//
// tl, when non-nil, receives the time spent in this call as the
// "engine.views" stage — near zero on a warm cache, the whole skeleton
// build on a miss (or the wait for a concurrent builder).
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

// CheckStream verifies the proof and streams each node's verdict as it
// is decided. The channel closes when every node has reported or the
// context is cancelled — cancel on the first rejected Verdict to stop
// paying for the rest of the graph. Verdict order is whatever the
// worker pool produces; the Node field identifies the decider.
//
// Unlike CheckProofCtx, stream workers cannot re-raise a verifier
// panic on the consumer's goroutine; an untrusted verifier should be
// wrapped in its own recover before streaming (internal/serve does
// this).
func (e *Engine) CheckStream(ctx context.Context, p core.Proof, v core.Verifier) <-chan Verdict {
	out := make(chan Verdict)
	go func() {
		defer close(out)
		views := e.cacheFor(v.Radius(), obs.TimelineFrom(ctx)).views
		nodes := e.in.G.Nodes()
		pc := e.columnsFor([]core.Proof{p})
		defer e.releaseColumns(pc)
		col := pc.Column(0)
		var wg sync.WaitGroup
		for _, r := range partition.SplitRanges(len(nodes), e.opt.workers()) {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				var w core.View
				for i := lo; i < hi; i++ {
					if ctx.Err() != nil {
						return
					}
					w = *views[i]
					w.Flat = col
					verdict := Verdict{Node: nodes[i], Accept: v.Verify(&w)}
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
