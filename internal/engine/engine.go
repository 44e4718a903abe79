package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"
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
	// (CheckProofCtx, CheckBatchCtx, CheckStream) and of ball-index
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
// builds that radius's ball index, later checks reuse it.
type Engine struct {
	in  *core.Instance
	opt Options

	// Ball indexes are per radius, each behind its own build guard so a
	// cold build at one radius never blocks warm checks at another (or
	// a second caller at the same radius from doubling the work).
	mu    sync.Mutex
	balls map[int]*ballIndex // radius -> every node's ball, aligned with in.G.Nodes()

	// columns recycles the node-major proof tables of the column walk:
	// one table per in-flight check, loaded in O(nk) from the
	// map-backed proofs and then shared read-only by every node's view.
	// Pooling them keeps the per-check allocation at one Load instead of
	// one table.
	columns sync.Pool // *core.ProofColumns aligned with in.G
}

// ballIndex is one radius's slab of balls: node index i's ball is
// pos[off[i]:off[i+1]] (ascending graph positions of its members) with
// distances dist[off[i]:off[i+1]]. Three flat arrays for the whole
// instance — no per-node view, map or induced graph.
type ballIndex struct {
	once sync.Once
	off  []int32
	pos  []int32
	dist []int32
}

// row returns node index i's ball.
func (b *ballIndex) row(i int) (pos, dist []int32) {
	lo, hi := b.off[i], b.off[i+1]
	return b.pos[lo:hi:hi], b.dist[lo:hi:hi]
}

// build fills the slab in two parallel passes over the nodes: the
// first sizes every ball, the second walks each ball straight into its
// row. Walking twice costs one more BFS per node and spares a second
// copy of the slab.
func (b *ballIndex) build(g *graph.Graph, radius, workers int) {
	nodes := g.Nodes()
	b.off = make([]int32, len(nodes)+1)
	forEachRange(len(nodes), workers, func(lo, hi int) {
		var pos, dist []int32
		for i := lo; i < hi; i++ {
			pos, dist = g.AppendBall(pos[:0], dist[:0], nodes[i], radius)
			b.off[i+1] = int32(len(pos))
		}
	})
	total := 0
	for i := range nodes {
		total += int(b.off[i+1])
		if total > math.MaxInt32 {
			panic(fmt.Sprintf("engine: radius-%d balls hold more than %d members, past the slab's int32 offsets", radius, math.MaxInt32))
		}
		b.off[i+1] = int32(total)
	}
	b.pos = make([]int32, total)
	b.dist = make([]int32, total)
	forEachRange(len(nodes), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			pos, dist := b.row(i)
			g.AppendBall(pos[:0], dist[:0], nodes[i], radius)
		}
	})
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
		balls: make(map[int]*ballIndex),
	}
}

// Instance returns the instance the engine serves.
func (e *Engine) Instance() *core.Instance { return e.in }

// Invalidate drops every cached ball index. Checks already in
// flight keep using the caches they resolved; new checks rebuild.
func (e *Engine) Invalidate() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.balls = make(map[int]*ballIndex)
}

// InvalidateRadius drops the caches of a single radius, leaving other
// radii warm.
func (e *Engine) InvalidateRadius(radius int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.balls, radius)
}

// ballsFor returns the per-radius ball index, building it on first
// use. Checks fill one reused View per worker from a slab row and
// attach a column of the check's proof table, so the slab is shared
// read-only across all concurrent checks.
//
// tl, when non-nil, receives the time spent in this call as the
// "engine.views" stage — near zero on a warm index, the whole build on
// a miss (or the wait for a concurrent builder).
func (e *Engine) ballsFor(radius int, tl *obs.Timeline) *ballIndex {
	e.mu.Lock()
	b, ok := e.balls[radius]
	if !ok {
		b = &ballIndex{}
		e.balls[radius] = b
	}
	e.mu.Unlock()
	stop := tl.Start("engine.views")
	built := false
	b.once.Do(func() {
		built = true
		b.build(e.in.G, radius, e.opt.workers())
		engineSkeletons.Add(float64(e.in.G.N()))
	})
	stop()
	if built {
		engineViewMisses.Inc()
	} else {
		engineViewHits.Inc()
	}
	return b
}

// CheckStream verifies the proof and streams each node's verdict as it
// is decided: it runs the column walk over a one-column table, sending
// each node's verdict on the channel as its range worker decides it.
// The channel closes when every node has reported or the context is
// cancelled — cancel on the first rejected Verdict to stop paying for
// the rest of the graph. Verdict order is whatever the worker pool
// produces; the Node field identifies the decider. A context-carried
// obs.Timeline receives the "engine.views" and "engine.verify" stages.
//
// Unlike CheckProofCtx, a stream cannot re-raise a verifier panic on
// the consumer's goroutine; an untrusted verifier should be wrapped in
// its own recover before streaming (internal/serve does this).
func (e *Engine) CheckStream(ctx context.Context, p core.Proof, v core.Verifier) <-chan Verdict {
	out := make(chan Verdict)
	nodes := e.in.G.Nodes()
	go func() {
		defer close(out)
		// A cancelled walk only ends the stream early: the consumer owns
		// ctx and sees its error there.
		_ = e.walk(ctx, []core.Proof{p}, v, func(i int, verdicts []bool) bool {
			select {
			case out <- Verdict{Node: nodes[i], Accept: verdicts[0]}:
				return true
			case <-ctx.Done():
				return false
			}
		})
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
