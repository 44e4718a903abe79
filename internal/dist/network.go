package dist

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"lcp/internal/core"
	"lcp/internal/obs"
	"lcp/internal/partition"
	"lcp/internal/transport"
)

// Network is a long-lived instance of the message-passing runtime: the
// instance is partitioned once, each shard's automata are wired once
// (NewShard), and every check runs one goroutine per shard through
// Shard.Run over a fresh transport.InProc group. Construction is the
// expensive part of a run; a check only swaps the proof bits into the
// round-0 records and floods, so repeated verification of the same
// graph amortizes the wiring — the façade's dist backend and
// cmd/lcpserve both sit on top of this type.
//
// A wiring (one set of shards) is single-occupancy, but CheckCtx never
// serializes callers on it: when the idle wirings run out, an extra one
// is built from the same partition, and up to maxIdleWirings are kept
// for reuse afterwards. Concurrent checks of the same instance
// therefore scale to the caller's concurrency instead of queueing on a
// mutex.
type Network struct {
	in    *core.Instance
	plans []ShardPlan // one per shard, fixed by the partition at NewNetwork

	// sem bounds in-flight runs — and with them the wirings built:
	// beyond a small multiple of GOMAXPROCS extra wirings cannot make
	// progress, they only multiply the O(n+m) automaton footprint per
	// concurrent caller. Callers over the bound wait for a wiring to
	// come back instead of building another.
	sem chan struct{}

	mu     sync.Mutex
	closed bool
	idle   []*wiring // wirings ready for the next run
}

// wiring is one complete set of shards for the instance, plus the
// per-round delivery counts it implies.
type wiring struct {
	shards []*Shard
	// cross and local fix the per-round delivery counts: every cut-edge
	// link carries one batch per round, every same-shard link merges
	// once per round. countRun multiplies them by the round count, so
	// the round loop never touches a counter.
	cross, local int
}

// maxIdleWirings bounds how many idle wirings a Network retains between
// checks: GOMAXPROCS, because that is the useful concurrency of CPU-
// bound runs — callers beyond it gain nothing from extra wirings, while
// anything below it would make steady-state concurrent checks rebuild
// wirings every wave on exactly the path the pool amortizes.
func maxIdleWirings() int {
	return runtime.GOMAXPROCS(0)
}

// maxLiveWirings bounds the in-flight runs of one Network (each run
// owns one wiring): twice the useful concurrency leaves headroom for
// runs finishing while new ones start, without letting a request burst
// inflate memory by a wiring per caller.
func maxLiveWirings() int {
	return 2 * runtime.GOMAXPROCS(0)
}

// NewNetwork partitions the instance and wires a reusable network for
// it. The options fix the layout for every subsequent run.
func NewNetwork(in *core.Instance, opt Options) (*Network, error) {
	if in == nil || in.G == nil {
		return nil, fmt.Errorf("dist: nil instance")
	}
	nw := &Network{in: in, sem: make(chan struct{}, maxLiveWirings())}
	ids := in.G.Nodes()
	if len(ids) == 0 {
		return nw, nil
	}
	plans, err := PlanShards(in, opt.shardCount(len(ids)), opt.Partitioner)
	if err != nil {
		return nil, err
	}
	nw.plans = plans
	w, err := nw.wire()
	if err != nil {
		return nil, err
	}
	nw.idle = append(nw.idle, w)
	return nw, nil
}

// PlanShards partitions the instance into shards ≥ 1 shard plans with
// the partitioner (nil means partition.Contiguous{}). Every plan reads
// the full instance and shares the full node→shard assignment; plan i
// owns the nodes assigned to shard i, in ascending g.Nodes() order, and
// may own none. NewNetwork wires the plans in process; the dist-tcp
// coordinator registers each plan's Records with the worker running it.
func PlanShards(in *core.Instance, shards int, pt partition.Partitioner) ([]ShardPlan, error) {
	if pt == nil {
		pt = partition.Contiguous{}
	}
	ids := in.G.Nodes()
	assign := pt.Assign(in.G, shards)
	if err := partition.Validate(assign, len(ids), shards); err != nil {
		return nil, fmt.Errorf("dist: partitioner %q: %v", pt.Name(), err)
	}
	byID := make(map[int]int, len(ids))
	for i, id := range ids {
		byID[id] = assign[i]
	}
	groups := partition.Groups(in.G, assign, shards)
	plans := make([]ShardPlan, len(groups))
	for i, owned := range groups {
		plans[i] = ShardPlan{In: in, Owned: owned, Assign: byID}
	}
	return plans, nil
}

// wire builds one wiring from the network's partition.
func (nw *Network) wire() (*wiring, error) {
	w := &wiring{shards: make([]*Shard, len(nw.plans))}
	for i, plan := range nw.plans {
		s, err := NewShard(plan, i)
		if err != nil {
			return nil, err
		}
		w.shards[i] = s
		w.cross += len(s.remotes)
		w.local += s.links
	}
	distWirings.Inc()
	return w, nil
}

// CheckCtx runs the verifier against the proof on a prewired network.
// Verdicts are identical to a fresh dist.CheckWithCtx under the same
// options (and hence to core.Check). Concurrent calls do not serialize:
// each run gets its own wiring, built on demand when the idle ones are
// taken. The run aborts between communication rounds once the context
// is done (every shard stops, the wiring stays reusable) and returns
// ctx.Err().
func (nw *Network) CheckCtx(ctx context.Context, p core.Proof, v core.Verifier) (*core.Result, error) {
	if v == nil {
		return nil, fmt.Errorf("dist: nil verifier")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(nw.plans) == 0 {
		return &core.Result{Outputs: map[int]bool{}}, nil
	}
	select {
	case nw.sem <- struct{}{}: // bound live wirings; waits out a burst
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-nw.sem }()
	w, err := nw.acquire()
	if err != nil {
		return nil, err
	}
	res, err := w.run(ctx, nw.in.G.N(), p, v)
	if err == nil {
		// A failed run is dropped, not pooled: a cancellation can
		// leave its shards disagreeing on warmth.
		nw.put(w)
	}
	return res, err
}

func (nw *Network) acquire() (*wiring, error) {
	nw.mu.Lock()
	if nw.closed {
		nw.mu.Unlock()
		return nil, fmt.Errorf("dist: network is closed")
	}
	if n := len(nw.idle); n > 0 {
		w := nw.idle[n-1]
		nw.idle = nw.idle[:n-1]
		nw.mu.Unlock()
		return w, nil
	}
	nw.mu.Unlock()
	// Build outside the lock: wiring is the expensive part, and cold
	// concurrent checks must not serialize on it. A Close racing the
	// build is harmless — put() drops the wiring instead of pooling it.
	return nw.wire()
}

func (nw *Network) put(w *wiring) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if !nw.closed && len(nw.idle) < maxIdleWirings() {
		nw.idle = append(nw.idle, w)
	}
}

// Close drops the idle wirings; wirings of in-flight checks follow as
// those checks return. The network must not be checked again
// afterwards.
func (nw *Network) Close() {
	nw.mu.Lock()
	nw.idle = nil
	nw.closed = true
	nw.mu.Unlock()
}

// run executes one check on the wiring: one goroutine per shard runs
// Shard.Run over its member of a fresh in-process transport group, and
// the verdicts merge into one result. Every shard goroutine is joined
// before run returns, so the wiring is reusable immediately afterwards.
//
// Each member closes its transport on exit: after a completed run that
// is past the final barrier (harmless to peers); after an early error
// it poisons the group, so no shard waits for one that quit.
func (w *wiring) run(ctx context.Context, n int, p core.Proof, v core.Verifier) (*core.Result, error) {
	tl := obs.TimelineFrom(ctx)
	trs := transport.NewInProcGroup(len(w.shards))
	verdicts := make([][]bool, len(w.shards))
	errs := make([]error, len(w.shards))
	// times, when a timeline is watching, collects each shard's seed
	// and flood wall times; unobserved runs (and every benchmark) skip
	// even the clock reads.
	var times []phaseTimes
	if tl != nil {
		times = make([]phaseTimes, len(w.shards))
	}
	stopRun := tl.Start("dist.run")
	var wg sync.WaitGroup
	for i, s := range w.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { _ = trs[i].Close() }()
			var tm *phaseTimes
			if times != nil {
				tm = &times[i]
			}
			verdicts[i], errs[i] = s.run(ctx, trs[i], p, v, tm)
		}()
	}
	wg.Wait()
	stopRun()
	if times != nil {
		// The shards run in parallel: the slowest one is each phase's
		// critical path.
		var seed, flood time.Duration
		for _, tm := range times {
			seed, flood = max(seed, tm.seed), max(flood, tm.flood)
		}
		tl.Observe("dist.seed", seed)
		tl.Observe("dist.flood", flood)
	}
	var firstErr error
	for _, err := range errs {
		if err != nil {
			firstErr = err
			break
		}
	}
	if firstErr != nil {
		// A poisoned group reports ErrClosed on every shard but the one
		// that failed first; surface the cancellation cause if that is
		// what started it.
		if err := ctx.Err(); err != nil {
			countRun(w, 0, true)
			return nil, err
		}
	}
	// Only cancellation stops a flood early in process: a run that
	// failed in a verifier completed every round.
	countRun(w, max(v.Radius(), 0), false)
	if firstErr != nil {
		return nil, firstErr
	}
	res := &core.Result{Outputs: make(map[int]bool, n)}
	for i, s := range w.shards {
		for j, id := range s.owned {
			res.Outputs[id] = verdicts[i][j]
		}
	}
	return res, nil
}
