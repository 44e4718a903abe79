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
// instance is partitioned once, and each check runs on a Group built
// for that partition — an in-process wiring (NewNetwork) or a
// registration on a worker fleet (NewNetworkWith and remote.Fleet).
// Building a group is the expensive part of a run, so groups are
// pooled; the façade's message-passing backends and cmd/lcpserve sit
// on this type.
//
// Concurrent checks never queue on a group: each takes an idle one or
// builds another, under one bound, maxWirings, on the checks in flight.
// A group is built only when none is idle, so the groups in flight and
// idle never outnumber it, and every group a check finishes with can be
// pooled. One rule covers every group: it is pooled after a successful
// run, and closed after a failed one or when the network is closed.
type Network struct {
	plans []ShardPlan // one per shard, fixed at construction
	build GroupBuilder
	sem   chan struct{} // bounds in-flight runs, and so the groups built, to maxWirings

	mu     sync.Mutex
	closed bool
	idle   []Group
}

// Group is one set of shards that runs a Network's checks together,
// one check at a time.
type Group interface {
	// Run checks the proof on every shard of the partition and returns
	// each shard's verdicts in its plan's Owned order.
	Run(ctx context.Context, p core.Proof, v core.Verifier) ([][]bool, error)
	// Close releases the group.
	Close() error
}

// GroupBuilder builds one group, one shard per plan.
type GroupBuilder func(ctx context.Context, plans []ShardPlan) (Group, error)

// wiring is the in-process group: one set of shards, run one goroutine
// per shard over a transport.InProc group.
type wiring struct {
	shards []*Shard
	// trs is the transport group the wiring's runs share: built by the
	// first run, kept after every run that succeeds (its buffers are
	// sized, its gates all open), and closed and dropped by a run that
	// fails, so a failed run's poisoned group never runs again.
	trs []*transport.InProc
	// cross and local fix the per-round delivery counts: every cut-edge
	// link carries one batch per round, every same-shard link merges
	// once per round. countRun multiplies them by the round count, so
	// the round loop never touches a counter.
	cross, local int
	// sends and recvs are each shard's cut links out and in: the
	// batches it stages and the deliveries it receives every round,
	// which size a run's transport buffers.
	sends, recvs []int
}

// maxWirings bounds a Network's checks in flight, and so its groups:
// GOMAXPROCS is the useful concurrency of CPU-bound runs, and twice that
// leaves headroom for runs finishing while new ones start.
func maxWirings() int { return 2 * runtime.GOMAXPROCS(0) }

// NewNetwork partitions the instance and wires a reusable in-process
// network for it, with its first wiring built up front. The options fix
// the layout for every subsequent run.
func NewNetwork(in *core.Instance, opt Options) (*Network, error) {
	nw, err := NewNetworkWith(in, opt, func(_ context.Context, plans []ShardPlan) (Group, error) { return wire(plans) })
	if err != nil || len(nw.plans) == 0 {
		return nw, err
	}
	w, err := wire(nw.plans)
	if err != nil {
		return nil, err
	}
	nw.idle = append(nw.idle, w)
	return nw, nil
}

// NewNetworkWith partitions the instance into the options' shards and
// runs its checks on groups from build, built on demand.
func NewNetworkWith(in *core.Instance, opt Options, build GroupBuilder) (*Network, error) {
	if in == nil || in.G == nil {
		return nil, fmt.Errorf("dist: nil instance")
	}
	nw := &Network{build: build, sem: make(chan struct{}, maxWirings())}
	if n := in.G.N(); n > 0 {
		plans, err := PlanShards(in, opt.shardCount(n), opt.Partitioner)
		if err != nil {
			return nil, err
		}
		nw.plans = plans
	}
	return nw, nil
}

// PlanShards partitions the instance into shards ≥ 1 shard plans with
// the partitioner (nil means partition.Contiguous{}). Every plan reads
// the full instance and shares the full node→shard assignment; plan i
// owns the nodes assigned to shard i, in ascending g.Nodes() order, and
// may own none.
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

// wire builds one in-process wiring of the plans, wiring up to
// GOMAXPROCS shards at a time. It fails with the error of the first
// plan, in plan order, that could not be wired.
func wire(plans []ShardPlan) (Group, error) {
	n := len(plans)
	w := &wiring{shards: make([]*Shard, n), sends: make([]int, n), recvs: make([]int, n)}
	errs := make([]error, n)
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, plan := range plans {
		slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.shards[i], errs[i] = NewShard(plan, i)
			<-slots
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i, s := range w.shards {
		w.sends[i] = len(s.remotes)
		for _, rl := range s.remotes {
			w.recvs[rl.peer]++
		}
		w.cross += len(s.remotes)
		w.local += s.links
	}
	distWirings.Inc()
	return w, nil
}

// CheckCtx runs the verifier against the proof on a group of its own.
// Verdicts are identical to core.Check. The run aborts between
// communication rounds once the context is done and returns ctx.Err().
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
	case nw.sem <- struct{}{}: // bound live groups; waits out a burst
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-nw.sem }()
	g, err := nw.acquire(ctx)
	if err != nil {
		return nil, err
	}
	verdicts, err := g.Run(ctx, p, v)
	var res *core.Result
	if err == nil {
		res, err = MergeVerdicts(nw.plans, verdicts)
	}
	if err != nil {
		// A failed group is closed, not pooled: a cancellation can leave
		// a wiring's shards disagreeing on warmth, and a fleet's failure
		// has ended its registration.
		_ = g.Close() // the run's error is the one worth reporting
		return nil, err
	}
	nw.put(g)
	return res, nil
}

// MergeVerdicts merges one check's per-shard verdicts, verdicts[i] in
// plans[i].Owned order, into a result keyed by node id. It fails when a
// shard answered for a different number of nodes than it owns.
func MergeVerdicts(plans []ShardPlan, verdicts [][]bool) (*core.Result, error) {
	if len(verdicts) != len(plans) {
		return nil, fmt.Errorf("dist: %d shards answered, want %d", len(verdicts), len(plans))
	}
	n := 0
	for _, plan := range plans {
		n += len(plan.Owned)
	}
	res := &core.Result{Outputs: make(map[int]bool, n)}
	for i, plan := range plans {
		if len(verdicts[i]) != len(plan.Owned) {
			return nil, fmt.Errorf("dist: shard %d answered %d verdicts for %d nodes", i, len(verdicts[i]), len(plan.Owned))
		}
		for j, id := range plan.Owned {
			res.Outputs[id] = verdicts[i][j]
		}
	}
	return res, nil
}

func (nw *Network) acquire(ctx context.Context) (Group, error) {
	nw.mu.Lock()
	if nw.closed {
		nw.mu.Unlock()
		return nil, fmt.Errorf("dist: network is closed")
	}
	if n := len(nw.idle); n > 0 {
		g := nw.idle[n-1]
		nw.idle = nw.idle[:n-1]
		nw.mu.Unlock()
		return g, nil
	}
	nw.mu.Unlock()
	// Build outside the lock, so cold concurrent checks do not serialize;
	// a Close racing the build is harmless: put closes the group.
	return nw.build(ctx, nw.plans)
}

func (nw *Network) put(g Group) {
	nw.mu.Lock()
	if !nw.closed {
		nw.idle = append(nw.idle, g)
		nw.mu.Unlock()
		return
	}
	nw.mu.Unlock()
	_ = g.Close() // a closed network's group has no one to report to
}

// Close closes the idle groups; the groups of in-flight checks are
// closed as those checks return. The network must not be checked again
// afterwards.
func (nw *Network) Close() {
	nw.mu.Lock()
	idle := nw.idle
	nw.idle, nw.closed = nil, true
	nw.mu.Unlock()
	for _, g := range idle {
		_ = g.Close() // closing is best effort: nothing is left to report to
	}
}

// Close implements Group: it closes the wiring's transport group, the
// only resource it holds beyond memory.
func (w *wiring) Close() error {
	for _, tr := range w.trs {
		_ = tr.Close() // InProc.Close cannot fail
	}
	w.trs = nil
	return nil
}

// Run executes one check on the wiring: one goroutine per shard runs
// Shard.Run over its member of the wiring's in-process transport group,
// built by the first run and kept by every run that succeeds. Every
// shard goroutine is joined before Run returns, so the wiring is
// reusable immediately afterwards.
//
// A member whose shard fails closes its transport, which poisons the
// group, so no shard waits for one that quit; the run then drops the
// group, and the next run builds a fresh one.
func (w *wiring) Run(ctx context.Context, p core.Proof, v core.Verifier) ([][]bool, error) {
	tl := obs.TimelineFrom(ctx)
	if w.trs == nil {
		w.trs = transport.NewInProcGroupSized(w.sends, w.recvs)
	}
	trs := w.trs
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
			var tm *phaseTimes
			if times != nil {
				tm = &times[i]
			}
			verdicts[i], errs[i] = s.run(ctx, trs[i], p, v, tm)
			if errs[i] != nil {
				_ = trs[i].Close()
			}
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
		w.trs = nil // poisoned by the failed shard's Close
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
	return verdicts, nil
}
