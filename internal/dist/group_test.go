package dist_test

// The Network's one failure rule, held against a fake group builder so
// that no socket or shard is involved: a group is pooled after a
// successful run, however many checks were in flight, and closed —
// exactly once — after a failed one and when the network is closed.

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"lcp"
	"lcp/internal/core"
	"lcp/internal/dist"
)

// fakeGroup answers every node with accept, or fails when fail is set.
// Run blocks on gate, when set, after signalling entered.
type fakeGroup struct {
	plans   []dist.ShardPlan
	fail    bool
	entered *sync.WaitGroup
	gate    chan struct{}
	runs    atomic.Int32
	closes  atomic.Int32
}

func (g *fakeGroup) Run(ctx context.Context, _ core.Proof, _ core.Verifier) ([][]bool, error) {
	g.runs.Add(1)
	if g.gate != nil {
		g.entered.Done()
		select {
		case <-g.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if g.fail {
		return nil, errors.New("fake group failed")
	}
	out := make([][]bool, len(g.plans))
	for i, plan := range g.plans {
		out[i] = make([]bool, len(plan.Owned))
		for j := range out[i] {
			out[i][j] = true
		}
	}
	return out, nil
}

func (g *fakeGroup) Close() error {
	g.closes.Add(1)
	return nil
}

// fakeFleet builds fakeGroups and keeps every one it built. The next
// group it builds fails its runs when failNext is set, and blocks in
// Run on gate when gate is set.
type fakeFleet struct {
	mu       sync.Mutex
	built    []*fakeGroup
	failNext bool
	entered  sync.WaitGroup
	gate     chan struct{}
}

func (f *fakeFleet) build(_ context.Context, plans []dist.ShardPlan) (dist.Group, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	g := &fakeGroup{plans: plans, fail: f.failNext, entered: &f.entered, gate: f.gate}
	f.failNext = false
	f.built = append(f.built, g)
	return g, nil
}

func (f *fakeFleet) groups() []*fakeGroup {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*fakeGroup(nil), f.built...)
}

func closesOf(groups []*fakeGroup) []int32 {
	out := make([]int32, len(groups))
	for i, g := range groups {
		out[i] = g.closes.Load()
	}
	return out
}

func fakeNetwork(t *testing.T, f *fakeFleet) *dist.Network {
	t.Helper()
	nw, err := dist.NewNetworkWith(lcp.NewInstance(lcp.Cycle(6)), dist.Options{Shards: 2}, f.build)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// accepts checks once and reports a failure with t.Error, so that
// concurrent checks may call it.
func accepts(t *testing.T, nw *dist.Network) {
	t.Helper()
	res, err := nw.CheckCtx(context.Background(), core.Proof{}, lcp.BipartiteScheme().Verifier())
	if err != nil {
		t.Error(err)
	} else if len(res.Outputs) != 6 || !res.Accepted() {
		t.Errorf("merged %v, want 6 accepting nodes", res.Outputs)
	}
}

func TestNetworkGroupFailureRule(t *testing.T) {
	v := lcp.BipartiteScheme().Verifier()

	t.Run("failed run closes its group once and never pools it", func(t *testing.T) {
		f := &fakeFleet{failNext: true}
		nw := fakeNetwork(t, f)
		if _, err := nw.CheckCtx(context.Background(), core.Proof{}, v); err == nil {
			t.Fatal("check on a failing group succeeded")
		}
		accepts(t, nw)
		accepts(t, nw)
		gs := f.groups()
		if len(gs) != 2 {
			t.Fatalf("built %d groups, want 2: the failed one replaced, the next pooled", len(gs))
		}
		if got := closesOf(gs); got[0] != 1 || got[1] != 0 {
			t.Fatalf("closes = %v, want [1 0]", got)
		}
		nw.Close()
		if got := closesOf(gs); got[0] != 1 || got[1] != 1 {
			t.Fatalf("closes after Close = %v, want [1 1]", got)
		}
	})

	t.Run("a cancelled run's group never runs again", func(t *testing.T) {
		f := &fakeFleet{gate: make(chan struct{})}
		f.entered.Add(1)
		nw := fakeNetwork(t, f)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error)
		go func() {
			_, err := nw.CheckCtx(ctx, core.Proof{}, v)
			done <- err
		}()
		f.entered.Wait()
		f.mu.Lock()
		f.gate = nil // later groups run at once
		f.mu.Unlock()
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled check error = %v, want context.Canceled", err)
		}
		accepts(t, nw)
		accepts(t, nw)
		gs := f.groups()
		if len(gs) != 2 {
			t.Fatalf("built %d groups, want 2: the cancelled one replaced, the next pooled", len(gs))
		}
		if runs, closes := gs[0].runs.Load(), gs[0].closes.Load(); runs != 1 || closes != 1 {
			t.Fatalf("cancelled group ran %d times and closed %d, want once each", runs, closes)
		}
		if runs := gs[1].runs.Load(); runs != 2 {
			t.Fatalf("replacement group ran %d times, want 2", runs)
		}
		nw.Close()
	})

	t.Run("a full burst pools every group", func(t *testing.T) {
		bound := 2 * runtime.GOMAXPROCS(0) // the checks in flight, and so the groups
		f := &fakeFleet{gate: make(chan struct{})}
		f.entered.Add(bound)
		nw := fakeNetwork(t, f)
		var wg sync.WaitGroup
		for range bound + 1 { // one past the bound waits, then reuses a group
			wg.Add(1)
			go func() {
				defer wg.Done()
				accepts(t, nw)
			}()
		}
		f.entered.Wait() // bound runs in flight: bound groups built
		f.entered.Add(1) // the waiting check enters a reused group
		close(f.gate)
		wg.Wait()
		gs := f.groups()
		if len(gs) != bound {
			t.Fatalf("built %d groups for %d concurrent checks, want %d", len(gs), bound+1, bound)
		}
		for i, c := range closesOf(gs) {
			if c != 0 {
				t.Fatalf("group %d closed %d times after a burst, want pooled", i, c)
			}
		}
		f.entered.Add(1)
		accepts(t, nw) // a pooled group serves the next check
		if n := len(f.groups()); n != bound {
			t.Fatalf("built %d groups after the burst, want %d", n, bound)
		}
		nw.Close()
		for i, c := range closesOf(gs) {
			if c != 1 {
				t.Fatalf("group %d closed %d times after Close, want once", i, c)
			}
		}
	})

	t.Run("a group returned after Close is closed", func(t *testing.T) {
		f := &fakeFleet{gate: make(chan struct{})}
		f.entered.Add(1)
		nw := fakeNetwork(t, f)
		done := make(chan struct{})
		go func() {
			defer close(done)
			accepts(t, nw)
		}()
		f.entered.Wait()
		nw.Close()
		g := f.groups()[0]
		if c := g.closes.Load(); c != 0 {
			t.Fatalf("in-flight group closed %d times by Close, want 0", c)
		}
		close(f.gate)
		<-done
		if c := g.closes.Load(); c != 1 {
			t.Fatalf("group returned after Close closed %d times, want once", c)
		}
		if _, err := nw.CheckCtx(context.Background(), core.Proof{}, v); err == nil {
			t.Fatal("check after Close succeeded")
		}
	})
}
