package dist_test

// Failure hygiene: a check that fails — cancelled mid-flood, or killed
// by a panicking verifier — must leave no goroutine behind and must
// not poison the Network that ran it.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"lcp"
	"lcp/internal/core"
	"lcp/internal/dist"
)

// cancelAfter cancels itself on the k-th call to Err. The round loop
// asks once per shard per round, so a small k lands the cancellation
// deterministically in the middle of the flood.
type cancelAfter struct {
	context.Context
	cancel context.CancelFunc
	left   atomic.Int64
}

func newCancelAfter(k int) *cancelAfter {
	ctx, cancel := context.WithCancel(context.Background())
	c := &cancelAfter{Context: ctx, cancel: cancel}
	c.left.Store(int64(k))
	return c
}

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) == 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// settle waits for the goroutine count to fall back to base.
func settle(t *testing.T, label string, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines, want <= %d:\n%s", label, runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

func TestNetworkSettlesAfterCancelAndPanic(t *testing.T) {
	in := lcp.NewInstance(lcp.Cycle(32))
	const radius = 6
	v := core.VerifierFunc{R: radius, F: func(w *core.View) bool { return len(w.Nodes()) == 2*radius+1 }}
	bomb := core.VerifierFunc{R: radius, F: func(w *core.View) bool {
		if w.Center == 7 {
			panic("node 7 misbehaves")
		}
		return true
	}}
	p := core.RandomProof(in, 3, 1)
	want := core.Check(in, p, v)
	for _, shards := range []int{1, runtime.GOMAXPROCS(0), in.G.N()} {
		label := fmt.Sprintf("shards=%d", shards)
		nw, err := dist.NewNetwork(in, dist.Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		base := runtime.NumGoroutine()

		// One Err call at entry, one per shard at its start, one per
		// shard per round: the cancellation lands as the second shard
		// starts round 2, while the first already waits at that round's
		// gate for a peer that will never arrive.
		ctx := newCancelAfter(3 + 2*shards)
		done := make(chan error, 1)
		go func() {
			_, err := nw.CheckCtx(ctx, p, v)
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: mid-flood cancel returned %v, want context.Canceled", label, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: cancelled check hung", label)
		}
		settle(t, label+" after cancel", base)

		if _, err := nw.CheckCtx(context.Background(), p, bomb); err == nil {
			t.Fatalf("%s: panicking verifier returned no error", label)
		}
		settle(t, label+" after panic", base)

		got, err := nw.CheckCtx(context.Background(), p, v)
		if err != nil {
			t.Fatalf("%s: check after failures: %v", label, err)
		}
		resultsEqual(t, label+" after failures", got, want)
		nw.Close()
	}
}
