package transport

// The in-process transport's synchronization contract: deliveries
// demultiplex per destination, rounds stay lockstep across shards, and
// poisoning (Close or a cancelled context) unblocks every member
// instead of deadlocking the group.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestInProcExchangeDelivers floods one record ring-wise across three
// shards for two rounds and checks every delivery lands at the right
// destination in the right round, on a group built unsized, sized to
// its traffic, and sized below it.
func TestInProcExchangeDelivers(t *testing.T) {
	const n = 3
	for name, build := range map[string]func() []*InProc{
		"unsized": func() []*InProc { return NewInProcGroup(n) },
		"sized":   func() []*InProc { return NewInProcGroupSized([]int{1, 1, 1}, []int{1, 1, 1}) },
		"short":   func() []*InProc { return NewInProcGroupSized(make([]int, n), make([]int, n)) },
	} {
		t.Run(name, func(t *testing.T) { exchangeDelivers(t, build()) })
	}
}

func exchangeDelivers(t *testing.T, group []*InProc) {
	n := len(group)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make([]error, n)
	got := make([][][]Delivery, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr := group[i]
			defer func() { _ = tr.Close() }()
			for round := 1; round <= 2; round++ {
				next := (i + 1) % n
				tr.Send(next, 100+next, Batch{{ID: 10*i + round}})
				dels, err := tr.Exchange(ctx, round)
				if err != nil {
					errs[i] = err
					return
				}
				got[i] = append(got[i], dels)
				if err := tr.Barrier(ctx, round); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		prev := (i + n - 1) % n
		for round := 1; round <= 2; round++ {
			dels := got[i][round-1]
			if len(dels) != 1 || dels[0].Dst != 100+i {
				t.Fatalf("shard %d round %d: deliveries %+v", i, round, dels)
			}
			if want := 10*prev + round; dels[0].Recs[0].ID != want {
				t.Fatalf("shard %d round %d: record %d, want %d", i, round, dels[0].Recs[0].ID, want)
			}
		}
		st := group[i].Stats()
		if st.Rounds != 2 || st.BytesOut != 0 {
			t.Fatalf("shard %d stats: %+v", i, st)
		}
	}
}

// TestInProcCloseUnblocksPeers: one member never shows up; closing its
// transport must release the waiter with ErrClosed, bounded in time.
func TestInProcCloseUnblocksPeers(t *testing.T) {
	group := NewInProcGroup(2)
	done := make(chan error, 1)
	go func() {
		_, err := group[0].Exchange(context.Background(), 1)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := group[1].Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("want ErrClosed, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Exchange still blocked after peer closed")
	}
}

// TestInProcContextCancelPoisonsGroup: a cancelled waiter returns the
// context error and poisons the hub, so the other member's next gate
// fails fast instead of hanging.
func TestInProcContextCancelPoisonsGroup(t *testing.T) {
	group := NewInProcGroup(2)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := group[0].Exchange(ctx, 1)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Exchange ignored cancellation")
	}
	if err := group[1].Barrier(context.Background(), 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("poison did not reach the peer: %v", err)
	}
}
