package main

import (
	"context"
	"errors"
	"sync"
	"time"

	"lcp/internal/core"
	"lcp/internal/dist"
	"lcp/internal/partition"
	"lcp/internal/transport"
)

// timedTransport wraps one shard's in-process transport. It times the
// waits inside Exchange and Barrier, the shard's idle time at the round
// gates, and when recording keeps a copy of every frame the shard
// stages, so that the frames' wire encoding can be timed afterwards.
type timedTransport struct {
	transport.Transport
	wait   time.Duration
	record bool
	staged map[int][]transport.Delivery // peer -> this round's deliveries
	frames []frame
}

// frame is one shard-to-peer data frame of one round.
type frame struct {
	hdr  transport.DataHeader
	dels []transport.Delivery
}

func (t *timedTransport) Send(peer, dst int, recs transport.Batch) {
	if t.record {
		// The in-process transport hands the batch over by reference and
		// the runner rewinds it next round; the copy keeps this round's.
		t.staged[peer] = append(t.staged[peer], transport.Delivery{Dst: dst, Recs: append(transport.Batch(nil), recs...)})
	}
	t.Transport.Send(peer, dst, recs)
}

func (t *timedTransport) Exchange(ctx context.Context, round int) ([]transport.Delivery, error) {
	if t.record {
		for _, peer := range t.Peers() {
			t.frames = append(t.frames, frame{
				hdr:  transport.DataHeader{Seq: 1, Round: round, Src: t.Shard()},
				dels: t.staged[peer],
			})
		}
		clear(t.staged)
	}
	t0 := time.Now()
	dels, err := t.Transport.Exchange(ctx, round)
	t.wait += time.Since(t0)
	return dels, err
}

func (t *timedTransport) Barrier(ctx context.Context, round int) error {
	t0 := time.Now()
	err := t.Transport.Barrier(ctx, round)
	t.wait += time.Since(t0)
	return err
}

// shardRun is one shard's part of a replayed check.
type shardRun struct {
	tr   *timedTransport
	wall time.Duration
}

// replay checks p the way dist.CheckTransport does, one goroutine per
// shard running dist.RunShard over an in-process transport group cut
// by the BFS partitioner, with every shard's transport wrapped in a
// timedTransport.
func replay(ctx context.Context, in *core.Instance, p core.Proof, v core.Verifier, shards int, record bool) ([]shardRun, *core.Result, error) {
	ids := in.G.Nodes()
	assign := partition.BFSChunks{}.Assign(in.G, shards)
	if err := partition.Validate(assign, len(ids), shards); err != nil {
		return nil, nil, err
	}
	groups := partition.Groups(in.G, assign, shards)
	assignByID := make(map[int]int, len(ids))
	for i, id := range ids {
		assignByID[id] = assign[i]
	}
	group := transport.NewInProcGroup(shards)
	runs := make([]shardRun, shards)
	outs := make([]map[int]bool, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for s := range shards {
		runs[s].tr = &timedTransport{Transport: group[s], record: record, staged: map[int][]transport.Delivery{}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// As in dist.CheckTransport: closing after the last barrier is
			// harmless, and closing early releases peers of a failed shard.
			defer func() { _ = runs[s].tr.Close() }()
			t0 := time.Now()
			plan := dist.ShardPlan{In: in, Owned: groups[s], Assign: assignByID}
			outs[s], errs[s] = dist.RunShard(ctx, plan, runs[s].tr, p, v)
			runs[s].wall = time.Since(t0)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}
	res := &core.Result{Outputs: make(map[int]bool, len(ids))}
	for _, o := range outs {
		for id, ok := range o {
			res.Outputs[id] = ok
		}
	}
	return runs, res, nil
}
