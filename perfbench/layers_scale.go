package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"lcp"
	"lcp/internal/core"
	"lcp/internal/dist"
	"lcp/internal/engine"
	"lcp/internal/partition"
)

// scaleLayers probes the layers of one backend's check, from inside the
// backend's own process, after its timed check.
func scaleLayers(backend string, in *core.Instance, p core.Proof, v core.Verifier, pr *probe) (map[string]metric, error) {
	switch backend {
	case lcp.BackendCore:
		return coreLayers(in, p, v, pr)
	case lcp.BackendEngine:
		return engineScaleLayers(in, p, v, pr)
	case lcp.BackendDist:
		return distLayers(in, p, v, pr)
	}
	return nil, fmt.Errorf("no layer probes for backend %q", backend)
}

// coreLayers splits the sequential check into ball construction, view
// assembly, proof restriction, the verifier and the verdict merge: one
// pass over every node per layer, so that each pass meets the caches a
// full check would. Every node is timed, not a sample: a few hubs hold
// most of the work on power-law graphs, and a sample that misses them
// misplaces it. The merge is what the whole check spends beyond the
// views and the verifier.
func coreLayers(in *core.Instance, p core.Proof, v core.Verifier, pr *probe) (map[string]metric, error) {
	nodes := in.G.Nodes()
	n, r := len(nodes), v.Radius()
	ballNodes := 0
	ballMS := pr.once("graph.InducedBall", func() {
		for _, id := range nodes {
			_, ball, _ := in.G.InducedBall(id, r)
			ballNodes += len(ball)
		}
	})
	viewMS := pr.once("core.BuildView.nil-proof", func() {
		for _, id := range nodes {
			core.BuildView(in, nil, id, r)
		}
	})
	var build, verify time.Duration
	pr.once("core.BuildView+Verify", func() {
		for _, id := range nodes {
			t0 := time.Now()
			w := core.BuildView(in, p, id, r)
			t1 := time.Now()
			v.Verify(w)
			build += t1.Sub(t0)
			verify += time.Since(t1)
		}
	})
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	var res *core.Result
	var err error
	totalMS := pr.once("core.CheckCtx", func() { res, err = core.CheckCtx(context.Background(), in, p, v) })
	runtime.ReadMemStats(&m1)
	if err == nil {
		err = proofCase{}.verifyResult(res, n)
	}
	if err != nil {
		return nil, err
	}
	perNodeNS := func(ms float64) float64 { return ms * 1e6 / float64(n) }
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return map[string]metric{
		"graph.ball_ns":           {perNodeNS(ballMS), "ns"},
		"graph.ball_nodes_mean":   {float64(ballNodes) / float64(n), "count"},
		"core.view_ns":            {perNodeNS(viewMS), "ns"},
		"core.restrict_ns":        {perNodeNS(ms(build) - viewMS), "ns"},
		"schemes.verify_ns.scale": {perNodeNS(ms(verify)), "ns"},
		"core.merge_ms":           {totalMS - ms(build+verify), "ms"},
		"core.allocs_per_node":    {float64(m1.Mallocs-m0.Mallocs) / float64(n), "count"},
		"core.bytes_per_node":     {float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n), "B"},
	}, nil
}

// engineScaleLayers splits a cold engine check into skeleton building
// and the warm check that remains, and weighs the skeletons.
func engineScaleLayers(in *core.Instance, p core.Proof, v core.Verifier, pr *probe) (map[string]metric, error) {
	ctx := context.Background()
	n := in.G.N()
	check := func(eng *engine.Engine) error {
		res, err := eng.CheckProofCtx(ctx, p, v)
		if err != nil {
			return err
		}
		return proofCase{}.verifyResult(res, n)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	eng := engine.New(in, engine.Options{})
	var err error
	coldMS := pr.once("engine.CheckProofCtx.cold", func() { err = check(eng) })
	if err != nil {
		return nil, err
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	warm, err := pr.times("engine.CheckProofCtx", 3, func(int) error { return check(eng) })
	if err != nil {
		return nil, err
	}
	skeletons := float64(m1.HeapAlloc) - float64(m0.HeapAlloc)
	return map[string]metric{
		"engine.skeleton_build_s":        {(coldMS - median(warm)) / 1e3, "s"},
		"engine.skeleton_bytes_per_node": {skeletons / float64(n), "B"},
		"engine.warm_check_ms.scale":     {median(warm), "ms"},
	}, nil
}

// distLayers times the dist backend's wiring and run with the round and
// delivery counters they move, then replays the check through
// dist.RunShard to split each shard's time into computing and waiting
// at the round gates.
func distLayers(in *core.Instance, p core.Proof, v core.Verifier, pr *probe) (map[string]metric, error) {
	ctx := context.Background()
	n := in.G.N()
	shards := runtime.NumCPU()
	opts := dist.Options{Sharded: true, Shards: shards, Partitioner: partition.BFSChunks{}}
	var m0, m1 runtime.MemStats
	runtime.GC()
	d0 := dist.Metrics()
	runtime.ReadMemStats(&m0)
	var nw *dist.Network
	var err error
	wireMS := pr.once("dist.NewNetwork", func() { nw, err = dist.NewNetwork(in, opts) })
	if err != nil {
		return nil, err
	}
	var res *core.Result
	runMS := pr.once("dist.Network.CheckCtx", func() { res, err = nw.CheckCtx(ctx, p, v) })
	runtime.ReadMemStats(&m1)
	d1 := dist.Metrics()
	nw.Close()
	if err == nil {
		err = proofCase{}.verifyResult(res, n)
	}
	if err != nil {
		return nil, err
	}
	var runs []shardRun
	pr.once("dist.RunShard.inproc", func() { runs, res, err = replay(ctx, in, p, v, shards, false) })
	if err == nil {
		err = proofCase{}.verifyResult(res, n)
	}
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	var compute, wait time.Duration
	for _, sr := range runs {
		compute += sr.wall - sr.tr.wait
		wait += sr.tr.wait
	}
	perShardMS := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / float64(len(runs)) }
	deliveries := (d1.CrossShardDeliveries + d1.SameShardDeliveries) - (d0.CrossShardDeliveries + d0.SameShardDeliveries)
	return map[string]metric{
		"dist.wire_ms":               {wireMS, "ms"},
		"dist.run_ms":                {runMS, "ms"},
		"dist.rounds":                {d1.Rounds - d0.Rounds, "count"},
		"dist.deliveries":            {deliveries, "count"},
		"dist.bytes_per_node":        {float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n), "B"},
		"dist.shard_compute_ms":      {perShardMS(compute), "ms"},
		"transport.exchange_wait_ms": {perShardMS(wait), "ms"},
	}, nil
}
