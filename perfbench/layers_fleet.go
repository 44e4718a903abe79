package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"lcp"
	"lcp/internal/core"
	"lcp/internal/partition"
	"lcp/internal/remote"
	"lcp/internal/transport"
)

// fleetProbeChecks is how many checks each coordinator probe makes.
const fleetProbeChecks = 60

// coordSeq keeps the probes' fleet registrations distinct.
var coordSeq atomic.Int64

// layers measures the fleet phase's layers from outside: the
// partitioner, the coordinator's register and check over the
// subprocess workers, queueing on its lock, the wire codec, and host
// allocation with the workers in this process.
func (f *fleetRun) layers(addrs []string) error {
	p := newProbe(f.tr, "probe.fleet")
	defer p.end()
	var assign []int
	assignMS, err := p.times("partition.BFSChunks.Assign", 10, func(int) error {
		assign = partition.BFSChunks{}.Assign(f.in.G, fleetWorkers)
		return nil
	})
	if err != nil {
		return err
	}
	f.put("partition.assign_ms", "ms", median(assignMS))
	f.put("partition.cut_edges", "count", float64(partition.CutEdges(f.in.G, assign)))

	coord, register, err := f.register(p, addrs, 3)
	if err != nil {
		return err
	}
	one, stats, coordAlloc, err := f.coordChecks(p, coord, "remote.Coordinator.Check")
	if err == nil {
		var two []float64
		two, err = f.twoClients(p, coord)
		f.put("remote.queue_ms", "ms", median(two)-median(one))
	}
	err = errors.Join(err, coord.Close())
	if err != nil {
		return err
	}
	k := float64(len(one))
	f.put("remote.register_ms", "ms", median(register))
	f.put("remote.check_ms", "ms", median(one))
	f.put("transport.wire_bytes_per_check", "B", float64(stats.BytesIn+stats.BytesOut)/k)
	f.put("transport.frames_per_check", "count", float64(stats.FramesOut)/k)
	f.put("remote.coord_bytes_per_check", "B", coordAlloc.bytes)

	host, err := f.hostAllocs(p)
	if err != nil {
		return err
	}
	f.put("remote.host_bytes_per_check", "B", host.bytes)
	f.put("remote.host_allocs_per_check", "count", host.mallocs)
	return f.codec(p)
}

// register dials a coordinator to the workers and registers the
// instance, reps times; it keeps the last registration.
func (f *fleetRun) register(p *probe, addrs []string, reps int) (*remote.Coordinator, []float64, error) {
	ctx := context.Background()
	var coord *remote.Coordinator
	ms, err := p.times("remote.DialCoordinator+Register", reps, func(int) error {
		if coord != nil {
			_ = coord.Close() // replaced by the registration below; its close is best effort
		}
		var err error
		name := fmt.Sprintf("perfbench-%d-%d", os.Getpid(), coordSeq.Add(1))
		coord, err = remote.DialCoordinator(ctx, name, addrs, remote.Options{Partitioner: partition.BFSChunks{}})
		if err != nil {
			return err
		}
		return coord.Register(ctx, f.in, f.fam.scheme.Name())
	})
	if err != nil {
		if coord != nil {
			_ = coord.Close() // the register error is the one worth reporting
		}
		return nil, nil, err
	}
	return coord, ms, nil
}

// perCheck is host allocation per check.
type perCheck struct{ bytes, mallocs float64 }

// coordChecks times fleetProbeChecks checks from one client, summing
// their wire statistics and this process's allocation.
func (f *fleetRun) coordChecks(p *probe, coord *remote.Coordinator, name string) ([]float64, transport.Stats, perCheck, error) {
	ctx := context.Background()
	var stats transport.Stats
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	ms, err := p.times(name, fleetProbeChecks, func(i int) error {
		c := i % len(f.cases)
		res, st, err := coord.Check(ctx, f.cases[c].proof)
		if err == nil {
			stats.Add(st)
			err = f.cases[c].verifyResult(res, f.in.G.N())
		}
		f.tally.record(err)
		return err
	})
	runtime.ReadMemStats(&m1)
	k := float64(fleetProbeChecks)
	return ms, stats, perCheck{
		bytes:   float64(m1.TotalAlloc-m0.TotalAlloc) / k,
		mallocs: float64(m1.Mallocs-m0.Mallocs) / k,
	}, err
}

// queueClients is how many goroutines twoClients checks from.
const queueClients = 2

// twoClients times checks from two goroutines sharing the coordinator;
// the difference from one client is the wait on the coordinator's lock.
func (f *fleetRun) twoClients(p *probe, coord *remote.Coordinator) ([]float64, error) {
	var (
		mu   sync.Mutex
		lat  []float64
		errs []error
		wg   sync.WaitGroup
	)
	for c := range queueClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ms, err := p.times("remote.Coordinator.Check.2-clients", fleetProbeChecks/queueClients, func(i int) error {
				pc := f.cases[(i+c)%len(f.cases)]
				res, _, err := coord.Check(context.Background(), pc.proof)
				if err == nil {
					err = pc.verifyResult(res, f.in.G.N())
				}
				f.tally.record(err)
				return err
			})
			mu.Lock()
			lat = append(lat, ms...)
			errs = append(errs, err)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return lat, errors.Join(errs...)
}

// hostAllocs measures allocation per check with the workers serving in
// this process, so that the count covers coordinator and workers.
func (f *fleetRun) hostAllocs(p *probe) (perCheck, error) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	serveErrs := make([]error, fleetWorkers)
	stop := func() error {
		cancel()
		wg.Wait()
		return errors.Join(serveErrs...)
	}
	var addrs []string
	for i := range fleetWorkers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return perCheck{}, errors.Join(err, stop())
		}
		w := remote.NewWorker(ln, lcp.BuiltinSchemes())
		addrs = append(addrs, w.Addr())
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Serve(ctx); err != nil && !errors.Is(err, context.Canceled) {
				serveErrs[i] = err
			}
		}()
	}
	coord, _, err := f.register(p, addrs, 1)
	if err != nil {
		return perCheck{}, errors.Join(err, stop())
	}
	_, _, host, err := f.coordChecks(p, coord, "remote.Coordinator.Check.in-process")
	return host, errors.Join(err, coord.Close(), stop())
}

// codec replays one check in process to capture the data frames the
// shards exchange, then times encoding and decoding all of them.
func (f *fleetRun) codec(p *probe) error {
	var runs []shardRun
	var res *core.Result
	var err error
	p.once("dist.RunShard.inproc", func() {
		runs, res, err = replay(context.Background(), f.in, f.cases[0].proof, f.fam.scheme.Verifier(), fleetWorkers, true)
	})
	if err == nil {
		err = f.cases[0].verifyResult(res, f.in.G.N())
	}
	f.tally.record(err)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	var buf []byte
	ms, err := p.times("transport.AppendData+DecodeData", 20, func(int) error {
		for _, sr := range runs {
			for _, fr := range sr.tr.frames {
				buf = transport.AppendData(buf[:0], fr.hdr, fr.dels)
				if _, _, err := transport.DecodeData(buf); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	f.put("transport.codec_us_per_check", "us", median(ms)*1e3)
	return nil
}
