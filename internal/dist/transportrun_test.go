package dist_test

// The round runner's contract at the Shard level: shards wired from
// per-shard plans and run over an in-process transport group are
// verdict-identical to core.Check across the whole catalog — honest,
// tampered, and truncated proofs, every partitioner, shard counts that
// force real cut-edge traffic — including when each shard is wired from
// its nodes' decoded round-0 records, as a dist-tcp worker does; and a
// failed check unblocks the whole group within bounded time instead of
// deadlocking a gate.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"lcp"
	"lcp/internal/bitstr"
	"lcp/internal/core"
	"lcp/internal/dist"
	"lcp/internal/graph"
	"lcp/internal/partition"
	"lcp/internal/transport"
)

// workerShards wires the shards of a partitioned instance the way a
// dist-tcp worker does: from its plan's records after a trip through
// the wire codec, under the assignment of just the nodes those records
// name, knowing only the graph kind and Global besides.
func workerShards(t *testing.T, in *core.Instance, shards int, pt partition.Partitioner) []*dist.Shard {
	t.Helper()
	plans, err := dist.PlanShards(in, shards, pt)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*dist.Shard, len(plans))
	for s, plan := range plans {
		recs, assign := plan.Records(), map[int]int{}
		for _, rec := range recs {
			for _, w := range rec.Nbrs {
				assign[w] = plan.Assign[w]
			}
			assign[rec.ID] = plan.Assign[rec.ID]
		}
		recs, err := transport.DecodeRecords(transport.AppendRecords(nil, recs))
		if err != nil {
			t.Fatalf("shard %d: decode records: %v", s, err)
		}
		if out[s], err = dist.WireRecords(s, in.G.Kind(), in.Global, recs, assign); err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
	}
	return out
}

func TestCheckTransportMatchesCoreOnCatalog(t *testing.T) {
	const n = 12
	ctx := context.Background()
	partitioners := []partition.Partitioner{partition.Contiguous{}, partition.BFSChunks{}}
	for _, exp := range lcp.Catalog() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			t.Parallel()
			size := n
			if size < exp.MinN {
				size = exp.MinN
			}
			in := exp.MakeYes(size, 1)
			honest, err := exp.Scheme.Prove(in)
			if err != nil {
				t.Fatalf("prove: %v", err)
			}
			v := exp.Scheme.Verifier()
			proofs := []core.Proof{honest, core.FlipBit(honest, 0), honest.Truncated(1)}
			labels := []string{"honest", "tampered", "truncated"}
			for _, shards := range []int{1, 3, 4} {
				for _, pt := range partitioners {
					wired := workerShards(t, in, shards, pt)
					for pi, p := range proofs {
						want := core.Check(in, p, v)
						got, err := runShards(ctx, wired, p, v, nil)
						if err != nil {
							t.Fatalf("%s/%d-shards/%s: %v", labels[pi], shards, pt.Name(), err)
						}
						if !reflect.DeepEqual(got, want.Outputs) {
							t.Fatalf("%s/%d-shards/%s: outputs differ:\n got %v\nwant %v",
								labels[pi], shards, pt.Name(), got, want.Outputs)
						}
					}
				}
			}
		})
	}
}

// TestCheckTransportCancellation: a cancelled context aborts the group
// between rounds with the context's error, promptly, on every shard.
func TestCheckTransportCancellation(t *testing.T) {
	exp := widestExperiment(t)
	in := exp.MakeYes(64, 1)
	p, err := exp.Scheme.Prove(in)
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() {
		_, err := runShards(ctx, workerShards(t, in, 4, partition.BFSChunks{}), p, exp.Scheme.Verifier(), nil)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled transport check returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled transport check hung")
	}
}

// widestExperiment picks the catalog experiment with the largest
// verifier radius, so multi-round flooding (and with it mid-run
// cancellation windows) actually happens.
func widestExperiment(t *testing.T) lcp.Experiment {
	t.Helper()
	var best lcp.Experiment
	bestR := -1
	for _, exp := range lcp.Catalog() {
		if r := exp.Scheme.Verifier().Radius(); r > bestR {
			best, bestR = exp, r
		}
	}
	if bestR < 1 {
		t.Fatal("catalog has no scheme with radius >= 1")
	}
	return best
}

// TestCheckTransportPropagatesVerifierPanic: a panicking verifier
// becomes an error for the whole check, at every layout, and the
// poisoned group still unwinds every other shard.
func TestCheckTransportPropagatesVerifierPanic(t *testing.T) {
	exp := widestExperiment(t)
	in := exp.MakeYes(24, 1)
	p, err := exp.Scheme.Prove(in)
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	bomb := core.VerifierFunc{
		R: exp.Scheme.Verifier().Radius(),
		F: func(w *core.View) bool { panic(fmt.Sprintf("bomb at %d", w.Center)) },
	}
	for _, shards := range []int{1, 3, in.G.N()} {
		if _, err := dist.CheckWithCtx(context.Background(), in, p, bomb, dist.Options{Shards: shards}); err == nil {
			t.Fatalf("shards=%d: panicking verifier produced no error", shards)
		}
	}
}

// cancelAt wraps one shard's transport and cancels the check's context
// as that shard enters the given round: a deterministic mid-flood
// abort.
type cancelAt struct {
	transport.Transport
	round  int
	cancel context.CancelFunc
}

func (c cancelAt) Exchange(ctx context.Context, round int) ([]transport.Delivery, error) {
	if round == c.round {
		c.cancel()
	}
	return c.Transport.Exchange(ctx, round)
}

// runShards runs one check over shards wired once, each check over a
// fresh in-process group — the way a worker keeps its shard across
// checks but opens a fresh data plane for each. wrap, when non-nil,
// wraps each shard's transport.
func runShards(ctx context.Context, shards []*dist.Shard, p core.Proof, v core.Verifier, wrap func(int, transport.Transport) transport.Transport) (map[int]bool, error) {
	trs := transport.NewInProcGroup(len(shards))
	outs := make([][]bool, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for s, sh := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { _ = trs[s].Close() }()
			var tr transport.Transport = trs[s]
			if wrap != nil {
				tr = wrap(s, tr)
			}
			outs[s], errs[s] = sh.Run(ctx, tr, p, v)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	merged := map[int]bool{}
	for s, sh := range shards {
		for i, id := range sh.Owned() {
			merged[id] = outs[s][i]
		}
	}
	return merged, nil
}

// TestShardReuseMatchesCore: on every catalog instance, shards wired
// once by NewShard serve alternating honest, tampered and truncated
// proofs with core.Check's verdicts every time — cold, freezing, and
// warm, where a check writes each proof into the frozen views: proofs
// whose strings change length, and whose entries come and go (an
// explicit ε is not a missing entry). A verifier of another radius
// thaws the shards, and switching back freezes them again. A run
// aborted mid-flood leaves them reusable — the next run reseeds every
// automaton.
func TestShardReuseMatchesCore(t *testing.T) {
	const n, shardCount = 12, 3
	rejecting := 0
	for _, exp := range lcp.Catalog() {
		size := n
		if size < exp.MinN {
			size = exp.MinN
		}
		in := exp.MakeYes(size, 1)
		honest, err := exp.Scheme.Prove(in)
		if err != nil {
			t.Fatalf("%s: prove: %v", exp.ID, err)
		}
		v := exp.Scheme.Verifier()
		assign := partition.BFSChunks{}.Assign(in.G, shardCount)
		groups := partition.Groups(in.G, assign, shardCount)
		assignByID := map[int]int{}
		for i, id := range in.G.Nodes() {
			assignByID[id] = assign[i]
		}
		shards := make([]*dist.Shard, shardCount)
		for s := range shards {
			if shards[s], err = dist.NewShard(dist.ShardPlan{In: in, Owned: groups[s], Assign: assignByID}, s); err != nil {
				t.Fatalf("%s: shard %d: %v", exp.ID, s, err)
			}
		}
		ctx := context.Background()
		check := func(label string, p core.Proof, v core.Verifier) {
			t.Helper()
			got, err := runShards(ctx, shards, p, v, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", exp.ID, label, err)
			}
			want := core.Check(in, p, v)
			if !reflect.DeepEqual(got, want.Outputs) {
				t.Fatalf("%s/%s: outputs differ:\n got %v\nwant %v", exp.ID, label, got, want.Outputs)
			}
			if !want.Accepted() {
				rejecting++
			}
		}
		tampered, truncated := core.FlipBit(honest, 0), honest.Truncated(1)
		// One node's entry, edited: a bit longer, a bit shorter (ε
		// when it had one bit), explicitly ε, and missing.
		mid := in.G.Nodes()[in.G.N()/2]
		edit := func(f func(p core.Proof)) core.Proof {
			p := honest.Clone()
			f(p)
			return p
		}
		longer := edit(func(p core.Proof) { p[mid] = p[mid].Concat(bitstr.FromBools(true)) })
		shorter := edit(func(p core.Proof) { p[mid] = p[mid].Truncate(max(p[mid].Len()-1, 0)) })
		empty := edit(func(p core.Proof) { p[mid] = bitstr.Empty })
		removed := edit(func(p core.Proof) { delete(p, mid) })
		sequence := []core.Proof{honest, tampered, truncated, honest, truncated, tampered,
			longer, honest, shorter, removed, honest, empty, removed, longer, tampered}
		for i, p := range sequence {
			check(fmt.Sprintf("check-%d", i), p, v)
		}
		// Another radius runs cold (and freezes for itself), then the
		// scheme's radius does the same again. The wider verifier
		// decides as the scheme's, on the view restricted to its radius.
		wider := core.VerifierFunc{R: v.Radius() + 1, F: func(w *core.View) bool {
			return v.Verify(w.Restrict(v.Radius(), w.BallProof()))
		}}
		for i, p := range sequence[:4] {
			check(fmt.Sprintf("wider-%d", i), p, wider)
		}
		for i, p := range sequence[:4] {
			check(fmt.Sprintf("back-%d", i), p, v)
		}
		if v.Radius() < 1 {
			continue
		}
		cctx, cancel := context.WithCancel(ctx)
		_, err = runShards(cctx, shards, tampered, v, func(s int, tr transport.Transport) transport.Transport {
			if s != 0 {
				return tr
			}
			return cancelAt{Transport: tr, round: v.Radius(), cancel: cancel}
		})
		cancel()
		if err == nil {
			t.Fatalf("%s: run cancelled in its last round succeeded", exp.ID)
		}
		check("honest-after-abort", honest, v)
	}
	if rejecting == 0 {
		t.Fatal("no check rejected anywhere: the proof sequence cannot tell a stale shard from a reseeded one")
	}
}

// TestNewShardRejectsMalformedPlan: every plan error surfaces when the
// shard is wired, before any check.
func TestNewShardRejectsMalformedPlan(t *testing.T) {
	in := lcp.NewInstance(graph.Path(3))
	for _, tc := range []struct {
		name string
		plan dist.ShardPlan
	}{
		{"owned-node-absent", dist.ShardPlan{In: in, Owned: []int{1, 9}, Assign: map[int]int{1: 0, 2: 0, 9: 0}}},
		{"neighbor-unassigned", dist.ShardPlan{In: in, Owned: []int{1}, Assign: map[int]int{1: 0}}},
		{"neighbor-assigned-not-owned", dist.ShardPlan{In: in, Owned: []int{1}, Assign: map[int]int{1: 0, 2: 0}}},
	} {
		if _, err := dist.NewShard(tc.plan, 0); err == nil {
			t.Fatalf("%s: NewShard accepted the plan", tc.name)
		}
	}
}

// TestWireRecordsRejectsMalformedRecords: records a worker cannot wire
// — they repeat a node, or name an edge that is not the node's own —
// fail at wiring, before any check; the well-formed list wires. A
// record names its edges by neighbour and split (transport.Record), so
// an edge of another node is a split outside the neighbour list.
func TestWireRecordsRejectsMalformedRecords(t *testing.T) {
	// rec builds node id's record from its edge keys, each (w, id) or
	// (id, w).
	rec := func(id int, edges ...graph.Edge) transport.Record {
		var lo, hi []int
		for _, e := range edges {
			if e.V == id {
				lo = append(lo, e.U)
			} else {
				hi = append(hi, e.V)
			}
		}
		return transport.Record{ID: id, Nbrs: append(lo, hi...), Lo: int32(len(lo))}
	}
	edge := func(u, v int) graph.Edge { return graph.Edge{U: u, V: v} }
	split := func(r transport.Record, lo int32) transport.Record { r.Lo = lo; return r }
	misaligned := rec(1, edge(1, 2))
	misaligned.Inputs = make([]transport.EdgeInput, 2)
	assign := map[int]int{1: 0, 2: 0, 3: 1}
	for _, tc := range []struct {
		name string
		kind graph.Kind
		recs []transport.Record
		want string
	}{
		{"well-formed", graph.Undirected, []transport.Record{rec(1, edge(1, 2)), rec(2, edge(1, 2), edge(2, 3))}, ""},
		{"well-formed-directed", graph.Directed, []transport.Record{rec(1, edge(2, 1)), rec(2, edge(2, 1), edge(3, 2))}, ""},
		{"duplicate-record", graph.Undirected, []transport.Record{rec(1, edge(1, 2)), rec(2, edge(1, 2)), rec(1)}, "duplicate"},
		{"edge-not-incident", graph.Undirected, []transport.Record{split(rec(1, edge(1, 2)), 2)}, "not an edge of node 1"},
		{"split-negative", graph.Undirected, []transport.Record{split(rec(1, edge(1, 2)), -1)}, "not an edge of node 1"},
		{"inputs-misaligned", graph.Undirected, []transport.Record{misaligned}, "2 edge inputs for 1 edges"},
		{"loop", graph.Directed, []transport.Record{rec(1, edge(1, 1))}, "not an edge of node 1"},
		{"undirected-edge-not-normalized", graph.Undirected, []transport.Record{rec(2, edge(2, 1))}, "not an edge of node 2"},
		{"neighbor-unassigned", graph.Undirected, []transport.Record{rec(3, edge(3, 4))}, "no shard assignment"},
		{"neighbor-assigned-not-owned", graph.Undirected, []transport.Record{rec(1, edge(1, 2))}, "not owned"},
	} {
		_, err := dist.WireRecords(0, tc.kind, nil, tc.recs, assign)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Fatalf("%s: WireRecords error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}
