package dist_test

// The warm path: once a wired shard has frozen its automata's balls, a
// check floods bare records — id and proof — for exactly the verifier's
// rounds, and a record the shard's warmth cannot take fails the run
// instead of changing a verdict.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"lcp"
	"lcp/internal/core"
	"lcp/internal/dist"
	"lcp/internal/graph"
	"lcp/internal/partition"
	"lcp/internal/transport"
)

// recording wraps a shard's transport and keeps every round it
// exchanged and every record it staged for a peer.
type recording struct {
	transport.Transport
	rounds []int
	sent   []transport.Record
}

func (r *recording) Send(peer, dst int, recs transport.Batch) {
	for _, rec := range recs {
		r.sent = append(r.sent, *rec)
	}
	r.Transport.Send(peer, dst, recs)
}

func (r *recording) Exchange(ctx context.Context, round int) ([]transport.Delivery, error) {
	r.rounds = append(r.rounds, round)
	return r.Transport.Exchange(ctx, round)
}

// proofVerifier accepts when the view's proof bits, labels, weights and
// shape hash to an even value: its verdicts depend on everything a view
// carries.
func proofVerifier(r int) core.Verifier {
	return core.VerifierFunc{R: r, F: func(w *core.View) bool {
		h := len(w.Nodes()) + int(w.Global["k"])
		for _, u := range w.Nodes() {
			d, _ := w.Dist(u)
			h = 31*h + d + len(w.Label(u)) + 7*w.ProofOf(u).Len()
			if s := w.ProofOf(u); s.Len() > 0 && s.Bit(0) {
				h += 3
			}
			for _, x := range w.Neighbors(u) {
				h += int(w.Weight(u, x)) + len(w.EdgeLabel(u, x))
			}
		}
		return h%2 == 0
	}}
}

// TestWarmChecksFloodBareRecords: from a wired shard set's third check
// at one radius on, every shard exchanges exactly the verifier's rounds
// and every record it sends is bare — no label, no edge — while the
// verdicts stay core.Check's. The first two checks flood full records.
func TestWarmChecksFloodBareRecords(t *testing.T) {
	in := dist.LabelledGrid()
	for _, r := range []int{1, 2, 3} {
		v := proofVerifier(r)
		shards := workerShards(t, in, 3, partition.BFSChunks{})
		for i := range 6 {
			p := core.RandomProof(in, 3, int64(10*r+i))
			recs := make([]*recording, len(shards))
			got, err := runShards(context.Background(), shards, p, v, func(s int, tr transport.Transport) transport.Transport {
				recs[s] = &recording{Transport: tr}
				return recs[s]
			})
			label := fmt.Sprintf("radius %d, check %d", r, i)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			resultsEqual(t, label, &core.Result{Outputs: got}, core.Check(in, p, v))
			warm := i >= 2
			for s, rec := range recs {
				if len(rec.rounds) != r {
					t.Fatalf("%s: shard %d exchanged rounds %v, want %d", label, s, rec.rounds, r)
				}
				if len(rec.sent) == 0 {
					t.Fatalf("%s: shard %d sent nothing: the partition cut no edge", label, s)
				}
				for _, x := range rec.sent {
					if x.Bare != warm {
						t.Fatalf("%s: shard %d sent a record with Bare=%v", label, s, x.Bare)
					}
					if warm && (x.HasLabel || x.Label != "" || len(x.Nbrs) > 0 || x.Inputs != nil) {
						t.Fatalf("%s: shard %d sent a warm record carrying knowledge: %+v", label, s, x)
					}
				}
			}
		}
	}
}

// rewrite wraps a shard's transport and rewrites every delivery's
// records before the shard merges them.
type rewrite struct {
	transport.Transport
	f func(transport.Record) transport.Record
}

func (w rewrite) Exchange(ctx context.Context, round int) ([]transport.Delivery, error) {
	dels, err := w.Transport.Exchange(ctx, round)
	out := make([]transport.Delivery, len(dels))
	for i, d := range dels {
		recs := make(transport.Batch, len(d.Recs))
		for j, rec := range d.Recs {
			x := w.f(*rec)
			recs[j] = &x
		}
		out[i] = transport.Delivery{Dst: d.Dst, Recs: recs}
	}
	return out, err
}

// TestShardRejectsRecordsItsWarmthCannotTake: a bare record reaching a
// cold automaton, a full record reaching a warm one, and a record from
// outside a frozen ball each fail the run with an error rather than a
// verdict; the shards that meet such a record thaw, so the group checks
// correctly again soon after.
func TestShardRejectsRecordsItsWarmthCannotTake(t *testing.T) {
	in := dist.LabelledGrid()
	v := proofVerifier(2)
	p := core.RandomProof(in, 3, 1)
	want := core.Check(in, p, v)
	bare := func(rec transport.Record) transport.Record {
		return transport.Record{ID: rec.ID, Proof: rec.Proof, HasProof: rec.HasProof, Bare: true}
	}
	full := func(rec transport.Record) transport.Record {
		rec.Bare = false
		return rec
	}
	stranger := func(rec transport.Record) transport.Record {
		rec.ID = 1000 + rec.ID
		return rec
	}
	for _, tc := range []struct {
		name   string
		warmup int // checks before the tampered one
		f      func(transport.Record) transport.Record
		want   string
	}{
		{"bare-to-cold", 0, bare, "reached a cold automaton"},
		{"bare-to-freezing", 1, bare, "reached a cold automaton"},
		{"full-to-warm", 2, full, "reached a warm automaton"},
		{"outside-the-ball", 2, stranger, "outside its frozen ball"},
	} {
		shards := workerShards(t, in, 2, partition.BFSChunks{})
		run := func(wrap func(int, transport.Transport) transport.Transport) error {
			got, err := runShards(context.Background(), shards, p, v, wrap)
			if err == nil {
				resultsEqual(t, tc.name, &core.Result{Outputs: got}, want)
			}
			return err
		}
		for i := range tc.warmup {
			if err := run(nil); err != nil {
				t.Fatalf("%s: warm-up check %d: %v", tc.name, i, err)
			}
		}
		err := run(func(s int, tr transport.Transport) transport.Transport {
			if s != 0 {
				return tr
			}
			return rewrite{Transport: tr, f: tc.f}
		})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: run error %v, want one saying %q", tc.name, err, tc.want)
		}
		// The shard that failed on the record thawed, its peer may not
		// have: the group agrees again after at most one more failed
		// run, and meanwhile never returns a wrong verdict.
		_ = run(nil)
		for i := range 4 {
			if err := run(nil); err != nil {
				t.Fatalf("%s: check %d after the failure: %v", tc.name, i, err)
			}
		}
	}
}

// TestNetworkCancelledOnFrozenWiring: a reused Network whose wiring has
// frozen, cancelled in the middle of a warm flood, is not left with a
// wiring whose shards disagree: the next checks match core.Check, and
// the failed wiring is dropped rather than pooled.
func TestNetworkCancelledOnFrozenWiring(t *testing.T) {
	in := lcp.NewInstance(lcp.RandomConnected(40, 0.1, 5))
	v := proofVerifier(3)
	for _, shards := range []int{1, 3, in.G.N()} {
		label := fmt.Sprintf("shards=%d", shards)
		nw, err := dist.NewNetwork(in, dist.Options{Shards: shards, Partitioner: partition.BFSChunks{}})
		if err != nil {
			t.Fatal(err)
		}
		check := func(seed int64) {
			t.Helper()
			p := core.RandomProof(in, 4, seed)
			got, err := nw.CheckCtx(context.Background(), p, v)
			if err != nil {
				t.Fatalf("%s: check %d: %v", label, seed, err)
			}
			resultsEqual(t, fmt.Sprintf("%s: check %d", label, seed), got, core.Check(in, p, v))
		}
		for seed := range int64(3) {
			check(seed)
		}
		before := dist.Metrics().Wirings
		// Entry, one per shard at its start, one per shard per round:
		// the cancellation lands in round 2.
		ctx := newCancelAfter(2 + 2*shards)
		if _, err := nw.CheckCtx(ctx, core.RandomProof(in, 4, 99), v); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled warm check returned %v, want context.Canceled", label, err)
		}
		for seed := int64(3); seed < 8; seed++ {
			check(seed)
		}
		if built := dist.Metrics().Wirings - before; built != 1 {
			t.Fatalf("%s: %v wirings built after the cancelled check, want 1 (the failed one dropped, not pooled)", label, built)
		}
		nw.Close()
	}
}

// dropRound wraps a shard's transport and loses every delivery of one
// round, so the shard's automata miss members they expect.
type dropRound struct {
	transport.Transport
	round int
}

func (d dropRound) Exchange(ctx context.Context, round int) ([]transport.Delivery, error) {
	dels, err := d.Transport.Exchange(ctx, round)
	if round == d.round {
		return nil, err
	}
	return dels, err
}

// poisonedBarrier wraps a shard's transport and fails its Barrier of one
// round with the group's poison once the whole group has passed it: the
// shard sees a failure that is not its own, where its peers see none.
type poisonedBarrier struct {
	transport.Transport
	round int
}

func (b poisonedBarrier) Barrier(ctx context.Context, round int) error {
	if err := b.Transport.Barrier(ctx, round); err != nil || round != b.round {
		return err
	}
	return &transport.Error{Transport: b.Name(), Round: round, Err: transport.ErrClosed}
}

// TestFailedRunsThawTheirShards: a warm group of three shards on a
// path, whose ends share no cut edge, ends one run three ways — the
// middle shard succeeds, one end misses members (a warmth failure), the
// other end sees only the group's poison. Every failed run thaws its
// shard, so the group checks correctly again after at most one more
// failed run.
func TestFailedRunsThawTheirShards(t *testing.T) {
	in := lcp.NewInstance(graph.Path(12))
	v := proofVerifier(1)
	shards := workerShards(t, in, 3, partition.Contiguous{})
	run := func(seed int64, wrap func(int, transport.Transport) transport.Transport) error {
		p := core.RandomProof(in, 3, seed)
		got, err := runShards(context.Background(), shards, p, v, wrap)
		if err == nil {
			resultsEqual(t, fmt.Sprintf("check %d", seed), &core.Result{Outputs: got}, core.Check(in, p, v))
		}
		return err
	}
	for seed := range int64(3) { // cold, freezing, warm
		if err := run(seed, nil); err != nil {
			t.Fatalf("check %d: %v", seed, err)
		}
	}
	err := run(3, func(s int, tr transport.Transport) transport.Transport {
		switch s {
		case 0:
			return dropRound{Transport: tr, round: 1}
		case 2:
			return poisonedBarrier{Transport: tr, round: 1}
		}
		return tr
	})
	if err == nil || !errors.Is(err, transport.ErrClosed) || !strings.Contains(err.Error(), "warm flood reached") {
		t.Fatalf("uneven run returned %v, want a missed member and the poison", err)
	}
	_ = run(4, nil)
	for seed := int64(5); seed < 10; seed++ {
		if err := run(seed, nil); err != nil {
			t.Fatalf("check %d, the second after the uneven run: %v", seed, err)
		}
	}
}
