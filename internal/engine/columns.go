package engine

import (
	"context"

	"lcp/internal/core"
	"lcp/internal/obs"
)

// CheckProofCtx verifies one proof on the cached views: the column walk
// of CheckBatchCtx with a single column. Verdict-for-verdict identical
// to core.Check(in, p, v), at a fraction of the per-proof cost once the
// radius is warm. A context already done fails fast with ctx.Err(), and
// one cancelled mid-walk stops it at the next node boundary; either way
// the result is nil. A context-carried obs.Timeline receives the
// per-stage breakdown ("engine.views", "engine.verify").
func (e *Engine) CheckProofCtx(ctx context.Context, p core.Proof, v core.Verifier) (*core.Result, error) {
	out, err := e.CheckBatchCtx(ctx, []core.Proof{p}, v)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// CheckBatchCtx verifies many proofs in one pass over the cached
// skeletons: the batch is loaded into a node-major core.ProofColumns
// table and each node is visited once, evaluating all k columns against
// the same skeleton before moving on. Results are one per proof in
// order, verdict-for-verdict identical to core.Check.
//
// Two things make this cheaper than k independent walks. The ball walk
// itself — skeleton fetch, view copy, locality bookkeeping — is paid
// once per node instead of once per (node, proof). And because a
// verifier's output at v is a function of the radius-r view alone (the
// model's locality definition, see the core package comment), columns
// whose entries agree on every ball member of v must receive the same
// verdict there — so the engine verifies one representative per group
// of identical ball restrictions and copies the verdict to the rest. A
// tampering sweep (k near-identical proofs) collapses to roughly one
// verification per node plus cheap column compares. The dedup assumes
// verifiers are deterministic and read the proof only through
// View.ProofOf/BallProof — both already part of the Verifier contract.
//
// The walk aborts at the next node boundary once the context is done.
// No column has a complete verdict until the walk finishes, so the
// batch fails as a unit: cancellation returns nil results together
// with ctx.Err(). A context-carried obs.Timeline receives the
// "engine.views" and "engine.verify" stages, once for the whole batch.
func (e *Engine) CheckBatchCtx(ctx context.Context, proofs []core.Proof, v core.Verifier) ([]*core.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	k := len(proofs)
	if k == 0 {
		return []*core.Result{}, nil
	}
	tl := obs.TimelineFrom(ctx)
	cache := e.cacheFor(v.Radius(), tl)
	views := cache.views
	var balls [][]int32
	if k > 1 {
		balls = cache.ballIndexes(e.in.G)
	}
	pc := e.columnsFor(proofs)
	defer e.releaseColumns(pc)
	nodes := e.in.G.Nodes()
	// One node-major cell per (node, column); each cell is written by
	// exactly one range worker (the one owning the node), so the slice
	// needs no synchronization.
	outs := make([]bool, len(nodes)*k)
	stop := tl.Start("engine.verify")
	done := ctx.Done()
	forEachRange(len(nodes), e.opt.workers(), func(lo, hi int) {
		// reps holds, per node, one column index per distinct ball
		// restriction seen so far — the columns actually verified.
		reps := make([]int32, 0, 16)
		var w core.View
		for i := lo; i < hi; i++ {
			select {
			case <-done:
				return
			default:
			}
			base := i * k
			w = *views[i]
			reps = reps[:0]
		columns:
			for j := 0; j < k; j++ {
				for _, r := range reps {
					if sameOnBall(pc, balls[i], j, int(r)) {
						outs[base+j] = outs[base+int(r)]
						continue columns
					}
				}
				reps = append(reps, int32(j))
				w.Flat = pc.Column(j)
				outs[base+j] = v.Verify(&w)
			}
		}
	})
	stop()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	results := make([]*core.Result, k)
	for j := range results {
		m := make(map[int]bool, len(nodes))
		for i, id := range nodes {
			m[id] = outs[i*k+j]
		}
		results[j] = &core.Result{Outputs: m}
	}
	return results, nil
}

// CheckBatchColumnsCtx is CheckBatchCtx under its older name, kept for
// the benchmark's layer probes (perfbench/layers_serve.go).
func (e *Engine) CheckBatchColumnsCtx(ctx context.Context, proofs []core.Proof, v core.Verifier) ([]*core.Result, error) {
	return e.CheckBatchCtx(ctx, proofs, v)
}

// sameOnBall reports whether columns j and r agree on every ball member
// of the node being visited — the precondition for sharing a verdict.
func sameOnBall(pc *core.ProofColumns, ball []int32, j, r int) bool {
	for _, bi := range ball {
		if !pc.SameAt(int(bi), j, r) {
			return false
		}
	}
	return true
}

// columnsFor draws a pooled proof table and loads the proofs into it.
// The table is owned by one check; return it with releaseColumns once
// its walk is done.
func (e *Engine) columnsFor(proofs []core.Proof) *core.ProofColumns {
	//lint:ignore poolput ownership transfer: the check that called columnsFor returns the table via releaseColumns once its walk finishes
	pc, ok := e.columns.Get().(*core.ProofColumns)
	if !ok {
		pc = core.NewProofColumns(e.in.G)
	}
	pc.Load(proofs)
	return pc
}

func (e *Engine) releaseColumns(pc *core.ProofColumns) { e.columns.Put(pc) }
