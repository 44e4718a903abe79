// Package engine is the long-lived, amortized verification service for
// locally checkable proofs: one Engine per instance, many proofs.
//
// The one-shot runners (core.Check, dist.CheckWithCtx) pay for the
// ball walk on every call — one BFS per node. But an LCP workload
// verifies the same graph against many proofs (tampering sweeps,
// adversary searches, Table-1 regeneration, a verification service's
// request stream), and the radius-r ball of §2.1 depends only on the
// graph, never on the proof P. The Engine therefore indexes every
// node's ball once per radius — one slab of three flat arrays for the
// whole instance: row offsets, member positions and distances — and
// serves each check from it. The index is keyed and invalidated per
// radius, so verifiers with different horizons share the instance
// without interfering.
//
// A check loads its proofs once into a pooled node-major
// core.ProofColumns table, and each range worker points one reused
// core.View at the next node's slab row (View.SetBall) and attaches
// each column of that table in turn (View.SetProof, which keeps the
// ball and any induced graph built for it); the view restricts the
// proof to the ball by membership, and builds no map and no induced
// graph unless the verifier asks for one. The per-proof cost is one
// O(n) load plus the verifier's own work.
//
// Every check runs one walk, the column walk: contiguous node ranges
// sharded over a bounded worker pool, each node visited once and every
// column evaluated against its slab row, with verdicts copied between
// columns whose ball restrictions agree (sound by the locality
// contract) instead of re-running the verifier. It serves three
// shapes:
//
//   - CheckProofCtx, one column, and CheckBatchCtx, k columns: complete
//     results or none;
//   - CheckStream, one column whose verdicts stream over a channel as
//     each node decides, with early exit on context cancellation —
//     callers stop paying the moment the first rejection arrives.
//
// Verdicts are identical to core.Check on every path; the property
// tests sweep the whole catalog, including tampered and truncated
// proofs, to assert it.
package engine
