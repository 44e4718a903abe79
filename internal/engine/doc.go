// Package engine is the long-lived, amortized verification service for
// locally checkable proofs: one Engine per instance, many proofs.
//
// The one-shot runners (core.Check, dist.Check) pay for view
// construction on every call — a BFS ball, an induced subgraph, and the
// label restriction per node. But an LCP workload verifies the same
// graph against many proofs (tampering sweeps, adversary searches,
// Table-1 regeneration, a verification service's request stream), and
// the radius-r view (G[v,r], v) of §2.1 depends only on the graph and
// the input labelling, never on the proof P. The Engine therefore
// precomputes one proof-free view skeleton per node per radius, caches
// it, and serves each check from the cache. The cache is keyed and
// invalidated per radius, so verifiers with different horizons share
// the instance without interfering.
//
// Proofs take the flat path on the cached routes: instead of restricting
// the map-backed core.Proof into a fresh per-ball map for every node of
// every proof, a check loads the proof once into a pooled core.FlatProof
// — a node-indexed slice aligned with the instance's node order — and
// every node's shallow-copied skeleton shares it read-only, with ball
// restriction enforced by View.ProofOf against the skeleton's distance
// map. The per-proof cost is one O(n) load plus the verifier's own work.
//
// Three serving shapes are exposed:
//
//   - CheckProof / CheckBatch: sharded over a bounded worker pool
//     (contiguous node ranges, the shared-memory path);
//   - CheckBatchColumns: the column-wise batch path — the k proofs of
//     one batch load into a node-major core.ProofColumns table and a
//     single walk over the cached skeletons evaluates all k columns per
//     node, copying verdicts between columns whose ball-restrictions
//     agree (sound by the locality contract) instead of re-running the
//     verifier;
//   - CheckStream: verdicts stream over a channel as each node decides,
//     with early exit on context cancellation — callers stop paying the
//     moment the first rejection arrives.
//
// The message-passing runtime lives in internal/dist; the engine only
// lends it HaloInstance, the radius-r halo cutter the multi-process
// coordinator uses to ship each worker its shard.
//
// Verdicts are identical to core.Check on every path; the property
// tests sweep the whole catalog, including tampered and truncated
// proofs, to assert it.
package engine
