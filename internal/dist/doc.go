// Package dist is the LOCAL-model runtime for locally checkable proofs
// (Göös & Suomela, PODC 2011): it executes the verifiers of package core
// on a synchronous message-passing network.
//
// Execution follows the model of §2.1 literally. Every node starts
// knowing only its own identifier, proof string, input labels and
// incident edges. In each communication round it sends what it learned in
// the previous round to all neighbours and merges what arrives; after r
// rounds it has assembled exactly the radius-r view (G[v,r], P[v,r], v)
// and decides locally. Collect is therefore observationally equivalent to
// core.BuildView and CheckWithCtx to core.Check — a property the tests
// assert — but the information only ever travels along edges.
//
// There is one round runner over a Transport: Shard.Run. A Shard is a
// group of node automata wired once (NewShard); each round it merges
// same-shard deliveries directly and hands every cut edge's batch to a
// transport.Transport, whose Exchange and Barrier keep all shards in
// lockstep. Every distributed path is this runner:
//
//   - Network (and CheckWithCtx, Collect on top of it) partitions
//     the instance once into Options.Shards plans (GOMAXPROCS by
//     default, cut by Options.Partitioner) and runs each check on a
//     pooled Group, merging its verdicts with MergeVerdicts. In
//     process (NewNetwork) a group is a prewired shard set run as one
//     goroutine per shard over a transport.InProc group, which it keeps
//     while its runs succeed. Shards: n is the goroutine-per-node
//     layout — the faithful reading of "a network of independent
//     processors" — and needs no code of its own;
//   - across processes (NewNetworkWith and internal/remote's Fleet) a
//     group is a registration on a worker fleet, whose dist-tcp
//     workers run one Shard each over transport.TCP.
//
// The in-process parallel check that sidesteps message passing is the
// cached-view engine (internal/engine); core.Check stays the sequential
// reference.
//
// Each node assembles only what its verifier reads, as core's views do:
// arrivals join the ball without an edge scan (see node.learn), the ball
// graph holds the edges of the inner members' records (distance < r),
// and the edges between two boundary members are added only when a
// verifier first reads one (node.assemble, completeRim). A radius-1
// ball is a star until then. A shard assembles all its cold views in
// one arena, reused node after node and check after check, so a view
// is valid only during its Verify; Collect returns a copy of its
// center's.
//
// A wired shard's checks go cold, then warm. The configuration — graph,
// labels, weights — is fixed for a shard's life; only the proof changes
// between checks. So a shard's second check at a radius freezes every
// automaton's assembled view, and from the third on a check floods
// bare records (id and proof) for the same r rounds, writes each
// arriving proof string into the frozen view, and decides on it: a warm
// check moves and writes proof bits only. A record the automaton's
// warmth cannot take fails the run. The one-shot paths (CheckWithCtx,
// Collect, RunShard) run a shard once, so they never freeze and never
// retain a ball.
package dist
