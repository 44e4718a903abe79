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
// core.BuildView and Check to core.Check — a property the tests assert —
// but the information only ever travels along edges.
//
// There is one round runner over a Transport: Shard.Run. A Shard is a
// group of node automata wired once (NewShard); each round it merges
// same-shard deliveries directly and hands every cut edge's batch to a
// transport.Transport, whose Exchange and Barrier keep all shards in
// lockstep. Every distributed path is this runner:
//
//   - Network (and Check, CheckWith, Collect on top of it) partitions
//     the instance once into Options.Shards groups (GOMAXPROCS by
//     default, cut by Options.Partitioner), keeps prewired shard sets,
//     and runs each check as one goroutine per shard over a fresh
//     transport.InProc group. Shards: n is the goroutine-per-node
//     layout — the faithful reading of "a network of independent
//     processors" — and needs no code of its own;
//   - the dist-tcp workers of internal/remote run one Shard each over
//     transport.TCP.
//
// The in-process parallel check that sidesteps message passing is the
// cached-view engine (internal/engine); core.Check stays the sequential
// reference.
//
// Each node assembles its view incrementally: the induced edges of the
// ball are collected as records arrive (see node.learn) and the ball
// graph is frozen through graph.FromParts, so the per-node
// induced-subgraph rebuild is amortized into the flooding rounds.
package dist
