// Package partition assigns graph nodes to runtime shards.
//
// Every sharded execution layer in the repository — the dist runtime's
// shard goroutines, the dist-tcp workers' halo sub-instances, and the
// worker pools that split node ranges — ultimately needs a map from
// nodes to shards. The LOCAL model charges only for communication
// rounds, but the simulation's wall-clock cost is dominated by
// cross-shard message traffic: a same-shard edge is a direct merge,
// while a cross-shard edge costs a transport delivery per direction per
// round (wire bytes on dist-tcp) and widens the owning workers' halos.
// This package therefore
// treats partitioning as a quality problem, not an indexing detail: the
// Partitioner interface produces a node→shard assignment, and the three
// implementations trade assignment cost against cut quality.
//
//   - Contiguous chunks the ascending identifier order into near-equal
//     ranges. It is free to compute and ideal when identifiers happen to
//     follow topology (paths, cycles, freshly generated grids), but on
//     scrambled identifiers it degenerates to a random partition.
//   - BFSChunks chunks a breadth-first order instead, so each shard is a
//     union of adjacent BFS layers — a connected, low-boundary region
//     regardless of how identifiers were assigned.
//   - GreedyBalanced refines BFSChunks by moving boundary nodes to the
//     neighbouring shard where most of their edges live, under a balance
//     constraint, strictly reducing the cut at every move.
//
// CutEdges measures what the shard layouts pay for; BenchmarkPartitioners
// and BENCH_partition.json track it alongside round throughput. All
// partitioners are deterministic and verdict-neutral: property tests in
// internal/dist assert that every assignment yields results identical
// to core.Check.
package partition
