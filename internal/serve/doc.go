// Package serve implements the HTTP/JSON verification service behind
// cmd/lcpserve: the repo's traffic-serving surface.
//
// The service is built for the amortized workload the engine package
// targets — the same graph verified against many proofs, the "many
// provers, one verifier network" reading of a proof labelling scheme.
// Clients register an instance once (POST /instances, body in the
// textio text format) and the server wires a long-lived engine for it;
// every subsequent check against that instance reuses the cached
// radius-r views, the pooled flat proof tables, and the sharded
// message-passing runtimes, and only pays for the proof under test.
//
// Endpoints:
//
//	POST   /instances      register a textio document; returns {"id": ...}
//	GET    /instances      list registered instances
//	DELETE /instances/{id} evict an instance and its caches
//	POST   /prove          run a scheme's prover; returns the proof
//	POST   /check          verify one proof; returns the verdict
//	POST   /check/batch    verify many proofs in one request
//	POST   /check/stream   NDJSON: one verdict line per node as decided,
//	                       optional early exit on the first rejection
//	GET    /schemes        list the scheme registry
//	GET    /healthz        liveness probe
//
// Check requests address a registered instance by id, or carry a
// one-shot textio document inline; the scheme defaults to the
// document's "scheme" directive and the proof to its "proof" lines.
// Setting "backend": "dist" routes a check through the message-passing
// runtime, and "dist-tcp" through the worker fleet named by
// -worker-addrs. One path builds every backend's checker and caches it
// on the instance entry, per backend, scheme and partitioner; a
// "dist-tcp" request to a server without a fleet fails that checker's
// validation with a 400. The proofs of a "dist" batch run
// concurrently — each draws its own wirings from the instance's
// reusable dist networks — so one /check/batch request saturates the
// machine instead of flooding one proof at a time; docs/ARCHITECTURE.md
// traces the full request lifecycle.
package serve
