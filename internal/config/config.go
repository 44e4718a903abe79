// Package config defines the single configuration object behind every
// verification entry point: the lcp.Checker functional options, the
// lcpserve command-line flags, and the HTTP request options of
// internal/serve all resolve into a Config, and dist.Options /
// engine.Options are derived from it. The package exists so the
// execution paths (sequential reference, message-passing runtime,
// cached-view engine, multi-process scale-out) are parameterized by one
// object instead of several hand-synchronized option structs.
package config

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"lcp/internal/dist"
	"lcp/internal/engine"
	"lcp/internal/partition"
)

// Backend names one of the execution paths a Config selects.
type Backend string

const (
	// BackendCore is the sequential reference runner: one BFS view per
	// node per proof, no caching, no concurrency. The other three are
	// property-tested verdict-identical to it.
	BackendCore Backend = "core"
	// BackendDist is the message-passing LOCAL runtime: node automata,
	// grouped onto shards, flood their radius-r balls for Radius()
	// rounds. The Dist tunables (shard count, partitioner) apply here.
	BackendDist Backend = "dist"
	// BackendEngine is the amortized shared-memory engine: every node's
	// radius-r ball indexed once per instance, checks served by a worker
	// pool.
	BackendEngine Backend = "engine"
	// BackendDistTCP is the multi-process scale-out: the instance is
	// partitioned across external lcpworker processes (WorkerAddrs), each
	// flooding its shard over TCP, with the local checker acting as the
	// fan-out coordinator. The only backend whose memory footprint is
	// spread over multiple processes — and hence multiple machines.
	BackendDistTCP Backend = "dist-tcp"
)

// Backends lists the backend names, in documentation order.
func Backends() []string {
	return []string{string(BackendCore), string(BackendDist), string(BackendEngine), string(BackendDistTCP)}
}

// ParseBackend resolves a backend name.
func ParseBackend(name string) (Backend, error) {
	switch Backend(name) {
	case BackendCore, BackendDist, BackendEngine, BackendDistTCP:
		return Backend(name), nil
	}
	return "", fmt.Errorf("unknown backend %q (valid: %s)", name, strings.Join(Backends(), ", "))
}

// Config is the unified verification configuration. The zero value
// selects the engine backend with library defaults everywhere.
//
// Exactly one resolver feeds it from text: Set, which both the
// lcpserve flags (see Flags) and serve's JSON request options go
// through, so a knob spelled "partitioner" means the same thing on the
// command line, in an HTTP body, and in a library call.
type Config struct {
	// Backend picks the execution path; empty means BackendEngine.
	Backend Backend
	// Workers bounds the engine's shared-memory worker pool
	// (0 = GOMAXPROCS).
	Workers int
	// Partitioner chooses the node→shard assignment policy of the
	// distributed backends: the dist shard layout and the dist-tcp
	// worker cut. nil means partition.Contiguous{}.
	Partitioner partition.Partitioner
	// Shards is the dist backend's shard goroutine count per check
	// (0 = GOMAXPROCS; the node count gives one goroutine per node).
	Shards int
	// WorkerAddrs lists the lcpworker control addresses
	// (host:port) the dist-tcp backend fans out to, one shard per
	// worker. Required by — and only meaningful on — that backend.
	WorkerAddrs []string
}

// ResolvedBackend is Backend with the zero value defaulted.
func (c Config) ResolvedBackend() Backend {
	if c.Backend == "" {
		return BackendEngine
	}
	return c.Backend
}

// PartitionerName is the registry name of the configured partitioner
// ("contiguous" for the nil default) — the cache key serve uses for
// per-partitioner engines.
func (c Config) PartitionerName() string {
	if c.Partitioner == nil {
		return partition.Contiguous{}.Name()
	}
	return c.Partitioner.Name()
}

// Validate rejects impossible configurations: an unknown backend name
// assigned directly to the field, or the dist-tcp backend with no
// worker fleet to fan out to.
func (c Config) Validate() error {
	if c.Backend != "" {
		if _, err := ParseBackend(string(c.Backend)); err != nil {
			return err
		}
	}
	if c.Backend == BackendDistTCP && len(c.WorkerAddrs) == 0 {
		return fmt.Errorf("backend %q needs a worker fleet: start lcpworker processes and list their addresses in the worker-addrs option (lcpserve -worker-addrs host:port,...)", BackendDistTCP)
	}
	return nil
}

// DistOptions derives the message-passing runtime options: the dist
// backend's shards, or one shard per worker on dist-tcp.
func (c Config) DistOptions() dist.Options {
	if c.ResolvedBackend() == BackendDistTCP {
		return dist.Options{Shards: len(c.WorkerAddrs), Partitioner: c.Partitioner}
	}
	return dist.Options{Shards: c.Shards, Partitioner: c.Partitioner}
}

// EngineOptions derives the engine configuration: the worker pool.
func (c Config) EngineOptions() engine.Options {
	return engine.Options{Workers: c.Workers}
}

// Option describes one textual configuration key of the shared
// resolver: its Set key (also the lcpserve flag name) and its usage
// string.
type Option struct {
	Key   string
	Usage string
}

// Options is the resolver's key table. Flags registers exactly these;
// serve accepts the request-level subset of them. Keeping the table in
// one place is what "no duplicated JSON/flag parsing" means.
func Options() []Option {
	return []Option{
		{Key: "backend", Usage: "execution path: " + strings.Join(Backends(), ", ")},
		{Key: "workers", Usage: "engine worker pool size (0 = GOMAXPROCS)"},
		{Key: "partitioner", Usage: "node->shard partitioner: " + strings.Join(partition.Names(), ", ") + " (applied to the dist shard layout and the dist-tcp worker cut)"},
		{Key: "shards", Usage: "shard goroutines per dist check (0 = GOMAXPROCS; the node count gives one goroutine per node)"},
		{Key: "worker-addrs", Usage: "comma-separated lcpworker control addresses (host:port,...) for the dist-tcp backend, one shard per worker"},
	}
}

// Set applies one textual option to the config. It accepts exactly the
// keys in Options.
func (c *Config) Set(key, value string) error {
	fail := func(err error) error { return fmt.Errorf("option %q: %v", key, err) }
	switch key {
	case "backend":
		b, err := ParseBackend(value)
		if err != nil {
			return fail(err)
		}
		c.Backend = b
	case "workers":
		n, err := nonNegativeInt(value)
		if err != nil {
			return fail(err)
		}
		c.Workers = n
	case "partitioner":
		p, err := partition.ByName(value)
		if err != nil {
			return fail(err)
		}
		c.Partitioner = p
	case "shards":
		n, err := nonNegativeInt(value)
		if err != nil {
			return fail(err)
		}
		c.Shards = n
	case "worker-addrs":
		var addrs []string
		for _, a := range strings.Split(value, ",") {
			a = strings.TrimSpace(a)
			if a == "" {
				continue
			}
			addrs = append(addrs, a)
		}
		if len(addrs) == 0 {
			return fail(fmt.Errorf("no addresses in %q", value))
		}
		c.WorkerAddrs = addrs
	default:
		return fmt.Errorf("unknown option %q", key)
	}
	return nil
}

func nonNegativeInt(value string) (int, error) {
	n, err := strconv.Atoi(value)
	if err != nil {
		return 0, fmt.Errorf("bad integer %q", value)
	}
	if n < 0 {
		return 0, fmt.Errorf("negative value %d", n)
	}
	return n, nil
}

// Flags registers every option of the key table on the flag set, all
// funneling through c.Set — the lcpserve flag surface is generated from
// the same table the HTTP options resolve against, so the two can never
// drift.
func Flags(fs *flag.FlagSet, c *Config) {
	for _, o := range Options() {
		key := o.Key
		fs.Func(key, o.Usage, func(v string) error { return c.Set(key, v) })
	}
}
