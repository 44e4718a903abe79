package config

import (
	"flag"
	"testing"

	"lcp/internal/partition"
)

// TestSetResolvesEveryKey walks the resolver through every option of
// the key table, and checks the derived dist/engine options carry the
// values to the right fields.
func TestSetResolvesEveryKey(t *testing.T) {
	var c Config
	for _, kv := range [][2]string{
		{"backend", "dist"},
		{"workers", "5"},
		{"partitioner", "bfs"},
		{"shards", "4"},
		{"batch-columns", "true"},
		{"worker-addrs", "a:1, b:2"},
	} {
		if err := c.Set(kv[0], kv[1]); err != nil {
			t.Fatalf("Set(%q, %q): %v", kv[0], kv[1], err)
		}
	}
	if c.Backend != BackendDist || c.Workers != 5 || c.BatchColumns != BatchColumnsOn || len(c.WorkerAddrs) != 2 {
		t.Fatalf("top-level fields wrong: %+v", c)
	}
	if c.Partitioner == nil || c.Partitioner.Name() != "bfs" {
		t.Fatalf("partitioner not resolved: %+v", c.Partitioner)
	}
	if eo := c.EngineOptions(); eo.Workers != 5 {
		t.Fatalf("EngineOptions wrong: %+v", eo)
	}
	do := c.DistOptions()
	if do.Shards != 4 || do.Partitioner.Name() != "bfs" {
		t.Fatalf("DistOptions wrong: %+v", do)
	}
}

func TestSetRejectsBadValues(t *testing.T) {
	var c Config
	for _, kv := range [][2]string{
		{"backend", "quantum"},
		{"workers", "-1"},
		{"workers", "many"},
		{"shards", "-2"},
		{"partitioner", "psychic"},
		// Removed aliases of the dist backend.
		{"backend", "engine-dist"},
		{"distributed", "true"},
		{"batch-columns", "often"},
		{"worker-addrs", " , "},
		{"warp", "9"},
		// Retired keys: the layout knob is "shards" alone.
		{"runtimes", "2"},
		{"sharded", "true"},
		{"free-running", "true"},
	} {
		if err := c.Set(kv[0], kv[1]); err == nil {
			t.Fatalf("Set(%q, %q) accepted", kv[0], kv[1])
		}
	}
}

// TestShardsImpliesSharded: the shard count is the whole layout — a
// non-zero count lands in the dist options on its own, with no separate
// sharded toggle to turn on.
func TestShardsImpliesSharded(t *testing.T) {
	var c Config
	if err := c.Set("shards", "2"); err != nil {
		t.Fatal(err)
	}
	if got := c.DistOptions().Shards; got != 2 {
		t.Fatalf("shards=2 gave DistOptions().Shards = %d", got)
	}
	if err := c.Set("sharded", "true"); err == nil {
		t.Fatal("the retired sharded toggle still parses")
	}
}

// TestFlagsGeneratedFromKeyTable: every Options() key registers as a
// flag, and parsing a full command line lands in the config through
// the same Set resolver.
func TestFlagsGeneratedFromKeyTable(t *testing.T) {
	var c Config
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Flags(fs, &c)
	for _, o := range Options() {
		if fs.Lookup(o.Key) == nil {
			t.Fatalf("option %q has no generated flag", o.Key)
		}
	}
	err := fs.Parse([]string{
		"-backend", "dist", "-workers", "2",
		"-partitioner", "greedy", "-shards", "3",
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Backend != BackendDist || c.Workers != 2 ||
		c.Partitioner.Name() != "greedy" || c.Shards != 3 {
		t.Fatalf("flag parse landed wrong: %+v", c)
	}

	var bad Config
	fs2 := flag.NewFlagSet("test", flag.ContinueOnError)
	Flags(fs2, &bad)
	if err := fs2.Parse([]string{"-backend", "nope"}); err == nil {
		t.Fatal("bad -backend accepted")
	}
}

// TestDefaults pins the zero value: engine backend, contiguous
// partitioner name, valid.
func TestDefaults(t *testing.T) {
	var c Config
	if c.ResolvedBackend() != BackendEngine {
		t.Fatalf("zero backend resolves to %q", c.ResolvedBackend())
	}
	if c.PartitionerName() != (partition.Contiguous{}).Name() {
		t.Fatalf("zero partitioner name %q", c.PartitionerName())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	c.Backend = "bogus"
	if err := c.Validate(); err == nil {
		t.Fatal("bogus backend validated")
	}
}
