package remote

// FuzzRegisterShard pins the register path a worker runs on bytes from
// another process: arbitrary record bytes decode and wire into a shard,
// or fail with an error — never a panic — within an allocation bound
// linear in their length.

import (
	"encoding/binary"
	"runtime"
	"testing"

	"lcp/internal/core"
	"lcp/internal/dist"
	"lcp/internal/graph"
	"lcp/internal/transport"
)

// nopScheme gives the fuzzed registrations a scheme name to resolve;
// no check runs on them.
type nopScheme struct{}

func (nopScheme) Name() string { return "nop" }
func (nopScheme) Verifier() core.Verifier {
	return core.VerifierFunc{F: func(*core.View) bool { return true }}
}
func (nopScheme) Prove(*core.Instance) (core.Proof, error) { return core.Proof{}, nil }

// registerAllocBound is the most a registration of n record bytes may
// allocate. Every record and every edge costs at least three bytes,
// each wires into a constant number of slab entries and presizes are
// capped by the bytes left, so allocation is linear in n; the per-byte
// factor covers a record's automaton and buffers, and the constant the
// instance's fixed state and runtime noise.
func registerAllocBound(n int) uint64 { return 1024*uint64(n) + 1<<20 }

// fuzzAssign assigns the nodes the records name: the records' own
// nodes to shard 0, every other endpoint to shard 1. Bytes that do not
// decode get no assignment.
func fuzzAssign(data []byte) map[int]int {
	recs, err := transport.DecodeRecords(data)
	if err != nil {
		return nil
	}
	assign := map[int]int{}
	for _, rec := range recs {
		for _, w := range rec.Nbrs {
			assign[w] = 1
		}
	}
	for _, rec := range recs {
		assign[rec.ID] = 0
	}
	return assign
}

// directedRecords encodes the records of nodes 2 and 3 of a directed
// instance: node 3 has the in-arcs 2→3 and 4→3 and the out-arc 3→2,
// reciprocal to 2→3, which carries an edge label and a weight. A
// registration is directed when its record bytes are odd in number
// (FuzzRegisterShard), so the node label's length is picked to make
// them so.
func directedRecords() []byte {
	g := graph.NewBuilder(graph.Directed).AddEdge(2, 3).AddEdge(3, 2).AddEdge(4, 3).Graph()
	for _, label := range []string{"s", "ss"} {
		in := core.NewInstance(g).SetNodeLabel(3, label)
		in.EdgeLabel = map[graph.Edge]string{{U: 2, V: 3}: "M"}
		in.Weights = map[graph.Edge]int64{{U: 2, V: 3}: -7}
		b := transport.AppendRecords(nil, dist.ShardPlan{In: in, Owned: []int{2, 3}}.Records())
		if len(b)%2 == 1 {
			return b
		}
	}
	panic("unreachable: the two labels differ in length by one")
}

func FuzzRegisterShard(f *testing.F) {
	recs := dist.ShardPlan{In: core.NewInstance(graph.Path(5)), Owned: []int{2, 3}}.Records()
	f.Add(transport.AppendRecords(nil, recs))
	f.Add(transport.AppendRecords(nil, append(recs, recs[0])))
	f.Add(binary.AppendUvarint(nil, 1<<25))
	f.Add([]byte{})
	f.Add(directedRecords())
	w := NewWorker(nil, map[string]core.Scheme{"nop": nopScheme{}})
	f.Fuzz(func(t *testing.T, data []byte) {
		req := &Request{
			Op: OpRegister, Instance: "fuzz", Scheme: "nop", Records: data,
			Directed: len(data)%2 == 1, Assign: fuzzAssign(data), Workers: []string{"w0", "w1"},
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		inst, err := w.register(req, nil)
		runtime.ReadMemStats(&m1)
		if alloc, bound := m1.TotalAlloc-m0.TotalAlloc, registerAllocBound(len(data)); alloc > bound {
			t.Fatalf("registering %d bytes allocated %d, bound %d", len(data), alloc, bound)
		}
		if err != nil {
			return
		}
		defer w.drop(req.Instance, inst)
		decoded, derr := transport.DecodeRecords(data)
		if derr != nil || len(inst.shard.Owned()) != len(decoded) {
			t.Fatalf("wired %d owned nodes from records that decode to %d (%v)", len(inst.shard.Owned()), len(decoded), derr)
		}
	})
}
