package transport

// FuzzDecodeData pins the data-frame codec from both ends: arbitrary
// bytes decode to an error or to deliveries — never a panic — within a
// linear allocation bound, and deliveries generated from the same bytes
// (batches shared by several destinations and bare records included)
// survive AppendData → DecodeData per destination.

import (
	"encoding/binary"
	"runtime"
	"testing"

	"lcp/internal/bitstr"
)

// decodeAllocBound is the most DecodeData may allocate for a payload of
// n bytes. Each element costs at least one payload byte and every
// presize is capped by the bytes left, so allocation is linear in n;
// the per-byte factor covers the largest decoded element (a Record)
// plus the open presizes of one failing decode, and the constant
// absorbs runtime noise.
func decodeAllocBound(n int) uint64 { return 512*uint64(n) + 1<<20 }

// decodeAllocs decodes payload and reports the bytes allocated.
func decodeAllocs(payload []byte) (uint64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, _, err := DecodeData(payload)
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc, err
}

func FuzzDecodeData(f *testing.F) {
	// The sample holds a directed record with in- and out-arcs, an edge
	// label and a weight.
	f.Add(AppendData(nil, DataHeader{Seq: 3, Round: 5, Src: 2}, sampleDeliveries()))
	f.Add(AppendData(nil, DataHeader{Seq: 1, Round: 1}, sharedDeliveries()))
	f.Add(AppendData(nil, DataHeader{Seq: 4, Round: 1, Src: 1}, bareDeliveries()))
	f.Add([]byte{1, 1, 0, 1, 1, 4, flagBare | flagLabel, 1, 's', 1, 2})
	f.Add(binary.AppendUvarint([]byte{0, 1, 0}, 1<<25))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		alloc, _ := decodeAllocs(data)
		if bound := decodeAllocBound(len(data)); alloc > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(data), alloc, bound)
		}

		dels := genDeliveries(data)
		hdr := DataHeader{Seq: 7, Round: 2, Src: 1}
		gotHdr, got, err := DecodeData(AppendData(nil, hdr, dels))
		if err != nil {
			t.Fatalf("decode of encoded deliveries: %v", err)
		}
		if gotHdr != hdr {
			t.Fatalf("header round-trip: got %+v want %+v", gotHdr, hdr)
		}
		if len(got) != len(dels) {
			t.Fatalf("decoded %d deliveries, encoded %d", len(got), len(dels))
		}
		for i := range dels {
			if got[i].Dst != dels[i].Dst || !batchesEqual(got[i].Recs, dels[i].Recs) {
				t.Fatalf("delivery %d round-tripped to %+v, want %+v", i, got[i], dels[i])
			}
		}
	})
}

// genDeliveries derives a delivery list from fuzz bytes: a few batches
// of records exercising every optional field, bare records included,
// each staged for a run of
// destinations (so runs share one backing batch, as a shard runner
// stages them), with some batches staged again later.
func genDeliveries(data []byte) []Delivery {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	var batches []Batch
	for nb := next() % 4; len(batches) < nb; {
		var b Batch
		for nr := next() % 4; len(b) < nr; {
			rec := Record{ID: next()<<8 | next()}
			f := next()
			if f&1 != 0 {
				rec.HasProof = true
				w := next() % 20
				var bw bitstr.Writer
				for i := 0; i < w; i++ {
					bw.WriteBit(next()&1 != 0)
				}
				rec.Proof = bw.String()
			} else if f&2 != 0 {
				rec.HasLabel = true
				rec.Label = string(rune('a' + next()%26))
			}
			if f&4 != 0 && !rec.HasLabel {
				rec.Bare = true // id and proof only
				b = append(b, &rec)
				continue
			}
			// Edges keyed (w, ID), then (ID, w), reciprocal pairs and
			// loops included, some with inputs.
			ne := next() % 4
			rec.Lo = int32(next() % (ne + 1))
			for len(rec.Nbrs) < ne {
				rec.Nbrs = append(rec.Nbrs, next())
				var x EdgeInput
				if f := next(); f&1 != 0 {
					x.HasLabel, x.Label = true, "M"
				} else if f&2 != 0 {
					x.HasWeight, x.Weight = true, int64(next())-128
				}
				if x != (EdgeInput{}) && rec.Inputs == nil {
					rec.Inputs = make([]EdgeInput, ne)
				}
				if rec.Inputs != nil {
					rec.Inputs[len(rec.Nbrs)-1] = x
				}
			}
			b = append(b, &rec)
		}
		batches = append(batches, b)
	}
	var dels []Delivery
	for i := next() % 6; i > 0 && len(batches) > 0; i-- {
		b := batches[next()%len(batches)]
		for run := 1 + next()%3; run > 0; run-- {
			dels = append(dels, Delivery{Dst: next(), Recs: b})
		}
	}
	return dels
}

// batchesEqual compares two batches by content, edge by edge key and
// input, with ε and empty collections equal however they are
// represented. A loop may come back on either side of the split.
func batchesEqual(a, b Batch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.ID != y.ID || x.Bare != y.Bare || x.HasProof != y.HasProof || !x.Proof.Equal(y.Proof) ||
			x.HasLabel != y.HasLabel || x.Label != y.Label || len(x.Nbrs) != len(y.Nbrs) {
			return false
		}
		for j := range x.Nbrs {
			if x.Edge(j) != y.Edge(j) || x.Input(j) != y.Input(j) {
				return false
			}
		}
	}
	return true
}
