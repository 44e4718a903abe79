package transport

// Wire-format coverage: the data payload codec round-trips every field
// combination, the frame layer enforces its length discipline, and
// corrupt input fails with an error instead of a panic — the same
// adversarial posture textio.Parse takes, since both parse bytes that
// crossed a trust boundary.

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"lcp/internal/bitstr"
)

func sampleDeliveries() []Delivery {
	return []Delivery{
		{Dst: 7, Recs: Batch{
			{ID: 1, HasProof: true, Proof: bitstr.Parse("10110"), Nbrs: []int{2, 9},
				Inputs: []EdgeInput{{}, {HasLabel: true, Label: "M", HasWeight: true, Weight: -42}}},
			{ID: 2, HasProof: true, Proof: bitstr.Empty, HasLabel: true, Label: "s"},
		}},
		{Dst: 9, Recs: Batch{
			{ID: 3, Nbrs: []int{4}, Inputs: []EdgeInput{{HasWeight: true, Weight: 1 << 40}}},
			// Directed: arcs 2→5 and 7→5 in, 5→2 out (2 is reciprocal),
			// the reciprocal pair labelled and weighted alike.
			{ID: 5, HasProof: true, Proof: bitstr.Parse("1"), Nbrs: []int{2, 7, 2}, Lo: 2, Inputs: []EdgeInput{
				{HasLabel: true, Label: "M", HasWeight: true, Weight: 3}, {}, {HasLabel: true, Label: "M", HasWeight: true, Weight: 3},
			}},
		}},
		{Dst: 11}, // empty batch still travels: it carries the round sync
	}
}

func TestDataRoundTrip(t *testing.T) {
	hdr := DataHeader{Seq: 3, Round: 5, Src: 2}
	payload := AppendData(nil, hdr, sampleDeliveries())
	gotHdr, gotDels, err := DecodeData(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if gotHdr != hdr {
		t.Fatalf("header round-trip: got %+v want %+v", gotHdr, hdr)
	}
	if !reflect.DeepEqual(gotDels, sampleDeliveries()) {
		t.Fatalf("deliveries round-trip:\n got %+v\nwant %+v", gotDels, sampleDeliveries())
	}
}

func TestDataRoundTripEmpty(t *testing.T) {
	payload := AppendData(nil, DataHeader{Seq: 1, Round: 1, Src: 0}, nil)
	hdr, dels, err := DecodeData(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if hdr.Round != 1 || len(dels) != 0 {
		t.Fatalf("empty frame decoded to %+v, %v", hdr, dels)
	}
}

// TestProofBitsRoundTrip pins the MSB-first bit packing across widths
// that straddle byte boundaries, including the ε-vs-absent distinction.
func TestProofBitsRoundTrip(t *testing.T) {
	for _, bits := range []string{"", "1", "0", "10110101", "101101011", "1111111100000000101"} {
		rec := Record{ID: 1, HasProof: true, Proof: bitstr.Parse(bits)}
		payload := AppendData(nil, DataHeader{}, []Delivery{{Dst: 1, Recs: Batch{&rec}}})
		_, dels, err := DecodeData(payload)
		if err != nil {
			t.Fatalf("%q: decode: %v", bits, err)
		}
		got := dels[0].Recs[0]
		if !got.HasProof || !got.Proof.Equal(bitstr.Parse(bits)) {
			t.Fatalf("%q: round-tripped to hasProof=%v %q", bits, got.HasProof, got.Proof.String())
		}
	}
}

func TestDecodeDataCorrupt(t *testing.T) {
	payload := AppendData(nil, DataHeader{Seq: 9, Round: 2, Src: 1}, sampleDeliveries())
	// Every strict prefix must fail cleanly, never panic.
	for i := 0; i < len(payload); i++ {
		if _, _, err := DecodeData(payload[:i]); err == nil {
			t.Fatalf("prefix of %d bytes decoded without error", i)
		}
	}
	// Trailing garbage is rejected too.
	if _, _, err := DecodeData(append(append([]byte{}, payload...), 0xff)); err == nil {
		t.Fatal("trailing byte decoded without error")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	wrote, err := WriteFrame(&buf, FrameData, []byte("hello"))
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	typ, payload, read, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if typ != FrameData || string(payload) != "hello" || wrote != read {
		t.Fatalf("round-trip: typ=%d payload=%q wrote=%d read=%d", typ, payload, wrote, read)
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, FrameData})
	if _, _, _, err := ReadFrame(&buf); err == nil || !strings.Contains(err.Error(), "frame length") {
		t.Fatalf("oversized frame: err=%v", err)
	}
	if _, err := WriteFrame(&bytes.Buffer{}, FrameData, make([]byte, MaxFrame)); err == nil {
		t.Fatal("oversized write accepted")
	}
}

// sharedDeliveries stages one batch for three destinations and another
// for one, the way a shard runner stages a node with several cut edges
// into the same peer.
func sharedDeliveries() []Delivery {
	hub := Batch{
		{ID: 1, HasProof: true, Proof: bitstr.Parse("101"), Nbrs: []int{2, 3, 4}},
	}
	leaf := Batch{{ID: 5, HasProof: true, Proof: bitstr.Parse("0")}}
	return []Delivery{{Dst: 2, Recs: hub}, {Dst: 3, Recs: hub}, {Dst: 4, Recs: hub}, {Dst: 6, Recs: leaf}}
}

// TestDataSharedBatchEncodedOnce: a batch staged for several
// destinations crosses the wire once, and every destination decodes to
// the same records — one shared Batch, not a copy per destination.
func TestDataSharedBatchEncodedOnce(t *testing.T) {
	shared := sharedDeliveries()
	payload := AppendData(nil, DataHeader{Seq: 1, Round: 1}, shared)
	// The same traffic with every delivery carrying its own copy of
	// the batch must encode the hub record three times.
	var copied []Delivery
	for _, d := range shared {
		copied = append(copied, Delivery{Dst: d.Dst, Recs: append(Batch(nil), d.Recs...)})
	}
	unshared := AppendData(nil, DataHeader{Seq: 1, Round: 1}, copied)
	hubBytes := len(appendRecord(nil, shared[0].Recs[0]))
	if saved := len(unshared) - len(payload); saved < 2*hubBytes {
		t.Fatalf("shared batch saved %d bytes, want at least %d (two copies of the hub record)", saved, 2*hubBytes)
	}
	_, dels, err := DecodeData(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(dels, shared) {
		t.Fatalf("shared deliveries round-trip:\n got %+v\nwant %+v", dels, shared)
	}
	if &dels[0].Recs[0] != &dels[2].Recs[0] {
		t.Fatal("destinations of one group decoded to separate batches")
	}
}

// TestDecodeDataAllocs: DecodeData decodes a frame's records into one
// slab, its batches' pointers into another and its deliveries into a
// third, so a frame of bare records (whose ε proofs decode to no
// buffer) costs those three allocations whether it carries one group
// or a thousand, not one batch per group.
func TestDecodeDataAllocs(t *testing.T) {
	for _, groups := range []int{1, 16, 1024} {
		dels := make([]Delivery, 0, 2*groups)
		for g := range groups {
			b := Batch{{ID: 2 * g, HasProof: true, Bare: true}, {ID: 2*g + 1, Bare: true}}
			dels = append(dels, Delivery{Dst: g, Recs: b}, Delivery{Dst: groups + g, Recs: b})
		}
		payload := AppendData(nil, DataHeader{Seq: 1, Round: 1}, dels)
		allocs := testing.AllocsPerRun(20, func() {
			if _, got, err := DecodeData(payload); err != nil || len(got) != len(dels) {
				t.Fatalf("%d groups: decoded %d deliveries of %d: %v", groups, len(got), len(dels), err)
			}
		})
		if allocs != 3 {
			t.Fatalf("a frame of %d groups of bare records decoded in %.0f allocations, want 3", groups, allocs)
		}
	}
}

// TestDecodeDataProofSlab: DecodeData decodes every proof string of a
// frame into one slab, so a frame of 64 records with proofs costs as
// many allocations as a frame of one: the proof strings do not allocate
// one buffer each.
func TestDecodeDataProofSlab(t *testing.T) {
	allocs := func(nrecs int) float64 {
		b := make(Batch, nrecs)
		for i := range b {
			b[i] = &Record{ID: i, HasProof: true, Proof: bitstr.FromUint(uint64(i), 12), Bare: true}
		}
		payload := AppendData(nil, DataHeader{Seq: 1, Round: 1}, []Delivery{{Dst: 1, Recs: b}})
		return testing.AllocsPerRun(20, func() {
			_, dels, err := DecodeData(payload)
			if err != nil || len(dels[0].Recs) != nrecs || !dels[0].Recs[nrecs-1].Proof.Equal(b[nrecs-1].Proof) {
				t.Fatalf("%d records: decoded %v, %v", nrecs, dels, err)
			}
		})
	}
	if one, many := allocs(1), allocs(64); one != many {
		t.Fatalf("a frame of 1 proof record decoded in %.0f allocations, of 64 in %.0f", one, many)
	}
}

// TestDecodeRejectsEdgesNotIncident: a full record's edges are its
// node's, its edges keyed (w, id) before those keyed (id, w), because
// that is how the decoder recovers each edge's direction: an edge of
// another node, or an in-edge after an out-edge, fails to decode.
func TestDecodeRejectsEdgesNotIncident(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload []byte
		want    string
	}{
		// count 1 | id 1 | flags 0 | #edges 1 | edge 2-3 | edge flags 0
		{"not-incident", []byte{1, 1, 0, 1, 2, 3, 0}, "not an edge of node 1"},
		// count 1 | id 4 | flags 0 | #edges 2 | edge 4-5 | 0 | edge 3-4 | 0
		{"in-after-out", []byte{1, 4, 0, 2, 4, 5, 0, 3, 4, 0}, "edge order"},
	} {
		if _, err := DecodeRecords(tc.payload); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: DecodeRecords error %v, want one mentioning %q", tc.name, err, tc.want)
		}
		data := append([]byte{1, 1, 0, 1}, tc.payload...)
		if _, _, err := DecodeData(append(data, 1, 2)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: DecodeData error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestDecodeDataCapsPresize: counts are bounded by MaxFrame, not by
// the bytes that follow them, so a decoder that presizes from a count
// alone allocates whatever a corrupt frame announces. The 7-byte
// payload below announces 2^25 groups; decoding it must fail having
// allocated next to nothing (it used to allocate 1 GiB). The same holds
// for record and edge counts nested inside a group.
func TestDecodeDataCapsPresize(t *testing.T) {
	hdr := []byte{0, 1, 0} // seq 0, round 1, src 0
	payloads := map[string][]byte{
		"groups":  binary.AppendUvarint(append([]byte{}, hdr...), 1<<25),
		"records": binary.AppendUvarint(append(append([]byte{}, hdr...), 1), 1<<25),
		"edges":   binary.AppendUvarint(append(append([]byte{}, hdr...), 1, 1, 9, 0), 1<<25),
	}
	for name, payload := range payloads {
		alloc, err := decodeAllocs(payload)
		if err == nil {
			t.Fatalf("%s: %d-byte payload announcing 2^25 elements decoded", name, len(payload))
		}
		if alloc > 1<<20 {
			t.Fatalf("%s: decoding a %d-byte payload allocated %d bytes", name, len(payload), alloc)
		}
	}
}

// TestDecodeDataRejectsEmptyGroup: AppendData never writes a batch
// group without destinations, so one on the wire is corrupt.
func TestDecodeDataRejectsEmptyGroup(t *testing.T) {
	payload := []byte{1, 1, 0, 1, 0, 0} // one group, no records, no destinations
	if _, _, err := DecodeData(payload); err == nil {
		t.Fatal("group without destinations decoded")
	}
}

// TestRecordsRoundTrip: a record list survives AppendRecords →
// DecodeRecords with every field, an empty list included, and trailing
// or missing bytes are an error.
func TestRecordsRoundTrip(t *testing.T) {
	var sample []Record
	for _, rec := range sampleDeliveries()[0].Recs {
		sample = append(sample, *rec)
	}
	for _, recs := range [][]Record{sample, nil} {
		payload := AppendRecords(nil, recs)
		got, err := DecodeRecords(payload)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(got) != len(recs) || len(recs) > 0 && !reflect.DeepEqual(got, recs) {
			t.Fatalf("records round-trip:\n got %+v\nwant %+v", got, recs)
		}
		if _, err := DecodeRecords(append(payload, 0)); err == nil {
			t.Fatal("trailing byte decoded")
		}
		if _, err := DecodeRecords(payload[:len(payload)-1]); err == nil {
			t.Fatal("truncated record list decoded")
		}
	}
}

// bareDeliveries is a warm check's round of traffic: bare records, with
// a proof, an explicit ε, and no proof at all.
func bareDeliveries() []Delivery {
	warm := Batch{
		{ID: 4, HasProof: true, Proof: bitstr.Parse("1101"), Bare: true},
		{ID: 300, HasProof: true, Proof: bitstr.Empty, Bare: true},
		{ID: 5, Bare: true},
	}
	return []Delivery{{Dst: 2, Recs: warm}, {Dst: 3, Recs: warm}, {Dst: 6, Recs: Batch{{ID: 7, HasProof: true, Proof: bitstr.Parse("0"), Bare: true}}}}
}

// TestBareRecordsRoundTrip: bare records survive the data codec and
// cost their id, a flag byte and their proof bits: no edge count.
func TestBareRecordsRoundTrip(t *testing.T) {
	hdr := DataHeader{Seq: 4, Round: 1, Src: 1}
	payload := AppendData(nil, hdr, bareDeliveries())
	gotHdr, got, err := DecodeData(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if gotHdr != hdr || !reflect.DeepEqual(got, bareDeliveries()) {
		t.Fatalf("round-trip:\n got %+v %+v\nwant %+v %+v", gotHdr, got, hdr, bareDeliveries())
	}
	rec := AppendRecords(nil, []Record{{ID: 4, HasProof: true, Proof: bitstr.Parse("1101"), Bare: true}})
	// count, id, flags, bit length, one packed byte
	if want := []byte{1, 4, flagProof | flagBare, 4, 0xd0}; !bytes.Equal(rec, want) {
		t.Fatalf("bare record encodes as % x, want % x", rec, want)
	}
}

// TestDecodeRejectsMalformedBareRecords: a bare record has no label and
// no edge list, and the flag byte has no other bits: a record list whose
// bare record claims a label, unknown flag bits, or whose bare record is
// followed by an edge list as a full record's would be, fails to decode.
func TestDecodeRejectsMalformedBareRecords(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		// count 1 | id 4 | flags bare|label | label "s"
		{"bare-with-label", []byte{1, 4, flagBare | flagLabel, 1, 's'}},
		// count 1 | id 4 | flags bare|proof | bits "1" | #edges 1 | edge 4-5 | edge flags 0
		{"bare-with-edges", []byte{1, 4, flagBare | flagProof, 1, 0x80, 1, 4, 5, 0}},
		// count 1 | id 4 | flags with an unknown bit | #edges 0
		{"unknown-flag", []byte{1, 4, 8, 0}},
	} {
		if _, err := DecodeRecords(tc.payload); err == nil {
			t.Fatalf("%s: DecodeRecords accepted % x", tc.name, tc.payload)
		}
		// The same record list as a data frame's one group, to node 2.
		data := append([]byte{1, 1, 0, 1}, tc.payload...)
		if _, _, err := DecodeData(append(data, 1, 2)); err == nil {
			t.Fatalf("%s: DecodeData accepted % x", tc.name, data)
		}
	}
}

// TestRecordSizes pins the record layout on a 64-bit host: the split
// and the flags sit together after the word-sized fields, so that a
// Record is 112 bytes, not 120, and an EdgeInput 32.
func TestRecordSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the sizes are a 64-bit host's")
	}
	if got := unsafe.Sizeof(Record{}); got != 112 {
		t.Errorf("Record is %d bytes, want 112", got)
	}
	if got := unsafe.Sizeof(EdgeInput{}); got != 32 {
		t.Errorf("EdgeInput is %d bytes, want 32", got)
	}
}
