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

	"lcp/internal/bitstr"
	"lcp/internal/graph"
)

func sampleDeliveries() []Delivery {
	return []Delivery{
		{Dst: 7, Recs: Batch{
			{ID: 1, HasProof: true, Proof: bitstr.Parse("10110"), Edges: []EdgeRec{
				{E: graph.Edge{U: 1, V: 2}},
				{E: graph.Edge{U: 1, V: 9}, HasLabel: true, Label: "M", HasWeight: true, Weight: -42},
			}},
			{ID: 2, HasProof: true, Proof: bitstr.Empty, HasLabel: true, Label: "s"},
		}},
		{Dst: 9, Recs: Batch{
			{ID: 3, Edges: []EdgeRec{{E: graph.Edge{U: 3, V: 4}, HasWeight: true, Weight: 1 << 40}}},
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
		payload := AppendData(nil, DataHeader{}, []Delivery{{Dst: 1, Recs: Batch{rec}}})
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
		{ID: 1, HasProof: true, Proof: bitstr.Parse("101"), Edges: []EdgeRec{
			{E: graph.Edge{U: 1, V: 2}}, {E: graph.Edge{U: 1, V: 3}}, {E: graph.Edge{U: 1, V: 4}},
		}},
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
