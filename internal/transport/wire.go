package transport

// The wire format. Every message — handshake, control-plane JSON, and
// per-round data — travels as a length-prefixed frame:
//
//	u32 big-endian length (of everything after itself)
//	u8  frame type
//	payload (length-1 bytes)
//
// Data frames (FrameData) carry one round's coalesced traffic from one
// shard to one peer. The payload is varint-packed binary — the hot
// path — while the control plane (FrameHello, FrameRequest,
// FrameResponse) carries JSON, where a few extra bytes buy
// debuggability:
//
//	data payload := uvarint seq | uvarint round | uvarint src
//	              | uvarint #groups | group...
//	group        := uvarint #records | record...
//	              | uvarint #dsts | uvarint dst...
//	record       := uvarint id | u8 flags(hasProof|hasLabel)
//	              | [bits proof] | [string label]
//	              | uvarint #edges | edge...
//	edge         := uvarint u | uvarint v | u8 flags(hasLabel|hasWeight)
//	              | [string label] | [varint weight]
//	bits         := uvarint bit-length | MSB-first packed bytes
//	string       := uvarint byte-length | bytes
//
// A group is one staged batch followed by every destination node it is
// addressed to: a node with several cut edges into the same peer shard
// sends the same batch over each of them, and the frame carries it
// once. Decoding hands every destination of a group the same Batch —
// records are immutable, exactly as the in-process transport shares
// them. A group always names at least one destination.
//
// Records are self-contained (the same property the in-process
// scheduler relies on for multi-hop forwarding), so decoding never
// needs the instance — only the automata that merge the records do.

import (
	"encoding/binary"
	"fmt"
	"io"

	"lcp/internal/bitstr"
	"lcp/internal/graph"
)

// Frame types.
const (
	// FrameHello opens a connection: a JSON Hello payload naming the
	// connection's role (control or data) and, for data, its session.
	FrameHello byte = 1
	// FrameData carries one round's coalesced record traffic.
	FrameData byte = 2
	// FrameRequest carries one JSON control-plane request.
	FrameRequest byte = 3
	// FrameResponse carries one JSON control-plane response.
	FrameResponse byte = 4
)

// MaxFrame bounds a single frame; a peer announcing more is treated as
// corrupt rather than allocated for.
const MaxFrame = 1 << 26 // 64 MiB

// WriteFrame writes one frame and reports the bytes put on the wire.
func WriteFrame(w io.Writer, typ byte, payload []byte) (int, error) {
	if len(payload)+1 > MaxFrame {
		return 0, fmt.Errorf("transport: frame of %d bytes exceeds MaxFrame", len(payload)+1)
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload); err != nil {
		return len(hdr), err
	}
	return len(hdr) + len(payload), nil
}

// ReadFrame reads one frame and reports the bytes taken off the wire.
func ReadFrame(r io.Reader) (typ byte, payload []byte, n int, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, 0, err
	}
	size := binary.BigEndian.Uint32(hdr[:4])
	if size == 0 || size > MaxFrame {
		return 0, nil, 0, fmt.Errorf("transport: bad frame length %d", size)
	}
	payload = make([]byte, size-1)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, 0, fmt.Errorf("transport: short frame: %w", err)
	}
	return hdr[4], payload, len(hdr) + len(payload), nil
}

// DataHeader is the fixed prefix of a data frame payload.
type DataHeader struct {
	// Seq is the check sequence number the traffic belongs to.
	Seq uint64
	// Round is the flooding round the frame closes.
	Round int
	// Src is the sending shard.
	Src int
}

// AppendData encodes a data payload: header plus deliveries, grouped
// by batch. Consecutive deliveries of one batch — the same backing
// records, as a shard runner stages a node's batch for each of its cut
// edges into a peer back to back — encode their records once.
func AppendData(buf []byte, hdr DataHeader, dels []Delivery) []byte {
	buf = binary.AppendUvarint(buf, hdr.Seq)
	buf = binary.AppendUvarint(buf, uint64(hdr.Round))
	buf = binary.AppendUvarint(buf, uint64(hdr.Src))
	groups := 0
	for i := range dels {
		if i == 0 || !sameBatch(dels[i-1].Recs, dels[i].Recs) {
			groups++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(groups))
	for i := 0; i < len(dels); {
		j := i + 1
		for j < len(dels) && sameBatch(dels[i].Recs, dels[j].Recs) {
			j++
		}
		buf = binary.AppendUvarint(buf, uint64(len(dels[i].Recs)))
		for _, rec := range dels[i].Recs {
			buf = appendRecord(buf, rec)
		}
		buf = binary.AppendUvarint(buf, uint64(j-i))
		for _, d := range dels[i:j] {
			buf = binary.AppendUvarint(buf, uint64(d.Dst))
		}
		i = j
	}
	return buf
}

// sameBatch reports whether two staged batches are one batch: the same
// records in the same backing array. Empty batches are all alike.
func sameBatch(a, b Batch) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

func appendRecord(buf []byte, rec Record) []byte {
	buf = binary.AppendUvarint(buf, uint64(rec.ID))
	var flags byte
	if rec.HasProof {
		flags |= 1
	}
	if rec.HasLabel {
		flags |= 2
	}
	buf = append(buf, flags)
	if rec.HasProof {
		buf = appendBits(buf, rec.Proof)
	}
	if rec.HasLabel {
		buf = appendString(buf, rec.Label)
	}
	buf = binary.AppendUvarint(buf, uint64(len(rec.Edges)))
	for _, er := range rec.Edges {
		buf = binary.AppendUvarint(buf, uint64(er.E.U))
		buf = binary.AppendUvarint(buf, uint64(er.E.V))
		var ef byte
		if er.HasLabel {
			ef |= 1
		}
		if er.HasWeight {
			ef |= 2
		}
		buf = append(buf, ef)
		if er.HasLabel {
			buf = appendString(buf, er.Label)
		}
		if er.HasWeight {
			buf = binary.AppendVarint(buf, er.Weight)
		}
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendBits encodes a bit string as its bit length followed by the
// bits packed MSB-first, the same layout bitstr uses internally.
func appendBits(buf []byte, s bitstr.String) []byte {
	buf = binary.AppendUvarint(buf, uint64(s.Len()))
	return s.AppendPacked(buf)
}

// DecodeData decodes a data payload produced by AppendData: one
// Delivery per destination, every destination of a group sharing the
// group's Batch. Every presize is capped by the payload bytes left, so
// a corrupt count costs an error, not an allocation it announces.
func DecodeData(payload []byte) (DataHeader, []Delivery, error) {
	c := &cursor{buf: payload}
	var hdr DataHeader
	hdr.Seq = c.uvarint()
	hdr.Round = c.count("round")
	hdr.Src = c.count("src")
	ng := c.count("group count")
	var dels []Delivery
	if n := c.capped(ng); n > 0 {
		dels = make([]Delivery, 0, n)
	}
	for i := 0; i < ng && c.err == nil; i++ {
		var recs Batch
		nr := c.count("record count")
		if n := c.capped(nr); n > 0 {
			recs = make(Batch, 0, n)
		}
		for j := 0; j < nr && c.err == nil; j++ {
			recs = append(recs, c.record())
		}
		nd := c.count("destination count")
		if nd == 0 {
			c.fail("destination count")
		}
		for j := 0; j < nd && c.err == nil; j++ {
			dels = append(dels, Delivery{Dst: c.count("dst"), Recs: recs})
		}
	}
	if c.err == nil && c.off != len(payload) {
		c.err = fmt.Errorf("transport: %d trailing bytes in data frame", len(payload)-c.off)
	}
	if c.err != nil {
		return DataHeader{}, nil, c.err
	}
	return hdr, dels, nil
}

// cursor is a fail-sticky decoder over one payload: the first error
// latches and every later read returns zero values, so decode paths
// check c.err once at the end instead of threading errors through
// every field.
type cursor struct {
	buf []byte
	off int
	err error
}

func (c *cursor) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("transport: truncated or corrupt frame at %s (offset %d)", what, c.off)
	}
}

func (c *cursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 {
		c.fail("uvarint")
		return 0
	}
	c.off += n
	return v
}

// count reads a uvarint that must fit an int and stay sane as a
// collection size or identifier.
func (c *cursor) count(what string) int {
	v := c.uvarint()
	if c.err == nil && v > uint64(MaxFrame) {
		c.fail(what)
		return 0
	}
	return int(v)
}

// capped bounds a presize by the payload bytes left: every element of
// every collection costs at least one byte, so a count beyond that is
// corrupt and must not be allocated for before the decode fails.
func (c *cursor) capped(n int) int {
	if rem := len(c.buf) - c.off; n > rem {
		return rem
	}
	return n
}

func (c *cursor) varint() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.buf[c.off:])
	if n <= 0 {
		c.fail("varint")
		return 0
	}
	c.off += n
	return v
}

func (c *cursor) byte() byte {
	if c.err != nil {
		return 0
	}
	if c.off >= len(c.buf) {
		c.fail("flags")
		return 0
	}
	b := c.buf[c.off]
	c.off++
	return b
}

func (c *cursor) string(what string) string {
	n := c.count(what)
	if c.err != nil {
		return ""
	}
	if c.off+n > len(c.buf) {
		c.fail(what)
		return ""
	}
	s := string(c.buf[c.off : c.off+n])
	c.off += n
	return s
}

func (c *cursor) bits() bitstr.String {
	n := c.count("proof bits")
	if c.err != nil || n == 0 {
		// ε decodes to the canonical Empty so DeepEqual-style
		// comparisons see one representation of the empty string.
		return bitstr.Empty
	}
	nbytes := (n + 7) / 8
	if c.off+nbytes > len(c.buf) {
		c.fail("proof bits")
		return bitstr.Empty
	}
	s := bitstr.FromPacked(c.buf[c.off:c.off+nbytes], n)
	c.off += nbytes
	return s
}

func (c *cursor) record() Record {
	var rec Record
	rec.ID = c.count("record id")
	flags := c.byte()
	if flags&1 != 0 {
		rec.HasProof = true
		rec.Proof = c.bits()
	}
	if flags&2 != 0 {
		rec.HasLabel = true
		rec.Label = c.string("node label")
	}
	ne := c.count("edge count")
	if n := c.capped(ne); n > 0 && c.err == nil {
		rec.Edges = make([]EdgeRec, 0, n)
	}
	for i := 0; i < ne && c.err == nil; i++ {
		var er EdgeRec
		er.E = graph.Edge{U: c.count("edge u"), V: c.count("edge v")}
		ef := c.byte()
		if ef&1 != 0 {
			er.HasLabel = true
			er.Label = c.string("edge label")
		}
		if ef&2 != 0 {
			er.HasWeight = true
			er.Weight = c.varint()
		}
		rec.Edges = append(rec.Edges, er)
	}
	return rec
}
