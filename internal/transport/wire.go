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
//	group        := records | uvarint #dsts | uvarint dst...
//	records      := uvarint #records | record...
//	record       := full | bare
//	full         := uvarint id | u8 flags(hasProof|hasLabel)
//	              | [bits proof] | [string label]
//	              | uvarint #edges | edge...
//	bare         := uvarint id | u8 flags(hasProof|bare) | [bits proof]
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
// them — and decodes every record of the frame into one slab, which
// the frame's batches point into. A group always names at least one
// destination.
//
// Records are self-contained (the same property the in-process
// runtime relies on for multi-hop forwarding), so decoding never
// needs the instance — only the automata that merge the records do.
//
// A full record's edges are its edge keys, in Record order: first the
// edges keyed (w, id), then those keyed (id, w). The decoder recovers
// the record's neighbour list and its split (Record.Lo) from which
// endpoint is the record's node, so every edge must be incident to
// it, and no edge keyed (w, id) may follow one keyed (id, w): a record
// that breaks either rule is corrupt. An edge's flag byte is hasLabel
// (1) and hasWeight (2).
//
// The flag byte's bits are hasProof (1), hasLabel (2) and bare (4). A
// full record is a node's round-0 knowledge: what a registration ships
// and what a shard's first checks flood. A bare record is what a warm
// check floods once every automaton has frozen its ball: the node's id
// and proof string, nothing else, so it has no label and not even an
// edge count. A flag byte with any other bit set, or with bare and
// hasLabel together, is corrupt.

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

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

// frameChunk is the most ReadFrame allocates ahead of payload bytes that
// have actually arrived.
const frameChunk = 64 << 10

// ReadFrame reads one frame and reports the bytes taken off the wire.
// The payload buffer grows only as its bytes arrive, so a peer that
// announces MaxFrame and sends nothing costs one frameChunk, not
// MaxFrame.
func ReadFrame(r io.Reader) (typ byte, payload []byte, n int, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, 0, err
	}
	size := binary.BigEndian.Uint32(hdr[:4])
	if size == 0 || size > MaxFrame {
		return 0, nil, 0, fmt.Errorf("transport: bad frame length %d", size)
	}
	want := int(size - 1)
	payload = make([]byte, 0, min(want, frameChunk))
	for len(payload) < want {
		// Double the buffer, capped at the announced length, and fill it.
		read := len(payload)
		grow := min(want-read, max(read, frameChunk))
		payload = slices.Grow(payload, grow)[:read+grow]
		if _, err := io.ReadFull(r, payload[read:]); err != nil {
			return 0, nil, 0, fmt.Errorf("transport: short frame: %w", err)
		}
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

// AppendRecords encodes a counted record list (the records production
// above) onto buf: what every group of a data frame opens with, and
// how a dist-tcp registration ships a worker its owned nodes' round-0
// records.
func AppendRecords(buf []byte, recs []Record) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(recs)))
	for i := range recs {
		buf = appendRecord(buf, &recs[i])
	}
	return buf
}

// DecodeRecords decodes a payload produced by AppendRecords. As
// DecodeData does, it validates the payload in a first pass that
// builds nothing, then decodes the records into one slab, their
// neighbour ids, edge inputs and proof strings into one each.
func DecodeRecords(payload []byte) ([]Record, error) {
	dry := &cursor{buf: payload, dry: true}
	nr := dry.count("record count")
	for j := 0; j < nr && dry.err == nil; j++ {
		dry.record()
	}
	if err := dry.end(); err != nil {
		return nil, err
	}
	c := dry.decoder()
	c.count("record count")
	var recs []Record
	if nr > 0 {
		recs = make([]Record, nr)
	}
	for j := range recs {
		recs[j] = c.record()
	}
	if err := c.end(); err != nil { // the first pass read the same bytes without error
		return nil, err
	}
	return recs, nil
}

// Record flag bits.
const (
	flagProof byte = 1 << iota
	flagLabel
	flagBare
)

// appendRecord encodes one record. A bare record encodes its id and
// proof only: its Label, Nbrs and Inputs, which it never carries, are
// not read.
func appendRecord(buf []byte, rec *Record) []byte {
	buf = binary.AppendUvarint(buf, uint64(rec.ID))
	var flags byte
	if rec.HasProof {
		flags |= flagProof
	}
	if rec.Bare {
		flags |= flagBare
	} else if rec.HasLabel {
		flags |= flagLabel
	}
	buf = append(buf, flags)
	if rec.HasProof {
		buf = appendBits(buf, rec.Proof)
	}
	if rec.Bare {
		return buf
	}
	if rec.HasLabel {
		buf = appendString(buf, rec.Label)
	}
	buf = binary.AppendUvarint(buf, uint64(len(rec.Nbrs)))
	for i := range rec.Nbrs {
		e, x := rec.Edge(i), rec.Input(i)
		buf = binary.AppendUvarint(buf, uint64(e.U))
		buf = binary.AppendUvarint(buf, uint64(e.V))
		var ef byte
		if x.HasLabel {
			ef |= 1
		}
		if x.HasWeight {
			ef |= 2
		}
		buf = append(buf, ef)
		if x.HasLabel {
			buf = appendString(buf, x.Label)
		}
		if x.HasWeight {
			buf = binary.AppendVarint(buf, x.Weight)
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
// group's Batch. It reads the payload twice: the first pass validates
// it and counts its records and deliveries, building nothing, so a
// corrupt frame costs an error, not an allocation it announces; the
// second decodes every record of the frame into one slab, every
// batch's pointers into another, and the deliveries into a third, each
// made once at its final size, and the records' neighbour ids, edge
// inputs and proof strings into one slab each, made only when the
// frame carries any. The slabs are the frame's own: nothing rewrites
// them, so a receiver may keep the batches (see Batch).
func DecodeData(payload []byte) (DataHeader, []Delivery, error) {
	dry := &cursor{buf: payload, dry: true}
	dry.data(nil, nil)
	if err := dry.end(); err != nil {
		return DataHeader{}, nil, err
	}
	var recs Batch
	if dry.nrecs > 0 {
		slab := make([]Record, dry.nrecs)
		recs = make(Batch, dry.nrecs)
		for i := range slab {
			recs[i] = &slab[i]
		}
	}
	var dels []Delivery
	if dry.ndels > 0 {
		dels = make([]Delivery, 0, dry.ndels)
	}
	c := dry.decoder()
	hdr, dels := c.data(recs, dels)
	if err := c.end(); err != nil { // the first pass read the same bytes without error
		return DataHeader{}, nil, err
	}
	return hdr, dels, nil
}

// data reads a data payload, decoding its records in order into the
// records recs points at, its batches as pieces of recs and its
// deliveries onto dels. A dry cursor builds nothing: it counts the
// records and deliveries into nrecs and ndels.
func (c *cursor) data(recs Batch, dels []Delivery) (DataHeader, []Delivery) {
	var hdr DataHeader
	hdr.Seq = c.uvarint()
	hdr.Round = c.count("round")
	hdr.Src = c.count("src")
	ng := c.count("group count")
	for i := 0; i < ng && c.err == nil; i++ {
		nr := c.count("record count")
		start := c.nrecs
		for j := 0; j < nr && c.err == nil; j++ {
			rec := c.record()
			if !c.dry {
				*recs[c.nrecs] = rec
			}
			c.nrecs++
		}
		var batch Batch
		if !c.dry && nr > 0 {
			batch = recs[start:c.nrecs:c.nrecs]
		}
		nd := c.count("destination count")
		if nd == 0 {
			c.fail("destination count")
		}
		for j := 0; j < nd && c.err == nil; j++ {
			dst := c.count("dst")
			if !c.dry {
				dels = append(dels, Delivery{Dst: dst, Recs: batch})
			}
			c.ndels++
		}
	}
	return hdr, dels
}

// cursor is a fail-sticky decoder over one payload: the first error
// latches and every later read returns zero values, so decode paths
// check c.err once at the end instead of threading errors through
// every field.
//
// A dry cursor reads and validates the same bytes without building
// anything: strings, proof strings and edge lists decode empty, and
// data only counts. nrecs and ndels count what data has read; nnbrs,
// ninputs and nbits count the slab room the records need (decoder).
type cursor struct {
	buf []byte
	off int
	err error
	dry bool

	nrecs, ndels          int
	nnbrs, ninputs, nbits int

	// The slabs a decoding cursor carves records' fields from: nbrs
	// grows by append within its capacity, inputs is filled nin entries
	// in, and slab holds the proof strings.
	nbrs   []int
	inputs []EdgeInput
	nin    int
	slab   bitstr.Slab
}

// decoder returns a cursor that decodes the payload c, a dry cursor,
// has read without error, with slabs sized by what c counted.
func (c *cursor) decoder() *cursor {
	d := &cursor{buf: c.buf}
	if c.nnbrs > 0 {
		d.nbrs = make([]int, 0, c.nnbrs)
	}
	if c.ninputs > 0 {
		d.inputs = make([]EdgeInput, c.ninputs)
	}
	if c.nbits > 0 {
		d.slab = bitstr.NewSlab(c.nbits)
	}
	return d
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

// end returns the decode's error: the first failure, or bytes left
// after a complete payload.
func (c *cursor) end() error {
	if c.err == nil && c.off != len(c.buf) {
		c.err = fmt.Errorf("transport: %d trailing bytes", len(c.buf)-c.off)
	}
	return c.err
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
	c.off += n
	if c.dry {
		return ""
	}
	return string(c.buf[c.off-n : c.off])
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
	c.off += nbytes
	if c.dry {
		c.nbits += nbytes
		return bitstr.Empty
	}
	return c.slab.FromPacked(c.buf[c.off-nbytes:c.off], n)
}

func (c *cursor) record() Record {
	var rec Record
	rec.ID = c.count("record id")
	flags := c.byte()
	if flags&^(flagProof|flagLabel|flagBare) != 0 || flags&(flagBare|flagLabel) == flagBare|flagLabel {
		c.fail("record flags")
		return rec
	}
	if flags&flagProof != 0 {
		rec.HasProof = true
		rec.Proof = c.bits()
	}
	if flags&flagBare != 0 {
		rec.Bare = true
		return rec
	}
	if flags&flagLabel != 0 {
		rec.HasLabel = true
		rec.Label = c.string("node label")
	}
	ne := c.count("edge count")
	start, hi, inputs := len(c.nbrs), false, false
	for i := 0; i < ne && c.err == nil; i++ {
		u, v := c.count("edge u"), c.count("edge v")
		w := u
		switch {
		case v == rec.ID && !hi:
			rec.Lo++
		case u == rec.ID:
			w, hi = v, true
		case v == rec.ID:
			c.fail("edge order")
		default:
			if c.err == nil {
				c.err = fmt.Errorf("transport: corrupt record at offset %d: edge %v is not an edge of node %d", c.off, graph.Edge{U: u, V: v}, rec.ID)
			}
		}
		var x EdgeInput
		ef := c.byte()
		if ef&1 != 0 {
			x.HasLabel = true
			x.Label = c.string("edge label")
		}
		if ef&2 != 0 {
			x.HasWeight = true
			x.Weight = c.varint()
		}
		if x.HasLabel || x.HasWeight {
			inputs = true
			if !c.dry {
				c.inputs[c.nin+i] = x
			}
		}
		if !c.dry {
			c.nbrs = append(c.nbrs, w)
		}
	}
	if c.dry {
		c.nnbrs += ne
		if inputs {
			c.ninputs += ne
		}
		return rec
	}
	if ne > 0 {
		rec.Nbrs = c.nbrs[start:len(c.nbrs):len(c.nbrs)]
	}
	if inputs {
		rec.Inputs = c.inputs[c.nin : c.nin+ne : c.nin+ne]
		c.nin += ne
	}
	return rec
}
