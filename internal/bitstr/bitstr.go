// Package bitstr implements bit-exact binary strings.
//
// Locally checkable proofs assign a binary string to every node, and the
// size of a proof is measured in bits per node (Göös & Suomela, PODC 2011,
// §2.1). This package provides the proof alphabet: an immutable String
// value type whose length is counted in bits, plus MSB-first Writer and
// Reader types for composing structured proof labels out of fixed-width
// integers, variable-width integers and booleans.
package bitstr

import (
	"fmt"
	"strings"
)

// String is an immutable sequence of bits. The zero value is the empty
// string ε (the "empty proof" of size 0 in the paper).
type String struct {
	data []byte // MSB-first packed bits; len(data) == ceil(n/8)
	n    int    // number of valid bits
}

// Empty is the empty bit string ε.
var Empty = String{}

// FromBits builds a String from a slice of 0/1 values, most significant
// first. Any nonzero byte counts as a 1 bit.
func FromBits(bits []byte) String {
	var w Writer
	for _, b := range bits {
		w.WriteBit(b != 0)
	}
	return w.String()
}

// FromBools builds a String from booleans, most significant first.
func FromBools(bits ...bool) String {
	var w Writer
	for _, b := range bits {
		w.WriteBit(b)
	}
	return w.String()
}

// FromUint builds a width-bit String holding v in MSB-first binary.
func FromUint(v uint64, width int) String {
	var w Writer
	w.WriteUint(v, width)
	return w.String()
}

// FromPacked builds an n-bit String from MSB-first packed bytes — the
// layout String keeps internally and the wire formats ship. Bits past n
// in the last byte are ignored, and data is copied, never retained. It
// panics if data holds fewer than ⌈n/8⌉ bytes.
func FromPacked(data []byte, n int) String {
	if n <= 0 {
		return Empty
	}
	nbytes := (n + 7) / 8
	if len(data) < nbytes {
		panic(fmt.Sprintf("bitstr.FromPacked: %d bytes for %d bits", len(data), n))
	}
	out := make([]byte, nbytes)
	copy(out, data[:nbytes])
	if r := n & 7; r != 0 {
		out[nbytes-1] &= 0xff << (8 - uint(r))
	}
	return String{data: out, n: n}
}

// Parse builds a String from a textual description such as "0110". Spaces
// are ignored. It panics on any other rune; it is intended for tests.
func Parse(s string) String {
	var w Writer
	for _, r := range s {
		switch r {
		case '0':
			w.WriteBit(false)
		case '1':
			w.WriteBit(true)
		case ' ':
		default:
			panic(fmt.Sprintf("bitstr.Parse: invalid rune %q", r))
		}
	}
	return w.String()
}

// Len returns the number of bits in s.
func (s String) Len() int { return s.n }

// IsEmpty reports whether s is the empty string ε.
func (s String) IsEmpty() bool { return s.n == 0 }

// Bit returns the i-th bit (0-indexed from the most significant end).
func (s String) Bit(i int) bool {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitstr: Bit(%d) out of range [0,%d)", i, s.n))
	}
	return s.data[i>>3]&(1<<(7-uint(i&7))) != 0
}

// Equal reports whether s and t contain the same bits.
func (s String) Equal(t String) bool {
	if s.n != t.n {
		return false
	}
	for i := range s.data {
		if s.data[i] != t.data[i] {
			return false
		}
	}
	return true
}

// String renders the bits as a "0"/"1" text string.
func (s String) String() string {
	var b strings.Builder
	b.Grow(s.n)
	for i := 0; i < s.n; i++ {
		if s.Bit(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// AppendPacked appends the bits of s to buf, MSB-first packed: ⌈Len/8⌉
// bytes, the unused low bits of the last byte zero. FromPacked inverts
// it.
func (s String) AppendPacked(buf []byte) []byte { return append(buf, s.data...) }

// Concat returns the concatenation s·t.
func (s String) Concat(t String) String {
	var w Writer
	w.WriteBitString(s)
	w.WriteBitString(t)
	return w.String()
}

// Truncate returns the prefix of s with at most n bits. Truncation is used
// by the lower-bound adversaries to model schemes whose proofs are too
// small.
func (s String) Truncate(n int) String {
	if n >= s.n {
		return s
	}
	if n <= 0 {
		return Empty
	}
	var w Writer
	for i := 0; i < n; i++ {
		w.WriteBit(s.Bit(i))
	}
	return w.String()
}

// Key returns a comparable representation of s, usable as a map key. Two
// strings have equal keys iff they are Equal.
func (s String) Key() string {
	return fmt.Sprintf("%d:%x", s.n, s.data)
}

// Writer builds a String bit by bit. The zero value is ready to use.
type Writer struct {
	data []byte
	n    int
}

// WriteBit appends a single bit.
func (w *Writer) WriteBit(b bool) {
	if w.n&7 == 0 {
		w.data = append(w.data, 0)
	}
	if b {
		w.data[w.n>>3] |= 1 << (7 - uint(w.n&7))
	}
	w.n++
}

// WriteUint appends v as exactly width bits, most significant first. It
// panics if v does not fit in width bits; proofs must be exact about their
// advertised size.
func (w *Writer) WriteUint(v uint64, width int) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bitstr: invalid width %d", width))
	}
	if width < 64 && v>>uint(width) != 0 {
		panic(fmt.Sprintf("bitstr: value %d does not fit in %d bits", v, width))
	}
	for i := width - 1; i >= 0; i-- {
		w.WriteBit(v>>uint(i)&1 == 1)
	}
}

// WriteBitString appends all bits of s.
func (w *Writer) WriteBitString(s String) {
	for i := 0; i < s.n; i++ {
		w.WriteBit(s.Bit(i))
	}
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.n }

// String returns the accumulated bits. The Writer may keep being used; the
// returned String is an independent snapshot.
func (w *Writer) String() String {
	data := make([]byte, len(w.data))
	copy(data, w.data)
	return String{data: data, n: w.n}
}

// Reader consumes a String from the most significant end. Reads past the
// end set Err rather than panicking: verifiers must treat malformed
// (adversarial) proofs as invalid, not crash on them.
type Reader struct {
	s   String
	pos int
	err bool
}

// NewReader returns a Reader over s.
func NewReader(s String) *Reader {
	return &Reader{s: s}
}

// ReadBit reads one bit. On underflow it returns false and sets Err.
func (r *Reader) ReadBit() bool {
	if r.pos >= r.s.n {
		r.err = true
		return false
	}
	b := r.s.Bit(r.pos)
	r.pos++
	return b
}

// ReadUint reads a width-bit unsigned integer (MSB first). On underflow it
// returns 0 and sets Err.
func (r *Reader) ReadUint(width int) uint64 {
	var v uint64
	for i := 0; i < width; i++ {
		v <<= 1
		if r.ReadBit() {
			v |= 1
		}
	}
	if r.err {
		return 0
	}
	return v
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.s.n - r.pos }

// Err reports whether any read ran past the end of the string.
func (r *Reader) Err() bool { return r.err }

// AtEnd reports whether the reader consumed the string exactly, with no
// underflow. Verifiers use it to reject proofs with trailing garbage when
// the encoding is meant to be exact.
func (r *Reader) AtEnd() bool { return !r.err && r.pos == r.s.n }

// UintWidth returns the number of bits needed to store v: 0 for v == 0,
// otherwise ⌈log₂(v+1)⌉.
func UintWidth(v uint64) int {
	w := 0
	for v != 0 {
		w++
		v >>= 1
	}
	return w
}

// WidthFor returns the fixed width needed to address values 0..max,
// i.e. UintWidth(max), but at least 1 so that a field is always present.
func WidthFor(max uint64) int {
	if w := UintWidth(max); w > 0 {
		return w
	}
	return 1
}
