package bitstr

import "testing"

// bitwiseReader is the reference the word-at-a-time Reader must match:
// one bounds-checked Bit per bit, the way ReadUint used to read.
type bitwiseReader struct {
	s   String
	pos int
	err bool
}

func (r *bitwiseReader) readBit() bool {
	if r.pos >= r.s.Len() {
		r.err = true
		return false
	}
	b := r.s.Bit(r.pos)
	r.pos++
	return b
}

func (r *bitwiseReader) readUint(width int) uint64 {
	var v uint64
	for i := 0; i < width; i++ {
		v <<= 1
		if r.readBit() {
			v |= 1
		}
	}
	if r.err {
		return 0
	}
	return v
}

// FuzzReaderMatchesBitwise drives a Reader and the bitwise reference
// through the same sequence of reads over the same string — widths from
// -2 to 80, so past 64 and past the end too, with single-bit reads
// mixed in — and demands identical values, Err, Remaining and AtEnd
// after every read.
func FuzzReaderMatchesBitwise(f *testing.F) {
	f.Add([]byte{0xA5, 0x3C, 0xFF}, uint8(3), []byte{1, 7, 66, 3, 200})
	f.Add([]byte{0x80, 0, 0, 0, 0, 0, 0, 0, 1, 0x7F}, uint8(0), []byte{66, 10, 3})
	f.Add([]byte{}, uint8(0), []byte{0, 1, 255})
	f.Add([]byte{0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE, 0xF0, 0x11, 0x22}, uint8(5), []byte{5, 66, 66, 9})
	f.Fuzz(func(t *testing.T, data []byte, pad uint8, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512] // a longer run of reads adds time, not coverage
		}
		s := FromPacked(data, len(data)*8-int(pad%8))
		r := NewReader(s)
		ref := &bitwiseReader{s: s}
		for k, op := range ops {
			var got, want uint64
			if op >= 250 {
				got, want = b2u(r.ReadBit()), b2u(ref.readBit())
			} else {
				width := int(op)%83 - 2
				got, want = r.ReadUint(width), ref.readUint(width)
			}
			if got != want || r.Err() != ref.err || r.Remaining() != s.Len()-ref.pos ||
				r.AtEnd() != (!ref.err && ref.pos == s.Len()) {
				t.Fatalf("op %d (%d) on %d bits: got %d err=%v rem=%d, want %d err=%v rem=%d",
					k, op, s.Len(), got, r.Err(), r.Remaining(), want, ref.err, s.Len()-ref.pos)
			}
		}
	})
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
