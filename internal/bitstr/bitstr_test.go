package bitstr

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmptyString(t *testing.T) {
	var s String
	if s.Len() != 0 {
		t.Errorf("zero String has Len %d, want 0", s.Len())
	}
	if !s.IsEmpty() {
		t.Error("zero String is not IsEmpty")
	}
	if !s.Equal(Empty) {
		t.Error("zero String != Empty")
	}
	if s.String() != "" {
		t.Errorf("zero String renders %q, want empty", s.String())
	}
}

func TestParseRoundTrip(t *testing.T) {
	cases := []string{"", "0", "1", "01", "10", "0110", "11111111", "101010101", "0000000000000001"}
	for _, c := range cases {
		s := Parse(c)
		if got := s.String(); got != c {
			t.Errorf("Parse(%q).String() = %q", c, got)
		}
		if s.Len() != len(c) {
			t.Errorf("Parse(%q).Len() = %d, want %d", c, s.Len(), len(c))
		}
	}
}

func TestParseIgnoresSpaces(t *testing.T) {
	if got := Parse("10 01 1").String(); got != "10011" {
		t.Errorf("got %q, want 10011", got)
	}
}

func TestParsePanicsOnGarbage(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Parse(\"012\") did not panic")
		}
	}()
	Parse("012")
}

func TestFromUint(t *testing.T) {
	cases := []struct {
		v     uint64
		width int
		want  string
	}{
		{0, 1, "0"},
		{1, 1, "1"},
		{5, 3, "101"},
		{5, 8, "00000101"},
		{255, 8, "11111111"},
		{0, 0, ""},
	}
	for _, c := range cases {
		if got := FromUint(c.v, c.width).String(); got != c.want {
			t.Errorf("FromUint(%d,%d) = %q, want %q", c.v, c.width, got, c.want)
		}
	}
}

func TestWriteUintOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("WriteUint(4, 2) did not panic")
		}
	}()
	var w Writer
	w.WriteUint(4, 2)
}

func TestWriteReadRoundTrip(t *testing.T) {
	var w Writer
	w.WriteBit(true)
	w.WriteUint(42, 7)
	w.WriteBit(false)
	w.WriteUint(7, 3)
	s := w.String()
	if s.Len() != 12 {
		t.Fatalf("Len = %d, want 12", s.Len())
	}
	r := NewReader(s)
	if !r.ReadBit() {
		t.Error("first bit: got false")
	}
	if v := r.ReadUint(7); v != 42 {
		t.Errorf("ReadUint(7) = %d, want 42", v)
	}
	if r.ReadBit() {
		t.Error("ninth bit: got true")
	}
	if v := r.ReadUint(3); v != 7 {
		t.Errorf("ReadUint(3) = %d, want 7", v)
	}
	if !r.AtEnd() {
		t.Error("reader not AtEnd after exact read")
	}
}

func TestReaderUnderflow(t *testing.T) {
	r := NewReader(Parse("10"))
	r.ReadUint(3)
	if !r.Err() {
		t.Error("underflow did not set Err")
	}
	if r.AtEnd() {
		t.Error("AtEnd true after underflow")
	}
	// Reads after underflow stay harmless.
	if r.ReadBit() {
		t.Error("ReadBit after underflow returned true")
	}
}

func TestConcat(t *testing.T) {
	a, b := Parse("101"), Parse("0011")
	if got := a.Concat(b).String(); got != "1010011" {
		t.Errorf("Concat = %q", got)
	}
	if got := Empty.Concat(b); !got.Equal(b) {
		t.Errorf("ε·b = %q", got.String())
	}
	if got := a.Concat(Empty); !got.Equal(a) {
		t.Errorf("a·ε = %q", got.String())
	}
}

func TestTruncate(t *testing.T) {
	s := Parse("110101")
	cases := []struct {
		n    int
		want string
	}{
		{0, ""}, {-1, ""}, {1, "1"}, {3, "110"}, {6, "110101"}, {100, "110101"},
	}
	for _, c := range cases {
		if got := s.Truncate(c.n).String(); got != c.want {
			t.Errorf("Truncate(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestKeyDistinguishesLengths(t *testing.T) {
	// "0" and "00" pack into identical bytes; Key must still differ.
	a, b := Parse("0"), Parse("00")
	if a.Key() == b.Key() {
		t.Error("Key collision between \"0\" and \"00\"")
	}
	if !Parse("0110").Equal(Parse("0110")) {
		t.Error("Equal failed on identical strings")
	}
	if Parse("0110").Key() != Parse("0110").Key() {
		t.Error("Key differs on identical strings")
	}
}

func TestEqualDifferentLengths(t *testing.T) {
	if Parse("01").Equal(Parse("010")) {
		t.Error("prefix reported Equal")
	}
}

func TestUintWidth(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4}, {255, 8}, {256, 9}}
	for _, c := range cases {
		if got := UintWidth(c.v); got != c.want {
			t.Errorf("UintWidth(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	if WidthFor(0) != 1 {
		t.Errorf("WidthFor(0) = %d, want 1", WidthFor(0))
	}
	if WidthFor(5) != 3 {
		t.Errorf("WidthFor(5) = %d, want 3", WidthFor(5))
	}
}

// Property: writing any uint at its natural width and reading it back is
// the identity.
func TestQuickUintRoundTrip(t *testing.T) {
	f := func(v uint64, extra uint8) bool {
		width := UintWidth(v) + int(extra%8)
		if width > 64 {
			width = 64
		}
		if width == 0 {
			width = 1
		}
		if v>>uint(width) != 0 && width < 64 {
			v &= 1<<uint(width) - 1
		}
		s := FromUint(v, width)
		r := NewReader(s)
		return r.ReadUint(width) == v && r.AtEnd()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: FromBits round-trips through Bit().
func TestQuickBitsRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		s := FromBits(raw)
		if s.Len() != len(raw) {
			return false
		}
		for i, b := range raw {
			if s.Bit(i) != (b != 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Concat length adds up and bits are preserved in order.
func TestQuickConcat(t *testing.T) {
	f := func(a, b []byte) bool {
		sa, sb := FromBits(a), FromBits(b)
		c := sa.Concat(sb)
		if c.Len() != sa.Len()+sb.Len() {
			return false
		}
		for i := 0; i < sa.Len(); i++ {
			if c.Bit(i) != sa.Bit(i) {
				return false
			}
		}
		for i := 0; i < sb.Len(); i++ {
			if c.Bit(sa.Len()+i) != sb.Bit(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Key is injective over distinct random strings (no collisions
// in a sample) and Equal agrees with Key equality.
func TestQuickKeyEqualAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		na, nb := rng.Intn(20), rng.Intn(20)
		var wa, wb Writer
		for j := 0; j < na; j++ {
			wa.WriteBit(rng.Intn(2) == 1)
		}
		for j := 0; j < nb; j++ {
			wb.WriteBit(rng.Intn(2) == 1)
		}
		a, b := wa.String(), wb.String()
		if a.Equal(b) != (a.Key() == b.Key()) {
			t.Fatalf("Equal/Key disagree on %q vs %q", a, b)
		}
	}
}

func BenchmarkWriterUint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var w Writer
		for j := 0; j < 64; j++ {
			w.WriteUint(uint64(j), 10)
		}
		_ = w.String()
	}
}

func TestPackedRoundTrip(t *testing.T) {
	for _, bits := range []string{"", "1", "0", "10110101", "101101011", "1111111100000000101"} {
		s := Parse(bits)
		packed := s.AppendPacked(nil)
		if want := (len(bits) + 7) / 8; len(packed) != want {
			t.Fatalf("%q: packed to %d bytes, want %d", bits, len(packed), want)
		}
		if got := FromPacked(packed, s.Len()); !got.Equal(s) || got.String() != bits {
			t.Fatalf("%q: round-tripped to %q", bits, got.String())
		}
	}
	if got := FromPacked(nil, 0); got.Len() != 0 {
		t.Fatalf("FromPacked(nil, 0) has %d bits", got.Len())
	}
}

// TestFromPackedMasksPadding: garbage in the unused low bits of the
// last byte must not leak into Equal or Key.
func TestFromPackedMasksPadding(t *testing.T) {
	got := FromPacked([]byte{0xff}, 3)
	if want := Parse("111"); !got.Equal(want) || got.Key() != want.Key() {
		t.Fatalf("FromPacked(0xff, 3) = %q (key %s), want 111", got.String(), got.Key())
	}
}

// TestSlab: Strings built in one slab equal those built on their own,
// later Strings never disturb earlier ones, a slab that runs out of
// room still builds correct Strings, and filling a slab that is large
// enough makes no allocation beyond the slab's own.
func TestSlab(t *testing.T) {
	texts := []string{"", "0", "1", "0110", "11111111", "101010101", "0000000000000001"}
	for _, room := range []int{64, 3, 0} {
		slab := NewSlab(room)
		var got []String
		for _, text := range texts {
			s, bad := slab.ParseBits([]byte(text))
			if bad != -1 {
				t.Fatalf("room %d: ParseBits(%q) reports a bad byte at %d", room, text, bad)
			}
			got = append(got, s)
			want := Parse(text)
			packed := slab.FromPacked(append(want.AppendPacked(nil), 0xff), want.Len())
			if !packed.Equal(want) || packed.Key() != want.Key() {
				t.Fatalf("room %d: FromPacked of %q = %q", room, text, packed.String())
			}
		}
		for i, s := range got {
			if s.String() != texts[i] || !s.Equal(Parse(texts[i])) {
				t.Fatalf("room %d: string %d reads %q after the slab filled, want %q", room, i, s.String(), texts[i])
			}
		}
	}
	for _, text := range []string{"2", "01x1", "0 1", "1é"} {
		slab := NewSlab(8)
		if s, bad := slab.ParseBits([]byte(text)); bad == -1 || text[bad] == '0' || text[bad] == '1' || !s.IsEmpty() {
			t.Fatalf("ParseBits(%q) = %q, bad byte %d", text, s.String(), bad)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		slab := NewSlab(1 << 10)
		for i := 0; i < 100; i++ {
			slab.ParseBits([]byte("0110101"))
		}
	})
	if allocs > 1 {
		t.Fatalf("a slab of 100 Strings made %v allocations, want 1", allocs)
	}
}
