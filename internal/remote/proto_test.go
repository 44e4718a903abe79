package remote

// The packed check frames: proof and verdict decoding survive arbitrary
// bytes without panicking, and encode → decode keeps every proof entry
// exactly — present or absent, ε or not — and every verdict.

import (
	"testing"

	"lcp/internal/bitstr"
	"lcp/internal/core"
)

func TestProofsRoundTripKeepsPresence(t *testing.T) {
	owned := []int{4, 9, 2, 7}
	p := core.Proof{4: bitstr.Parse("101101011"), 9: bitstr.Empty, 7: bitstr.Parse("1")}
	got := core.Proof{100: bitstr.Parse("1")} // stale entry: decode must clear it
	if err := decodeProofs(appendProofs(nil, owned, p), owned, got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !proofsEqual(got, p) {
		t.Fatalf("round-trip: got %v want %v", got, p)
	}
}

func TestDecodeProofsRejectsCorrupt(t *testing.T) {
	owned := []int{1, 2}
	payload := appendProofs(nil, owned, core.Proof{1: bitstr.Parse("1011"), 2: bitstr.Parse("0")})
	for i := 0; i < len(payload); i++ {
		if err := decodeProofs(payload[:i], owned, core.Proof{}); err == nil {
			t.Fatalf("prefix of %d bytes decoded", i)
		}
	}
	if err := decodeProofs(append(payload, 0), owned, core.Proof{}); err == nil {
		t.Fatal("trailing byte decoded")
	}
	// A bit length far beyond the payload fails before any allocation
	// for it.
	if err := decodeProofs([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}, owned[:1], core.Proof{}); err == nil {
		t.Fatal("oversized bit length decoded")
	}
}

func FuzzCheckFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendProofs(nil, []int{1, 2, 3}, core.Proof{1: bitstr.Parse("10"), 3: bitstr.Empty}))
	f.Add(appendVerdicts(nil, []bool{true, false, true, true, false, true, false, true, true}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary bytes as either frame body, for a few shard sizes:
		// an error or a value, never a panic.
		for _, n := range []int{0, 1, 3, 8, 9, 17} {
			owned := make([]int, n)
			for i := range owned {
				owned[i] = i + 1
			}
			if err := decodeProofs(data, owned, core.Proof{}); err == nil && n == 0 && len(data) != 0 {
				t.Fatalf("%d bytes decoded as the proofs of an empty shard", len(data))
			}
			if v, err := decodeVerdicts(data, n); err == nil && len(v) != n {
				t.Fatalf("decoded %d verdicts, want %d", len(v), n)
			}
		}

		// The same bytes drive a proof and a verdict vector through
		// encode → decode.
		owned, p, verdicts := genCheck(data)
		got := core.Proof{}
		if err := decodeProofs(appendProofs(nil, owned, p), owned, got); err != nil {
			t.Fatalf("decode of encoded proofs: %v", err)
		}
		if !proofsEqual(got, p) {
			t.Fatalf("proofs round-trip: got %v want %v", got, p)
		}
		gotV, err := decodeVerdicts(appendVerdicts(nil, verdicts), len(verdicts))
		if err != nil {
			t.Fatalf("decode of encoded verdicts: %v", err)
		}
		for i := range verdicts {
			if gotV[i] != verdicts[i] {
				t.Fatalf("verdict %d round-tripped to %v", i, gotV[i])
			}
		}
	})
}

// genCheck derives an owned list, a proof over it (absent, ε and
// non-empty entries) and a verdict vector from fuzz bytes.
func genCheck(data []byte) ([]int, core.Proof, []bool) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	n := next() % 24
	owned := make([]int, n)
	p := core.Proof{}
	verdicts := make([]bool, n)
	for i := range owned {
		owned[i] = 3*i + next()%3
		verdicts[i] = next()&1 != 0
		switch k := next() % 3; k {
		case 0: // absent
		case 1:
			p[owned[i]] = bitstr.Empty
		default:
			var w bitstr.Writer
			for b := 1 + next()%20; b > 0; b-- {
				w.WriteBit(next()&1 != 0)
			}
			p[owned[i]] = w.String()
		}
	}
	return owned, p, verdicts
}

// proofsEqual compares two proofs entry by entry, presence included.
func proofsEqual(a, b core.Proof) bool {
	if len(a) != len(b) {
		return false
	}
	for id, s := range a {
		t, ok := b[id]
		if !ok || !s.Equal(t) {
			return false
		}
	}
	return true
}
