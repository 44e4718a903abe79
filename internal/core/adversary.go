package core

import (
	"math/rand"
	"slices"

	"lcp/internal/bitstr"
)

// Adversarial proof machinery for soundness experiments: random proofs,
// bit-flips, label transplants, and the exhaustive search that certifies
// condition (ii) of §2.2 exactly on tiny instances.

// RandomProof assigns every node an independent random string of exactly
// bits bits.
func RandomProof(in *Instance, bits int, seed int64) Proof {
	rng := rand.New(rand.NewSource(seed))
	p := make(Proof, in.G.N())
	for _, v := range in.G.Nodes() {
		var w bitstr.Writer
		for i := 0; i < bits; i++ {
			w.WriteBit(rng.Intn(2) == 1)
		}
		p[v] = w.String()
	}
	return p
}

// FlipBit returns a copy of the proof with one pseudo-random bit flipped
// (choosing among nodes with non-empty labels). It returns the proof
// unchanged if every label is empty.
func FlipBit(p Proof, seed int64) Proof {
	rng := rand.New(rand.NewSource(seed))
	var nodes []int
	for v, s := range p {
		if s.Len() > 0 {
			nodes = append(nodes, v)
		}
	}
	if len(nodes) == 0 {
		return p.Clone()
	}
	// Deterministic order for reproducibility.
	slices.Sort(nodes)
	v := nodes[rng.Intn(len(nodes))]
	s := p[v]
	pos := rng.Intn(s.Len())
	var w bitstr.Writer
	for i := 0; i < s.Len(); i++ {
		b := s.Bit(i)
		if i == pos {
			b = !b
		}
		w.WriteBit(b)
	}
	out := p.Clone()
	out[v] = w.String()
	return out
}

// enumerateProofs iterates over all proofs that assign each node of nodes
// a string of length ≤ maxBits, invoking fn for each; fn returning true
// stops the enumeration (and makes enumerateProofs return true).
// The number of proofs is (2^{maxBits+1} − 1)^len(nodes): strictly for
// tiny instances.
func enumerateProofs(nodes []int, maxBits int, fn func(Proof) bool) bool {
	// All candidate strings of length 0..maxBits.
	var candidates []bitstr.String
	for l := 0; l <= maxBits; l++ {
		for v := 0; v < 1<<uint(l); v++ {
			candidates = append(candidates, bitstr.FromUint(uint64(v), l))
		}
	}
	choice := make([]int, len(nodes))
	p := make(Proof, len(nodes))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(nodes) {
			return fn(p)
		}
		for c := range candidates {
			choice[i] = c
			p[nodes[i]] = candidates[c]
			if rec(i + 1) {
				return true
			}
		}
		return false
	}
	return rec(0)
}

// FindValidProof exhaustively searches for a proof of size ≤ maxBits that
// the verifier accepts on every node. It returns the first one found, or
// nil. Exponential: use only on tiny instances.
func FindValidProof(in *Instance, v Verifier, maxBits int) Proof {
	var found Proof
	enumerateProofs(in.G.Nodes(), maxBits, func(p Proof) bool {
		if Check(in, p, v).Accepted() {
			found = p.Clone()
			return true
		}
		return false
	})
	return found
}

// MinProofSize returns the smallest s ≤ maxBits such that some proof of
// size ≤ s is accepted everywhere, or -1 if none exists up to maxBits.
// Combined with a scheme's prover this measures tightness: for
// yes-instances it is the exact minimum proof size for this verifier.
func MinProofSize(in *Instance, v Verifier, maxBits int) int {
	for s := 0; s <= maxBits; s++ {
		if FindValidProof(in, v, s) != nil {
			return s
		}
	}
	return -1
}

// CertifySoundness verifies condition (ii) of §2.2 exhaustively on a
// no-instance: no proof of size ≤ maxBits is accepted by all nodes. It
// returns false (and the offending proof) if the verifier can be fooled.
func CertifySoundness(in *Instance, v Verifier, maxBits int) (bool, Proof) {
	var fooling Proof
	fooled := enumerateProofs(in.G.Nodes(), maxBits, func(p Proof) bool {
		if Check(in, p, v).Accepted() {
			fooling = p.Clone()
			return true
		}
		return false
	})
	return !fooled, fooling
}
