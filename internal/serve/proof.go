package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"unicode/utf8"

	"lcp/internal/bitstr"
	"lcp/internal/core"
)

// wireProof is a request proof, {"<node id>": "<bits>", ...}, as one
// scan of its JSON object leaves it: the entries in document order,
// their bits packed in one slab per object. A key that is no node id,
// or a value with a byte other than '0' and '1', is kept aside in bad
// under its decoded key; parseProof reports it once the request's
// instance is known, as it reports an id the instance lacks.
type wireProof struct {
	entries []proofEntry
	bad     map[string]badEntry // made at the first bad entry
}

type proofEntry struct {
	id   int
	bits bitstr.String
}

// badEntry is an entry the scan could not take: a bad id (idOK false),
// or a good id with a bad bit. A later entry under the same key
// replaces it, as it would replace the value in a map.
type badEntry struct {
	id   int
	idOK bool
	bit  rune // the first bad bit, if idOK
}

// errProofShape answers a proof that is not an object of strings, as
// encoding/json answers such a value for a map of strings.
var errProofShape = errors.New("proof: want a JSON object of node ids to bit strings")

// UnmarshalJSON scans one proof object. encoding/json has checked the
// bytes are one valid JSON value before it calls this. A second object
// for the same proof (a repeated "proof" key) adds its entries to the
// first, as decoding into one map does; a repeated id keeps its last
// value. Keys and values holding a backslash are unescaped by
// encoding/json, one token at a time, and then scanned as the rest.
func (wp *wireProof) UnmarshalJSON(data []byte) error {
	i := skipSpace(data, 0)
	if i == len(data) || data[i] != '{' {
		return errProofShape
	}
	// Each entry has one ':' outside its strings and spans at least
	// len(`"1":""`) = 6 bytes, so both bound the entries; the second
	// keeps a body of colons inside one string from sizing the slice.
	// (len+colons)/8 bounds their packed bits: an entry of b bits
	// spans at least b+6 bytes and packs into at most (b+7)/8.
	colons := bytes.Count(data, []byte{':'})
	if wp.entries == nil {
		wp.entries = make([]proofEntry, 0, min(colons, len(data)/6))
	}
	slab := bitstr.NewSlab((len(data) + colons) / 8)
	for i = skipSpace(data, i+1); i < len(data) && data[i] != '}'; {
		key, next, err := stringToken(data, i)
		if err != nil {
			return err
		}
		i = skipSpace(data, next)
		if i == len(data) || data[i] != ':' {
			return errProofShape
		}
		i = skipSpace(data, i+1)
		var val []byte // nil for a JSON null: ε, as null into a string
		if bytes.HasPrefix(data[i:], []byte("null")) {
			i += len("null")
		} else if val, next, err = stringToken(data, i); err != nil {
			return err
		} else {
			i = next
		}
		wp.take(key, val, &slab)
		i = skipSpace(data, i)
		if i < len(data) && data[i] == ',' {
			i = skipSpace(data, i+1)
		}
	}
	if i == len(data) {
		return errProofShape
	}
	return nil
}

// take adds the entry of one key and value token, each with its quotes.
func (wp *wireProof) take(key, val []byte, slab *bitstr.Slab) {
	name := key[1 : len(key)-1] // the decoded key: the raw bytes unless escaped
	if bytes.IndexByte(name, '\\') >= 0 {
		name = unquote(key)
	}
	id, err := strconv.Atoi(string(name))
	if err != nil {
		wp.setBad(name, badEntry{})
		return
	}
	var text []byte
	if val != nil {
		text = val[1 : len(val)-1]
		if bytes.IndexByte(text, '\\') >= 0 {
			text = unquote(val)
		}
	}
	bits, at := slab.ParseBits(text)
	if at >= 0 {
		r, _ := utf8.DecodeRune(text[at:])
		wp.setBad(name, badEntry{id: id, idOK: true, bit: r})
		return
	}
	delete(wp.bad, string(name))
	wp.entries = append(wp.entries, proofEntry{id: id, bits: bits})
}

// setBad keeps a bad entry under its decoded key.
func (wp *wireProof) setBad(name []byte, b badEntry) {
	if wp.bad == nil {
		wp.bad = make(map[string]badEntry)
	}
	wp.bad[string(name)] = b
}

// unquote decodes one JSON string token, escapes and all, the way
// encoding/json decodes it into a string.
func unquote(tok []byte) []byte {
	var s string
	// The token cannot fail to decode: encoding/json checked the whole
	// value before it called UnmarshalJSON.
	_ = json.Unmarshal(tok, &s)
	return []byte(s)
}

// stringToken returns the JSON string token starting at data[i],
// quotes included, and the index just past it. Anything but a string
// is the wrong shape for a key or a bit string.
func stringToken(data []byte, i int) (tok []byte, next int, err error) {
	if i == len(data) || data[i] != '"' {
		return nil, 0, errProofShape
	}
	for j := i + 1; j < len(data); j++ {
		switch data[j] {
		case '\\':
			j++
		case '"':
			return data[i : j+1], j + 1, nil
		}
	}
	return nil, 0, errProofShape
}

func skipSpace(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// parseProof checks a scanned request proof against the instance and
// returns it as a core.Proof. A nil proof — a null in "proofs" — is
// the empty proof.
func parseProof(in *core.Instance, wp *wireProof) (core.Proof, error) {
	if wp == nil {
		return core.Proof{}, nil
	}
	p := make(core.Proof, len(wp.entries))
	for _, e := range wp.entries {
		if !in.G.Has(e.id) {
			return nil, fmt.Errorf("proof references unknown node %d", e.id)
		}
		p[e.id] = e.bits
	}
	// Any one bad entry is reported, as decoding into a map and
	// walking it in map order reports any one.
	for name, b := range wp.bad {
		switch {
		case !b.idOK:
			return nil, fmt.Errorf("bad proof node id %q", name)
		case !in.G.Has(b.id):
			return nil, fmt.Errorf("proof references unknown node %d", b.id)
		default:
			return nil, fmt.Errorf("node %d: bad proof bit %q", b.id, b.bit)
		}
	}
	return p, nil
}
