// Package remote implements the multi-process scale-out of the
// verification stack: worker processes each owning one shard of a
// partitioned instance, and a coordinator that registers instances on
// every worker and fans each check out: a dist.Group, one shard per
// worker, which a dist.Network pools like its in-process wirings
// (Fleet).
//
// The control plane is JSON request/response frames over one TCP
// connection per coordinator/worker pair (length-prefixed framing from
// internal/transport, which also supplies the binary data plane the
// workers speak among themselves — see transport/wire.go for the frame
// layout). A registration lives exactly as long as those control
// connections. Register does the expensive work once, in two fan-outs:
// OpRegister ships each worker the round-0 records of the nodes it
// decides (in the data plane's encoding), the graph kind, the global
// input and the assignment of the records' nodes, from which it wires a
// dist.Shard (automata, same-shard links, cut-edge routing), rejecting
// malformed records there. OpConnect then builds the shard-pair mesh,
// one TCP data connection per pair of shards sharing a cut edge, which
// every check of the registration reuses. A check carries only packed
// proof bits in the registered record order and returns a verdict
// bitmap in the same order (see appendProofs and appendVerdicts):
//
//	coordinator              worker i                worker j (j < i)
//	  |-- register(recs_i) ----->| wire shard_i          |
//	  |-- register(recs_j) ----------------------------->| wire shard_j
//	  |-- connect -------------->|== dial data(seq) ====>| (mesh, kept)
//	  |-- connect -------------------------------------->|
//	  |-- check(seq, bits_i) --->|                       |
//	  |-- check(seq, bits_j) --------------------------->|
//	  |                          |<= frames on mesh ====>|
//	  |                          | seed, flood, decide   | (same)
//	  |<-- bitmap_i, stats ------|                       |
//	  |<-- bitmap_j, stats ------------------------------|
//	  dist.MergeVerdicts; every node decided exactly once
//
// Failure is bounded everywhere, and any failure ends the
// registration: every dial, handshake, request, and flood round runs
// under a fixed bound (5 s to dial a worker, 60 s per control round
// trip, transport.DefaultRoundTimeout per flood round), and a worker
// error, an I/O error, or a cancelled or timed out context makes the
// coordinator close its control connections. The bounds are not
// options: a caller that wants a tighter one passes a context
// deadline. A worker drops an instance — its shard and its mesh — the
// moment the control connection that registered it closes, and a check
// in flight on it stops within one round bound. Recovery is a new
// coordinator and a new registration.
package remote

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"time"

	"lcp/internal/bitstr"
	"lcp/internal/core"
	"lcp/internal/transport"
)

// Request operations.
const (
	// OpRegister installs an instance shard on a worker.
	OpRegister = "register"
	// OpConnect builds a registered shard's data mesh: the worker dials
	// every peer shard below its own and waits until every peer
	// connection is present, bounded by the worker's round bound.
	OpConnect = "connect"
	// OpCheck runs one proof over a registered instance shard.
	OpCheck = "check"
)

// Request is one control-plane request from coordinator to worker.
type Request struct {
	// Op selects the operation (OpRegister, OpConnect, OpCheck).
	Op string `json:"op"`
	// Seq numbers the request; the response echoes it. The mesh's data
	// connections carry the registration's Seq in their Hello, and a
	// check's data frames carry the check's Seq.
	Seq uint64 `json:"seq"`
	// Instance names the registered instance the request addresses.
	Instance string `json:"instance"`

	// Scheme names the verification scheme (register). The worker
	// resolves it in its own registry — code does not travel.
	Scheme string `json:"scheme,omitempty"`
	// Records carries the round-0 records of the nodes this worker
	// decides (register; transport.AppendRecords), in the order checks
	// pack proofs and verdicts in.
	Records []byte `json:"records,omitempty"`
	// Directed marks a directed instance (register).
	Directed bool `json:"directed,omitempty"`
	// Global is the instance's global input (register).
	Global core.Global `json:"global,omitempty"`
	// Assign maps node id -> owning shard for every node the records
	// name: the owned nodes and their neighbors (register).
	Assign map[int]int `json:"assign,omitempty"`
	// Me is the shard index this worker owns (register).
	Me int `json:"me,omitempty"`
	// Workers lists every worker's data address, indexed by shard
	// (register).
	Workers []string `json:"workers,omitempty"`

	// Proofs carries the proof bits of this worker's owned nodes,
	// packed in the registered record order (check; see appendProofs).
	// Remote nodes' proofs ride the data plane inside their records.
	Proofs []byte `json:"proofs,omitempty"`
}

// Response is one control-plane response from worker to coordinator.
type Response struct {
	// OK reports success; on false, Error says why.
	OK bool `json:"ok"`
	// Seq echoes the request's sequence number.
	Seq uint64 `json:"seq"`
	// Error is the failure description when OK is false.
	Error string `json:"error,omitempty"`
	// Verdicts is the check's verdict bitmap, one bit per owned node in
	// the registered record order (check; see appendVerdicts).
	Verdicts []byte `json:"verdicts,omitempty"`
	// Stats reports the shard's data-plane traffic for the check.
	Stats transport.Stats `json:"stats,omitempty"`
}

// writeJSONFrame marshals v into one frame of the given type under a
// write deadline.
func writeJSONFrame(conn net.Conn, w *bufio.Writer, typ byte, v any, deadline time.Time) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := conn.SetWriteDeadline(deadline); err != nil {
		return err
	}
	if _, err := transport.WriteFrame(w, typ, payload); err != nil {
		return err
	}
	return w.Flush()
}

// readJSONFrame reads one frame under a read deadline and unmarshals
// it into v, insisting on the expected frame type.
func readJSONFrame(conn net.Conn, r *bufio.Reader, wantTyp byte, v any, deadline time.Time) error {
	if err := conn.SetReadDeadline(deadline); err != nil {
		return err
	}
	typ, payload, _, err := transport.ReadFrame(r)
	if err != nil {
		return err
	}
	if typ != wantTyp {
		return fmt.Errorf("remote: unexpected frame type %d, want %d", typ, wantTyp)
	}
	return json.Unmarshal(payload, v)
}

// The packed check frames. Registration fixes each worker's owned
// order — the order of its records — so a check names no node ids at
// all:
//
//	proofs   := entry... (one per owned node, in owned order)
//	entry    := uvarint (bit-length + 1), 0 = no entry
//	          | MSB-first packed bits
//	verdicts := ⌈#owned/8⌉ bytes; bit i, MSB-first, is owned[i]'s verdict
//
// The +1 keeps entry presence exact — a missing entry (no proof) and
// an explicit ε entry are different proofs to a verifier, as they are
// in core.Proof.

// appendProofs packs p's entries for the owned nodes onto buf.
func appendProofs(buf []byte, owned []int, p core.Proof) []byte {
	for _, id := range owned {
		s, ok := p[id]
		if !ok {
			buf = append(buf, 0)
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(s.Len())+1)
		buf = s.AppendPacked(buf)
	}
	return buf
}

// decodeProofs unpacks a check's proofs for the owned nodes into p,
// which it clears first. A bit length is checked against the bytes
// left before anything is allocated for it. The bits of every entry
// share one fresh slab, no larger than buf: a check's proofs are never
// decoded into a slab an earlier check used, because a warm shard's
// frozen views keep the strings they were built from.
func decodeProofs(buf []byte, owned []int, p core.Proof) error {
	clear(p)
	slab := bitstr.NewSlab(len(buf))
	off := 0
	for i, id := range owned {
		v, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return fmt.Errorf("remote: proofs truncated at entry %d of %d", i, len(owned))
		}
		off += n
		if v == 0 {
			continue
		}
		bits := v - 1
		if bits > uint64(8*(len(buf)-off)) {
			return fmt.Errorf("remote: proof of node %d announces %d bits, %d bytes left", id, bits, len(buf)-off)
		}
		nbytes := int(bits+7) / 8
		p[id] = slab.FromPacked(buf[off:off+nbytes], int(bits))
		off += nbytes
	}
	if off != len(buf) {
		return fmt.Errorf("remote: %d trailing bytes after %d proofs", len(buf)-off, len(owned))
	}
	return nil
}

// appendVerdicts packs verdicts into a bitmap onto buf.
func appendVerdicts(buf []byte, verdicts []bool) []byte {
	for i := 0; i < len(verdicts); i += 8 {
		var b byte
		for j := i; j < i+8 && j < len(verdicts); j++ {
			if verdicts[j] {
				b |= 1 << (7 - uint(j-i))
			}
		}
		buf = append(buf, b)
	}
	return buf
}

// decodeVerdicts unpacks a bitmap of n verdicts. A bitmap of the wrong
// length, or with bits set past the last verdict, is an error: it was
// packed for some other registration.
func decodeVerdicts(buf []byte, n int) ([]bool, error) {
	if len(buf) != (n+7)/8 {
		return nil, fmt.Errorf("remote: verdict bitmap of %d bytes for %d owned nodes", len(buf), n)
	}
	if r := n & 7; r != 0 && buf[len(buf)-1]<<uint(r) != 0 {
		return nil, fmt.Errorf("remote: verdict bitmap has bits set past its %d nodes", n)
	}
	verdicts := make([]bool, n)
	for i := range verdicts {
		verdicts[i] = buf[i>>3]&(1<<(7-uint(i&7))) != 0
	}
	return verdicts, nil
}
