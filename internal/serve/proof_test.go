package serve

// FuzzCheckRequest is a differential test of the request decoder: the
// one-pass scan into wireProof against the decoder it replaced,
// encoding/json into map[string]string followed by a per-node
// bitstr.Writer (oracleParseProof, kept here only as the reference).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"lcp/internal/bitstr"
	"lcp/internal/core"
	"lcp/internal/graph"
)

// oracleRequest is checkRequest with the proofs as plain string maps.
type oracleRequest struct {
	Instance     string              `json:"instance,omitempty"`
	Document     string              `json:"document,omitempty"`
	Scheme       string              `json:"scheme,omitempty"`
	Proof        map[string]string   `json:"proof,omitempty"`
	Proofs       []map[string]string `json:"proofs,omitempty"`
	Backend      string              `json:"backend,omitempty"`
	Partitioner  string              `json:"partitioner,omitempty"`
	StopOnReject bool                `json:"stop_on_reject,omitempty"`
}

// oracleParseProof is the reference proof decoder.
func oracleParseProof(in *core.Instance, m map[string]string) (core.Proof, error) {
	p := make(core.Proof, len(m))
	for key, bits := range m {
		id, err := strconv.Atoi(key)
		if err != nil {
			return nil, fmt.Errorf("bad proof node id %q", key)
		}
		if !in.G.Has(id) {
			return nil, fmt.Errorf("proof references unknown node %d", id)
		}
		var w bitstr.Writer
		for _, r := range bits {
			switch r {
			case '0':
				w.WriteBit(false)
			case '1':
				w.WriteBit(true)
			default:
				return nil, fmt.Errorf("node %d: bad proof bit %q", id, r)
			}
		}
		p[id] = w.String()
	}
	return p, nil
}

// oracleDecode decodes a body of the endpoint the reference way, under
// the envelope rules decodeJSON keeps: the size bound, no unknown
// fields, nothing but whitespace after the object. It returns the
// proof maps the endpoint would parse.
func oracleDecode(body []byte, endpoint string) ([]map[string]string, error) {
	if len(body) > maxBodyBytes {
		return nil, fmt.Errorf("body of %d bytes", len(body))
	}
	var req oracleRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	if err := dec.Decode(&json.RawMessage{}); err != io.EOF {
		return nil, fmt.Errorf("data after the request object")
	}
	if endpoint == "/check/batch" {
		return req.Proofs, nil
	}
	if req.Proof == nil {
		return nil, nil
	}
	return []map[string]string{req.Proof}, nil
}

// decodeBody runs decodeJSON on a body of the endpoint and parses the
// proofs the endpoint would check. ok is false when the request is
// refused.
func decodeBody(in *core.Instance, body []byte, endpoint string) (proofs []core.Proof, msg string, ok bool) {
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, endpoint, bytes.NewReader(body))
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req checkRequest
	if !decodeJSON(w, r, &req) {
		return nil, w.Body.String(), false
	}
	wps := req.Proofs
	if endpoint == "/check" {
		if req.Proof == nil {
			return nil, "", true
		}
		wps = []*wireProof{req.Proof}
	}
	for i, wp := range wps {
		p, err := parseProof(in, wp)
		if err != nil {
			return nil, fmt.Sprintf("proofs[%d]: %v", i, err), false
		}
		proofs = append(proofs, p)
	}
	return proofs, "", true
}

// candidates lists, per node, every value the reference map holds for
// it: keys such as "1" and "01" name one node, and the reference keeps
// whichever its map order visits last.
func candidates(m map[string]string) map[int][]bitstr.String {
	out := make(map[int][]bitstr.String, len(m))
	for key, bits := range m {
		id, _ := strconv.Atoi(key)
		out[id] = append(out[id], bitstr.Parse(bits))
	}
	return out
}

// fuzzInstance is the path 1–2–…–8, so "0", "9" and "-1" name no
// node.
func fuzzInstance() *core.Instance {
	return core.NewInstance(graph.Path(8))
}

func FuzzCheckRequest(f *testing.F) {
	for _, body := range []string{
		`{"instance":"i1"}`,
		`{"instance":"i1","proof":null}`,
		`{"instance":"i1","proof":{}}`,
		`{"instance":"i1","proof":{"1":"0","2":"1","3":"0110"}}`,
		`{"instance":"i1","proof":{"0":"0"}}`,
		`{"instance":"i1","proof":{"1":"01","2":"10"}}`,
		`{"instance":"i1","proof":{"1":null,"2":""}}`,
		`{"instance":"i1","proof":{"1":"0","01":"1"}}`,
		`{"instance":"i1","proof":{"1":"2","1":"0"}}`,
		`{"instance":"i1","proof":{"1":"0"},"proof":{"2":"1"}}`,
		`{"instance":"i1","proof":{"1":"é"}}`,
		`{"instance":"i1","proof":{"1":"0` + "\xff" + `"}}`,
		`{"instance":"i1","proof":{"x":"0"}}`,
		`{"instance":"i1","proof":{"-1":"0","+2":"1"}}`,
		`{"instance":"i1","proof":{"99999999999999999999":"0"}}`,
		`{"instance":"i1","proof":{"9":"0"}}`,
		`{"instance":"i1","proof":{"\u0031":"\u0030","2":"1\u0031"}}`,
		`{"instance":"i1","proof":{"1":"2","\u0031":"0"}}`,
		`{"instance":"i1","proof":{"1":0}}`,
		`{"instance":"i1","proof":[]}`,
		`{"instance":"i1","proof":"01"}`,
		` { "instance" : "i1" , "proof" : { "1" : "01" , "2" : "1" } } ` + "\n",
		`{"instance":"i1"} {"instance":"i2"}`,
		`{"instance":"i1","proofs":[null]}`,
		`{"instance":"i1","proofs":[]}`,
		`{"instance":"i1","proofs":[{"1":"0"},null,{"2":"11"}]}`,
		`{"instance":"i1","proofs":[{"1":"0"}],"proofs":[{"2":"1"}]}`,
		`{"instance":"i1","proofs":[{"1":"3"}]}`,
		`{"instance":"i1","proof":{"1":"0"},"bogus":1}`,
	} {
		f.Add([]byte(body), false)
		f.Add([]byte(body), true)
	}
	// Bodies about the size bound, one under and one over it.
	for _, size := range []int{maxBodyBytes, maxBodyBytes + 1} {
		head := `{"instance":"i1","proof":{"1":"`
		pad := size - len(head) - len(`"}}`)
		f.Add([]byte(head+strings.Repeat("1", pad)+`"}}`), false)
	}

	in := fuzzInstance()
	f.Fuzz(func(t *testing.T, body []byte, batch bool) {
		endpoint := "/check"
		if batch {
			endpoint = "/check/batch"
		}
		maps, oerr := oracleDecode(body, endpoint)
		var want []core.Proof
		for i := 0; oerr == nil && i < len(maps); i++ {
			var p core.Proof
			p, oerr = oracleParseProof(in, maps[i])
			want = append(want, p)
		}
		got, msg, ok := decodeBody(in, body, endpoint)
		if ok != (oerr == nil) {
			t.Fatalf("%s %q: accepted=%v (%s), reference error %v", endpoint, body, ok, msg, oerr)
		}
		if !ok {
			return
		}
		if len(got) != len(want) {
			t.Fatalf("%s %q: %d proofs, reference %d", endpoint, body, len(got), len(want))
		}
		for i, p := range got {
			cand := candidates(maps[i])
			if len(p) != len(cand) {
				t.Fatalf("%s %q: proof %d has %d nodes, reference %d", endpoint, body, i, len(p), len(cand))
			}
			for id, s := range p {
				found := false
				for _, c := range cand[id] {
					found = found || c.Equal(s)
				}
				if !found {
					t.Fatalf("%s %q: proof %d node %d = %q, reference one of %v", endpoint, body, i, id, s.String(), cand[id])
				}
			}
		}
	})
}

// TestWireProofManyBadEntries pins the scan of a body of distinct
// entries, every other one bad, to linear time: each bad entry is kept
// under its key in a map, so every later entry looks for it in O(1).
// One MiB holds about 10^5 entries, where a quadratic scan would make
// some 10^9 key comparisons.
func TestWireProofManyBadEntries(t *testing.T) {
	var b strings.Builder
	b.WriteString(`{"instance":"i1","proof":{`)
	for id := 1; b.Len() < 1<<20; id++ {
		if id > 1 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `"%d":"%d"`, id, 2*(id%2))
	}
	b.WriteString(`}}`)
	start := time.Now()
	_, msg, ok := decodeBody(fuzzInstance(), []byte(b.String()), "/check")
	if ok {
		t.Fatal("a proof of bad bits was accepted")
	}
	if !strings.Contains(msg, "bad proof bit") && !strings.Contains(msg, "unknown node") {
		t.Fatalf("refusal %q names neither a bad bit nor an unknown node", msg)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("refusing %d bytes of bad entries took %v", b.Len(), took)
	}
}

// TestWireProofColonsBoundAlloc pins the memory a proof's scan asks for
// to the size of its body: a value made of colons must not size the
// entry slice by its colon count.
func TestWireProofColonsBoundAlloc(t *testing.T) {
	data := []byte(`{"1":"` + strings.Repeat(":", 1<<20) + `"}`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var wp wireProof
	if err := wp.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*len(data)); got > limit {
		t.Fatalf("scanning %d bytes allocated %d bytes, want at most %d", len(data), got, limit)
	}
}
