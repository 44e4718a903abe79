package serve_test

// The handler's own cost: ServeHTTP through httptest, no network, on
// the instances the benchmark's serve phase uses — a scrambled
// Grid(64,64) under the bipartite scheme (one-bit proofs) and
// PowerLaw(4096) under leader election (13-bit proofs) — for one
// /check and for a /check/batch of k = 16 proofs.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"lcp"
	"lcp/internal/config"
	"lcp/internal/core"
	"lcp/internal/graph"
	"lcp/internal/serve"
)

const handlerBatchK = 16

// handlerCase is a server with one registered instance and the bodies
// of a /check and a /check/batch addressed to it.
type handlerCase struct {
	srv       *serve.Server
	nodes     int
	checkBody []byte
	batchBody []byte
}

func newHandlerCase(tb testing.TB, in *core.Instance, scheme core.Scheme) *handlerCase {
	tb.Helper()
	honest, err := scheme.Prove(in)
	if err != nil {
		tb.Fatal(err)
	}
	srv := serve.New(lcp.BuiltinSchemes(), config.Config{})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/instances",
		bytes.NewReader([]byte(docText(tb, in, scheme.Name(), nil)))))
	if rec.Code != http.StatusCreated {
		tb.Fatalf("register: status %d: %s", rec.Code, rec.Body)
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		tb.Fatal(err)
	}
	proofs := make([]map[string]string, handlerBatchK)
	for i := range proofs {
		p := honest
		if i > 0 {
			p = core.FlipBit(honest, int64(i))
		}
		proofs[i] = proofWire(p)
	}
	hc := &handlerCase{srv: srv, nodes: in.G.N()}
	hc.checkBody, err = json.Marshal(map[string]any{"instance": info.ID, "proof": proofs[0]})
	if err != nil {
		tb.Fatal(err)
	}
	hc.batchBody, err = json.Marshal(map[string]any{"instance": info.ID, "proofs": proofs})
	if err != nil {
		tb.Fatal(err)
	}
	return hc
}

// serve sends one request and fails on any status but 200.
func (hc *handlerCase) serve(tb testing.TB, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	hc.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
	}
	return rec
}

func gridCase(tb testing.TB) *handlerCase {
	in := lcp.NewInstance(graph.RandomPermutationIDs(lcp.Grid(64, 64), 1))
	return newHandlerCase(tb, in, lcp.BipartiteScheme())
}

func powerLawCase(tb testing.TB) *handlerCase {
	in := lcp.NewInstance(lcp.PowerLaw(4096, 4, 1)).SetNodeLabel(4000, lcp.LabelLeader)
	return newHandlerCase(tb, in, lcp.LeaderElectionScheme())
}

func BenchmarkServeHandler(b *testing.B) {
	for _, w := range []struct {
		name string
		mk   func(testing.TB) *handlerCase
	}{{"grid", gridCase}, {"powerlaw", powerLawCase}} {
		hc := w.mk(b)
		for _, op := range []struct {
			name, path string
			body       []byte
			proofs     int
		}{
			{"check", "/check", hc.checkBody, 1},
			{"batch", "/check/batch", hc.batchBody, handlerBatchK},
		} {
			b.Run(fmt.Sprintf("%s/%s", w.name, op.name), func(b *testing.B) {
				hc.serve(b, op.path, op.body) // warm the instance's views
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					hc.serve(b, op.path, op.body)
				}
				b.ReportMetric(float64(b.N*op.proofs)/b.Elapsed().Seconds(), "proofs/s")
			})
		}
	}
}

// TestServeCheckAllocs pins the decode's allocations: a warm /check of
// the scrambled grid makes at most 0.1 allocations per node, and a
// k = 16 batch at most 0.1 per node per proof — one slab and one
// core.Proof per proof, not a string and a buffer per node.
func TestServeCheckAllocs(t *testing.T) {
	hc := gridCase(t)
	for _, op := range []struct {
		path   string
		body   []byte
		proofs int
	}{
		{"/check", hc.checkBody, 1},
		{"/check/batch", hc.batchBody, handlerBatchK},
	} {
		hc.serve(t, op.path, op.body)
		allocs := testing.AllocsPerRun(5, func() { hc.serve(t, op.path, op.body) })
		perNode := allocs / float64(hc.nodes*op.proofs)
		t.Logf("%s: %.0f allocations, %.4f per node per proof", op.path, allocs, perNode)
		if perNode > 0.1 {
			t.Errorf("%s: %.0f allocations, %.3f per node per proof, want at most 0.1", op.path, allocs, perNode)
		}
	}
}
