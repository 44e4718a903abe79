package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"

	"lcp"
	"lcp/internal/config"
	"lcp/internal/core"
	"lcp/internal/engine"
	"lcp/internal/serve"
)

// layers measures the serve phase's layers by calling each from
// outside: the HTTP handler without a network, the checker façade, the
// engine, the flat proof table and the verifier.
func (s *serveRun) layers() error {
	ctx := context.Background()
	p := newProbe(s.tr, "probe.serve")
	defer p.end()
	n := s.in.G.N()
	srv := serve.New(lcp.BuiltinSchemes(), config.Config{})
	call := func(method, path string, body []byte, out any) error {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if rec.Code/100 != 2 {
			return fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		if out == nil {
			return nil
		}
		return json.Unmarshal(rec.Body.Bytes(), out)
	}

	var ids []string
	register, err := p.times("serve.Server.ServeHTTP.register", 5, func(int) error {
		var info struct {
			ID string `json:"id"`
		}
		err := call(http.MethodPost, "/instances", s.doc, &info)
		ids = append(ids, info.ID)
		return err
	})
	if err != nil {
		return err
	}
	for _, id := range ids[:len(ids)-1] {
		if err := call(http.MethodDelete, "/instances/"+id, nil, nil); err != nil {
			return err
		}
	}
	checks, batches := s.bodies(ids[len(ids)-1])
	if err := call(http.MethodPost, "/check", checks[0], nil); err != nil { // builds the views
		return err
	}
	handlerCheck, err := p.times("serve.Server.ServeHTTP.check", 200, func(i int) error {
		c := i % len(s.cases)
		var got verdictJSON
		err := call(http.MethodPost, "/check", checks[c], &got)
		if err == nil {
			err = s.cases[c].verify(got.Accepted, got.Rejectors)
		}
		s.tally.record(err)
		return err
	})
	if err != nil {
		return err
	}
	handlerBatch, err := p.times("serve.Server.ServeHTTP.batch", 20, func(i int) error {
		b := i % len(batches)
		var resp struct {
			Results []verdictJSON `json:"results"`
		}
		err := call(http.MethodPost, "/check/batch", batches[b], &resp)
		if err == nil {
			err = s.verifyBatch(b, resp.Results)
		}
		s.tally.record(err)
		return err
	})
	if err != nil {
		return err
	}
	chk, err := lcp.NewChecker(s.in, lcp.WithBackend(lcp.BackendEngine), lcp.WithScheme(s.fam.scheme))
	if err != nil {
		return err
	}
	if _, err := chk.Check(ctx, s.cases[0].proof); err != nil { // builds the views
		return err
	}
	checkerCheck, err := p.times("lcp.Checker.Check", 200, func(i int) error {
		c := i % len(s.cases)
		rep, err := chk.Check(ctx, s.cases[c].proof)
		err = s.cases[c].verifyReport(rep, err, n)
		s.tally.record(err)
		return err
	})
	if err != nil {
		return err
	}
	checkerBatch, err := p.times("lcp.Checker.CheckBatch", 20, func(i int) error {
		b := i % len(s.batches)
		reps, err := chk.CheckBatch(ctx, s.batchProofs(b))
		for j := 0; err == nil && j < len(reps); j++ {
			err = s.cases[s.batches[b][j]].verifyReport(reps[j], nil, n)
		}
		s.tally.record(err)
		return err
	})
	if err != nil {
		return err
	}
	network, err := p.times("http.Client.Do.check", 200, func(i int) error {
		c := i % len(s.cases)
		err := s.check(s.checkBodies[c], c, p.trace)
		s.tally.record(err)
		return err
	})
	if err != nil {
		return err
	}
	s.put("serve.handler_ms.check", "ms", median(handlerCheck))
	s.put("serve.self_ms.check", "ms", median(handlerCheck)-median(checkerCheck))
	s.put("serve.self_ms.batch", "ms", median(handlerBatch)-median(checkerBatch))
	s.put("serve.net_ms.check", "ms", median(network)-median(handlerCheck))
	s.put("serve.register_ms", "ms", median(register))
	s.put("serve.body_kb.check", "KB", meanLen(checks)/1024)
	s.put("serve.body_kb.batch", "KB", meanLen(batches)/1024)
	s.put("checker.check_ms", "ms", median(checkerCheck))
	s.put("checker.batch_ms", "ms", median(checkerBatch))
	return s.engineLayers(p)
}

// engineLayers times the engine and the flat proof table directly on
// the serve instance, with the verifier wrapped for sampled timing.
func (s *serveRun) engineLayers(p *probe) error {
	ctx := context.Background()
	n := s.in.G.N()
	v := s.fam.scheme.Verifier()
	fp := core.NewFlatProof(s.in.G)
	flat, err := p.times("core.FlatProof.Load", 200, func(i int) error {
		fp.Load(s.cases[i%len(s.cases)].proof)
		return nil
	})
	if err != nil {
		return err
	}
	check := func(eng *engine.Engine, c int, v core.Verifier) error {
		res, err := eng.CheckProofCtx(ctx, s.cases[c].proof, v)
		if err == nil {
			err = s.cases[c].verifyResult(res, n)
		}
		s.tally.record(err)
		return err
	}
	batch := func(results []*core.Result, err error) error {
		if err == nil && len(results) != len(s.batches[0]) {
			err = fmt.Errorf("%w: %d batch results, want %d", errWrongVerdict, len(results), len(s.batches[0]))
		}
		for j := 0; err == nil && j < len(results); j++ {
			err = s.cases[s.batches[0][j]].verifyResult(results[j], n)
		}
		s.tally.record(err)
		return err
	}
	eng := engine.New(s.in, engine.Options{})
	if err := check(eng, 0, v); err != nil { // builds the views
		return err
	}
	sv := &sampledVerifier{Verifier: v}
	warm, err := p.times("engine.Engine.CheckProofCtx", 100, func(i int) error { return check(eng, i%len(s.cases), sv) })
	if err != nil {
		return err
	}
	proofs := s.batchProofs(0)
	columns, err := p.times("engine.Engine.CheckBatchColumnsCtx", 20, func(int) error {
		return batch(eng.CheckBatchColumnsCtx(ctx, proofs, v))
	})
	if err != nil {
		return err
	}
	loop, err := p.times("engine.Engine.CheckBatchCtx", 20, func(int) error {
		return batch(eng.CheckBatchCtx(ctx, proofs, v))
	})
	if err != nil {
		return err
	}
	cold, err := p.times("engine.Engine.CheckProofCtx.cold", 10, func(int) error {
		return check(engine.New(s.in, engine.Options{}), 0, v)
	})
	if err != nil {
		return err
	}
	s.put("core.flat_load_us", "us", median(flat)*1e3)
	s.put("engine.warm_check_ms", "ms", median(warm))
	s.put("engine.columns_ms_per_proof", "ms", median(columns)/float64(len(proofs)))
	s.put("engine.loop_ms_per_proof", "ms", median(loop)/float64(len(proofs)))
	s.put("engine.cold_check_ms", "ms", median(cold))
	s.put("schemes.verify_ns", "ns", sv.nsPerCall())
	return nil
}

func meanLen(bodies [][]byte) float64 {
	total := 0
	for _, b := range bodies {
		total += len(b)
	}
	return float64(total) / float64(len(bodies))
}
