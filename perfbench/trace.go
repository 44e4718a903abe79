package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"lcp/internal/core"
	"lcp/internal/obs"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the call. Spans of one operation share Trace;
// Parent is the id of the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is how untraced loops stay untraced.
type tracer struct {
	base  time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// start opens a span and returns its id and the function closing it.
func (t *tracer) start(trace string, parent int64, name string) (int64, func()) {
	if t == nil {
		return 0, func() {}
	}
	id := t.next.Add(1)
	start := time.Since(t.base)
	return id, func() {
		end := time.Since(t.base)
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: int64(start), End: int64(end)})
		t.mu.Unlock()
	}
}

// write saves every span as one JSON array.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// probe groups the spans of one layer measurement under a root span
// and one trace id.
type probe struct {
	tr    *tracer
	trace string
	root  int64
	end   func()
}

func newProbe(tr *tracer, name string) *probe {
	p := &probe{tr: tr, trace: obs.NewTraceID()}
	p.root, p.end = tr.start(p.trace, 0, name)
	return p
}

// once times fn in a span and returns its duration in milliseconds.
func (p *probe) once(name string, fn func()) float64 {
	_, end := p.tr.start(p.trace, p.root, name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	end()
	return float64(d) / float64(time.Millisecond)
}

// times runs fn reps times, each call in its own span, and returns the
// durations in milliseconds. The first error stops the probe.
func (p *probe) times(name string, reps int, fn func(i int) error) ([]float64, error) {
	out := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		var err error
		out = append(out, p.once(name, func() { err = fn(i) }))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	return out, nil
}

// sampledVerifier times every 64th Verify call, so the loop it sits in
// runs unaltered 63 times in 64.
type sampledVerifier struct {
	core.Verifier
	calls, sampled, nanos atomic.Int64
}

func (s *sampledVerifier) Verify(w *core.View) bool {
	if s.calls.Add(1)%64 != 0 {
		return s.Verifier.Verify(w)
	}
	t0 := time.Now()
	ok := s.Verifier.Verify(w)
	s.nanos.Add(int64(time.Since(t0)))
	s.sampled.Add(1)
	return ok
}

// nsPerCall scales the timed sample up to the cost of one call.
func (s *sampledVerifier) nsPerCall() float64 {
	return float64(s.nanos.Load()) / float64(s.sampled.Load())
}
