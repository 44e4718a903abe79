package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sync/atomic"

	"lcp"
	"lcp/internal/core"
)

// errWrongVerdict marks a verdict that differs from core.Check's.
var errWrongVerdict = errors.New("wrong verdict")

// proofCase is one proof a workload sends, with the verdict the
// sequential reference gives it: the exact set of rejecting nodes. The
// zero value is an honest proof's expectation: every node accepts.
type proofCase struct {
	proof     core.Proof
	rejectors []int // ascending; empty when every node accepts
}

// oracle builds an instance's cases: the honest proof first, then
// tampered copies with one bit flipped each. Every expected verdict
// comes from core.Check, run here, outside any timing.
func oracle(in *core.Instance, v core.Verifier, honest core.Proof, tampered int, rng *rand.Rand) ([]proofCase, error) {
	cases := make([]proofCase, 0, 1+tampered)
	for i := 0; i <= tampered; i++ {
		p := honest
		if i > 0 {
			p = core.FlipBit(honest, rng.Int63())
		}
		c := proofCase{proof: p, rejectors: core.Check(in, p, v).Rejectors()}
		if i == 0 && len(c.rejectors) > 0 {
			return nil, fmt.Errorf("honest proof rejected by %d nodes", len(c.rejectors))
		}
		cases = append(cases, c)
	}
	return cases, nil
}

// verify compares a verdict of the system under test with the oracle's.
func (c proofCase) verify(accepted bool, rejectors []int) error {
	if accepted != (len(c.rejectors) == 0) || !slices.Equal(rejectors, c.rejectors) {
		return fmt.Errorf("%w: accepted=%v with %d rejectors, core.Check has %d",
			errWrongVerdict, accepted, len(rejectors), len(c.rejectors))
	}
	return nil
}

// verifyResult also checks that all n nodes decided.
func (c proofCase) verifyResult(res *core.Result, n int) error {
	if len(res.Outputs) != n {
		return fmt.Errorf("%w: %d nodes decided, want %d", errWrongVerdict, len(res.Outputs), n)
	}
	return c.verify(res.Accepted(), res.Rejectors())
}

// verifyReport checks a façade check's outcome.
func (c proofCase) verifyReport(rep *lcp.Report, err error, n int) error {
	if err != nil {
		return err
	}
	return c.verifyResult(rep.Result(), n)
}

// pick draws a case: the honest proof half of the time, otherwise one
// of the tampered ones. The even split is an assumption, not taken from
// any traffic: it gives the accepting and the rejecting verdict paths
// equal weight, and the serve summary prints each one's latency.
func pick(rng *rand.Rand, cases []proofCase) int {
	if len(cases) == 1 || rng.Intn(2) == 0 {
		return 0
	}
	return 1 + rng.Intn(len(cases)-1)
}

// tally counts a run's operations and their failures.
type tally struct {
	attempted, failed, wrong atomic.Int64
}

// record counts one operation. A non-nil err is a failure; a wrong
// verdict also makes the run incorrect.
func (t *tally) record(err error) {
	t.attempted.Add(1)
	if err == nil {
		return
	}
	if t.failed.Add(1) <= 5 {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", err)
	}
	if errors.Is(err, errWrongVerdict) {
		t.wrong.Add(1)
	}
}
