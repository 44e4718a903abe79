package dist

import "lcp/internal/obs"

// The runtime's observable quantities are exactly the ones the paper's
// model prices: communication rounds and messages exchanged. Both are
// counted analytically at run granularity — the wiring fixes how many
// deliveries one synchronous round performs (every cut-edge link
// carries exactly one batch per round, every same-shard link merges
// exactly once per round), so a completed run contributes links×rounds
// without the round loop ever touching a counter. Aborted runs
// increment only their own counter: how many rounds each shard
// completed before the cancellation landed is not observable from
// outside the round loop, so their rounds and deliveries go
// uncounted.
var (
	distRuns        = obs.Default().Counter("lcp_dist_runs_total", "Completed distributed verification runs.")
	distRunsAborted = obs.Default().Counter("lcp_dist_runs_aborted_total", "Distributed runs aborted by context cancellation.")
	distRounds      = obs.Default().Counter("lcp_dist_rounds_total", "Communication rounds executed by completed runs.")
	distWirings     = obs.Default().Counter("lcp_dist_wirings_total", "Shard sets wired by dist networks: one per network, plus one per concurrent check that found every wiring busy; a failed check's wiring is dropped, not pooled, so a later check may wire a fresh one.")
	distCrossShard  = obs.Default().Counter("lcp_dist_deliveries_total", "Message deliveries by completed runs, split by link kind: cross-shard crosses a cut edge through the shard transport, same-shard is a direct merge between automata of one shard. With one shard per node every link is cross-shard.", obs.Label{Name: "link", Value: "cross-shard"})
	distSameShard   = obs.Default().Counter("lcp_dist_deliveries_total", "Message deliveries by completed runs, split by link kind: cross-shard crosses a cut edge through the shard transport, same-shard is a direct merge between automata of one shard. With one shard per node every link is cross-shard.", obs.Label{Name: "link", Value: "same-shard"})
)

// MetricsSnapshot is a point-in-time read of the runtime's counters,
// for tests and tools that want deltas around a run.
type MetricsSnapshot struct {
	Runs                 float64
	RunsAborted          float64
	Rounds               float64
	Wirings              float64
	CrossShardDeliveries float64
	SameShardDeliveries  float64
}

// Metrics reads the current counter values.
func Metrics() MetricsSnapshot {
	return MetricsSnapshot{
		Runs:                 distRuns.Value(),
		RunsAborted:          distRunsAborted.Value(),
		Rounds:               distRounds.Value(),
		Wirings:              distWirings.Value(),
		CrossShardDeliveries: distCrossShard.Value(),
		SameShardDeliveries:  distSameShard.Value(),
	}
}

// countRun records one finished run's contribution to the counters.
func countRun(w *wiring, rounds int, aborted bool) {
	if aborted {
		distRunsAborted.Inc()
		return
	}
	distRuns.Inc()
	distRounds.Add(float64(rounds))
	distCrossShard.Add(float64(w.cross * rounds))
	distSameShard.Add(float64(w.local * rounds))
}
