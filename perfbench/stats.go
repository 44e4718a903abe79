package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"time"
)

// tailLevels are the percentiles a latency tail may be reported at,
// highest first.
var tailLevels = []float64{0.999, 0.99, 0.95, 0.90, 0.75, 0.50}

// beyond is how many of n samples lie strictly above the nearest-rank
// q-percentile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tailLevel is the highest percentile with at least ten samples beyond
// it: the highest one a sample of n can report without resting on a
// handful of outliers. ok is false when not even the median qualifies.
func tailLevel(n int) (q float64, ok bool) {
	for _, q := range tailLevels {
		if beyond(n, q) >= 10 {
			return q, true
		}
	}
	return 0, false
}

// percentile is the nearest-rank q-percentile of ascending samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle of xs, or the mean of the two middles.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(xs, n=4) does with its default "exclusive"
// method, so a spread computed here matches one computed there. It
// needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n, m := len(s), len(s)+1
	at := func(i int) float64 {
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// logLatency prints one operation's sample count and the tail that
// count supports, so a reader can tell a measured tail from a thin one.
// sorted holds the latencies in milliseconds, ascending.
func logLatency(name string, sorted []float64) {
	tail := "no percentile has 10 samples beyond it"
	if q, ok := tailLevel(len(sorted)); ok {
		tail = fmt.Sprintf("p%g = %.3f ms is the highest percentile with >= 10 samples beyond it", q*100, percentile(sorted, q))
	}
	fmt.Fprintf(os.Stderr, "  %-26s n=%-6d p50=%.3f ms  p99=%.3f ms; %s\n",
		name, len(sorted), percentile(sorted, 0.5), percentile(sorted, 0.99), tail)
}

// closedLoop runs one client for the window: it sends its next
// operation when the previous one has answered, drawing from a stream
// seeded from seed; op returns the operation's latency in milliseconds
// and whether to keep it as a sample. One client, because on a machine
// of two shared cores two clients of a service that uses both cores
// sometimes overlap and sometimes alternate, and the latencies flip
// between the two modes from run to run. closedLoop returns the kept
// samples, ascending, and the wall time in seconds, then probes the
// machine's speed into sp.
func closedLoop(sp *speedLog, seed int64, window time.Duration, op func(rng *rand.Rand) (ms float64, keep bool)) ([]float64, float64) {
	rng := rand.New(rand.NewSource(seed))
	var lat []float64
	start := time.Now()
	for time.Since(start) < window {
		if ms, keep := op(rng); keep {
			lat = append(lat, ms)
		}
	}
	secs := time.Since(start).Seconds()
	sp.probe()
	sort.Float64s(lat)
	return lat, secs
}
