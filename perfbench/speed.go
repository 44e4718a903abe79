package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"
)

// The machine the benchmark shares changes speed under it: on the
// two-vCPU VM the bounds were set on, a fixed CPU loop took anywhere from
// 0.18 to 0.46 s over a few hours, and consecutive runs of one workload
// differed by up to a factor of two in every phase at once, the
// sequential core check included. A median over one run cannot remove a
// change that lasts minutes, so every end-to-end time is reported at a
// fixed reference speed instead. Between the stretches a phase measures,
// while the program is idle, it probes how fast a fixed piece of the
// benchmark's own work (refCheck) runs, and it scales its end-to-end
// times by refNominalMS over the mean of its probes (the
// sequential core check by the probes around each check, see
// scalePhase). The
// reference work runs no repository code and allocates nothing, so a
// change to the program moves the measured times and leaves the factor
// alone, while a change of the machine's speed moves both.
const (
	// refNodes is the size of the reference work's graph: one refCheck
	// takes about a third of a millisecond.
	refNodes = 64
	// refProbe is how long one probe runs the reference work, and
	// refWarm its first part, which is not counted: a thread that has
	// slept is briefly favoured by the scheduler, here and on the host,
	// so a short probe would see more of the machine than the program's
	// longer stretches of work get.
	refProbe = 60 * time.Millisecond
	refWarm  = 15 * time.Millisecond
	// refNominalMS is the time of one refCheck on the reference machine
	// (a two-vCPU Intel Xeon VM), the speed every time is reported at.
	refNominalMS = 0.36
)

// refGraph is the reference work's input: adjacency lists of a fixed
// random graph with a few hubs, as the power-law instances have.
var refGraph = sync.OnceValue(func() [][]int {
	rng := rand.New(rand.NewSource(1))
	adj := make([][]int, refNodes)
	for v := 1; v < refNodes; v++ {
		for k := range 3 {
			u := rng.Intn(v)
			if k > 0 && rng.Intn(2) == 0 {
				u = rng.Intn(min(v, 8))
			}
			adj[v] = append(adj[v], u)
			adj[u] = append(adj[u], v)
		}
	}
	return adj
})

// refSink keeps the reference work's results alive.
var refSink uint64

// refCheck is the reference work: a small radius-2 check of its own.
// For every node it gathers the ball into a map, sorts the ball's ids
// and hashes them with their distances formatted as text: maps, sorting
// and formatting, as the program's view building, verifying and JSON
// handling mix them. It allocates nothing, its scratch being the
// caller's: the time of work that allocates depends on how often the
// collector runs, hence on the size of the program's heap.
func refCheck(ball map[int]int, ids []int, buf []byte) uint64 {
	var h uint64
	for v, nbrs := range refGraph() {
		clear(ball)
		ball[v] = 0
		for _, u := range nbrs {
			ball[u] = 1
		}
		for _, u := range nbrs {
			for _, w := range refGraph()[u] {
				if _, ok := ball[w]; !ok {
					ball[w] = 2
				}
			}
		}
		ids = ids[:0]
		for id := range ball {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			buf = strconv.AppendInt(buf[:0], int64(ball[id]*id), 10)
			h = h*31 + uint64(id) + uint64(len(buf)) + uint64(buf[0])
		}
	}
	return h
}

// speedLog collects one phase's speed probes.
type speedLog struct {
	ms []float64 // each probe's time of one refCheck
}

// probe collects garbage, so that no collection of the program's heap
// overlaps the reference work, then runs refCheck for refProbe and
// records the time of one refCheck over the part after refWarm.
func (l *speedLog) probe() {
	runtime.GC()
	ball, ids, buf := make(map[int]int, refNodes), make([]int, 0, refNodes), make([]byte, 0, 32)
	start := time.Now()
	from, end := start.Add(refWarm), start.Add(refProbe)
	n := 0
	var h uint64
	for {
		h ^= refCheck(ball, ids, buf)
		now := time.Now()
		if now.After(end) {
			break
		}
		if now.After(from) {
			n++
		}
	}
	refSink ^= h
	l.ms = append(l.ms, float64(refProbe-refWarm)/float64(time.Millisecond)/float64(max(n, 1)))
}

// factor turns the phase's measured times into times at the reference
// speed: refNominalMS over the mean probe. A probe lasts 45 ms, and the
// machine's speed changes from one probe to the next; the program's
// stretches of work, seconds long, pay the average. Over four ten-run
// sets the mean left the lowest spreads of the estimators tried (the
// median, interquartile mean, upper quartile and 90th percentile).
func (l *speedLog) factor() float64 {
	sum := 0.0
	for _, ms := range l.ms {
		sum += ms
	}
	return refNominalMS * float64(len(l.ms)) / sum
}

// log prints the phase's factor and its probes.
func (l *speedLog) log(phase string) {
	fmt.Fprintf(os.Stderr, "  %-26s speed factor %.4f from %d probes, ms per reference check: %.3f\n",
		phase, l.factor(), len(l.ms), l.ms)
}

// putAt puts an end-to-end time or rate measured in the phase of sp at
// the reference speed, and prints the value as measured.
func (r *run) putAt(sp *speedLog, name, unit string, v float64) {
	fmt.Fprintf(os.Stderr, "  measured %-27s %14.4f %s\n", name, v, unit)
	f := sp.factor()
	if unit == "1/s" {
		f = 1 / f
	}
	r.put(name, unit, v*f)
}
