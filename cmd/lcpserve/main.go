// Command lcpserve is the long-lived locally-checkable-proof
// verification daemon: an HTTP/JSON front end over the unified checker
// façade. Register an instance once, then fire as many proofs at it as
// you like — the radius-r views are built on the first check and shared
// by every later one.
//
//	lcpserve -addr :8080
//
//	# register an instance (textio format, see internal/textio)
//	curl -s localhost:8080/instances --data-binary @instance.lcp
//	# -> {"id":"i1","nodes":16,"edges":16,"scheme":"bipartite",...}
//
//	# verify a proof against it
//	curl -s localhost:8080/check -d '{"instance":"i1","proof":{"1":"0","2":"1"}}'
//
//	# stream verdicts, stopping at the first alarm
//	curl -sN localhost:8080/check/stream -d '{"instance":"i1","proof":{},"stop_on_reject":true}'
//
//	# distributed check with a locality-aware shard partition
//	curl -s localhost:8080/check -d '{"instance":"i1","proof":{},"backend":"dist","partitioner":"bfs"}'
//
//	# request counters, latency sums and fixed-bound latency histograms
//	curl -s localhost:8080/stats
//
//	# the same counters plus engine/dist/checker metrics, Prometheus text
//	curl -s localhost:8080/metrics
//
// Every verification knob is one flag per key of the shared
// internal/config resolver — the same keys HTTP requests accept as
// JSON options — so the command line cannot drift from the wire
// protocol: -backend picks the default execution path (core, dist,
// engine, dist-tcp), -workers / -shards / -partitioner tune it. Server-level knobs stay their
// own flags: -addr, -max-instances (LRU instance-store bound) and
// -log-requests (one structured log line per request, carrying the
// request's trace ID so log lines join with X-Trace-Id headers).
// See the package comment of internal/serve for the full endpoint
// list and examples/proofservice for an end-to-end driver.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lcp"
	"lcp/internal/config"
	"lcp/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	maxInstances := flag.Int("max-instances", 0, "bound the in-memory instance store; the least recently used instance is evicted past the bound (0 = unbounded)")
	logRequests := flag.Bool("log-requests", false, "log one structured line per request (trace ID, route, backend, verdict, status, latency) to stderr")
	// The verification flags are generated from the config key table:
	// one flag per resolver key, all funneling through config.Set.
	var base config.Config
	config.Flags(flag.CommandLine, &base)
	flag.Parse()

	handler := serve.NewWith(lcp.BuiltinSchemes(), base, serve.Config{
		MaxInstances: *maxInstances,
		LogRequests:  *logRequests,
	})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "lcpserve: listening on %s\n", *addr)

	select {
	case err := <-errc:
		log.Fatalf("lcpserve: %v", err)
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Fatalf("lcpserve: shutdown: %v", err)
		}
	}
}
