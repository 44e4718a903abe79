// Command lcpworker is one shard of a multi-process verification
// fleet: a long-lived process that owns a contiguous-or-otherwise
// slice of an instance and floods it over TCP with its peer workers,
// directed by a dist-tcp coordinator (an lcp.Checker with
// WithBackend("dist-tcp"), or lcpserve started with -worker-addrs).
//
//	# three terminals — two workers and a server fanning out to them
//	lcpworker -addr 127.0.0.1:9101
//	lcpworker -addr 127.0.0.1:9102
//	lcpserve -addr :8080 -worker-addrs 127.0.0.1:9101,127.0.0.1:9102
//
// A coordinator registers an instance (shipping this worker the
// round-0 records of the nodes it decides and having it connect one
// data connection to each peer shard), fires any number of checks at it over those
// connections, and closes its control connection; the registration
// lives exactly as long as that connection, so a coordinator that dies
// leaves nothing behind. Several coordinators can hold disjoint
// instances on one worker at once. Any failure — a killed worker, a
// cancelled check — ends the registration on the whole fleet within
// one round timeout, and the survivors accept fresh registrations
// immediately: failure is bounded, not sticky.
//
// The scheme registry served is the full built-in set plus the
// experiment catalog's derived schemes, matching what coordinators can
// name. On start the worker prints one line to stdout:
//
//	lcpworker listening on HOST:PORT
//
// with the resolved address (so -addr 127.0.0.1:0 picks a free port a
// supervisor can scrape). SIGINT/SIGTERM shut it down cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"lcp"
	"lcp/internal/core"
	"lcp/internal/remote"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "listen address for coordinator and peer-worker connections (port 0 picks a free port, printed on stdout)")
	flag.Parse()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("lcpworker: listen %s: %v", *addr, err)
	}
	w := remote.NewWorker(ln, workerSchemes())
	fmt.Printf("lcpworker listening on %s\n", w.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := w.Serve(ctx); err != nil && ctx.Err() == nil {
		log.Fatalf("lcpworker: %v", err)
	}
}

// workerSchemes is the registry the worker resolves coordinator
// register requests against: every built-in scheme plus the catalog's
// derived extras (some experiment rows use schemes outside the named
// registry), keyed by Name().
func workerSchemes() map[string]core.Scheme {
	schemes := lcp.BuiltinSchemes()
	for _, exp := range lcp.Catalog() {
		schemes[exp.Scheme.Name()] = exp.Scheme
	}
	return schemes
}
