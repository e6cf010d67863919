// Command objectrunnerd is the ObjectRunner extraction daemon: a
// long-running HTTP service that registers structured-Web sources
// (POST /v1/wrap with an SOD, dictionaries and sample pages), serves
// batch extraction against cached wrappers (POST /v1/extract), and
// exposes cache introspection (/v1/sources), readiness (/healthz) and
// metrics (/metrics). See internal/httpserver for the endpoint
// contract.
//
// Usage:
//
//	objectrunnerd -addr :8080 -max-inflight 32 -request-timeout 2m \
//	    -wrapper-cache-dir /var/cache/objectrunner [-trace trace.jsonl]
//
// On SIGINT/SIGTERM the daemon drains gracefully: it stops accepting
// requests, cancels in-flight wraps and extracts through their
// contexts, waits for handlers to return (bounded by -drain-timeout),
// and spills the wrapper caches to -wrapper-cache-dir so the next
// process starts warm.
//
// Multi-node mode: start each daemon with -node-id and the full -peers
// roster (id=url pairs, the daemon's own id without a url) and point
// them at a shared -wrapper-cache-dir. A consistent-hash ring assigns
// every source key an owner; requests landing on the wrong node are
// transparently forwarded, and when the owner is down its sources are
// served from the shared spill:
//
//	objectrunnerd -addr :8080 -node-id n1 \
//	    -peers 'n1,n2=http://10.0.0.2:8080' -wrapper-cache-dir /shared
//	objectrunnerd -addr :8080 -node-id n2 \
//	    -peers 'n1=http://10.0.0.1:8080,n2' -wrapper-cache-dir /shared
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"objectrunner"
	"objectrunner/internal/cluster"
	"objectrunner/internal/httpserver"
	"objectrunner/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "objectrunnerd:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address (host:port; port 0 picks an ephemeral port)")
	maxInflight := flag.Int("max-inflight", 32, "concurrent wrap/extract requests before answering 429")
	requestTimeout := flag.Duration("request-timeout", 2*time.Minute, "per-request deadline for inference and extraction (0 = no limit)")
	maxBody := flag.Int64("max-body", 32<<20, "request body size limit in bytes")
	cacheDir := flag.String("wrapper-cache-dir", "", "spill directory for wrapper persistence across restarts")
	cacheCap := flag.Int("cache-capacity", 64, "wrappers held in memory per source registry entry")
	cacheTTL := flag.Duration("cache-ttl", 0, "wrapper expiry (0 = no expiry)")
	healthThreshold := flag.Float64("health-threshold", 0, "empty-serve rate above which a wrapper is re-inferred (0 disables)")
	workers := flag.Int("workers", 0, "worker goroutines per extract request (0 = one per CPU); wraps infer on one goroutine")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "bound on waiting for in-flight handlers and the cache spill at shutdown")
	flightTraces := flag.Int("flight-traces", 64, "request traces kept by the flight recorder (N most recent + N slowest, GET /v1/debug/traces)")
	enablePprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (opt-in: exposes process internals)")
	nodeID := flag.String("node-id", "", "this daemon's id in a multi-node cluster (labels its metrics; required with -peers)")
	peers := flag.String("peers", "", "full cluster roster as id=url pairs, comma-separated, own id without url (e.g. 'n1,n2=http://10.0.0.2:8080'); enables ring-based forwarding")
	obsCLI := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	observer, obsCleanup, err := obsCLI.Start()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := obsCleanup(); cerr != nil {
			fmt.Fprintln(os.Stderr, "objectrunnerd: observability cleanup:", cerr)
		}
	}()
	if observer == nil {
		// No sink requested: still aggregate counters and histograms so
		// /metrics has substance.
		observer = obs.New()
	}
	if *nodeID != "" {
		// Every metric series this process emits carries its node id, so
		// a shared scrape of the cluster stays attributable.
		observer.SetBaseLabels(obs.L("node", *nodeID))
	}

	var cl *cluster.Cluster
	if *peers != "" {
		if *nodeID == "" {
			return fmt.Errorf("-peers requires -node-id")
		}
		nodes, err := cluster.ParseNodes(*peers)
		if err != nil {
			return fmt.Errorf("bad -peers: %w", err)
		}
		cl, err = cluster.New(*nodeID, nodes, 0)
		if err != nil {
			return fmt.Errorf("bad cluster config: %w", err)
		}
		if *cacheDir == "" {
			fmt.Fprintln(os.Stderr, "objectrunnerd: warning: multi-node mode without -wrapper-cache-dir; peers cannot serve from a shared spill when this node is down")
		}
	}

	srv := httpserver.New(httpserver.Config{
		MaxInflight:    *maxInflight,
		RequestTimeout: *requestTimeout,
		MaxBodyBytes:   *maxBody,
		Workers:        *workers,
		Store: objectrunner.StoreConfig{
			Capacity:        *cacheCap,
			TTL:             *cacheTTL,
			HealthThreshold: *healthThreshold,
			SpillDir:        *cacheDir,
		},
		Obs:                observer,
		FlightRecorderSize: *flightTraces,
		EnablePprof:        *enablePprof,
		Cluster:            cl,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	// The resolved address line is part of the daemon's contract: with
	// port 0 it is how callers (and the e2e tests) learn the port.
	fmt.Fprintf(os.Stderr, "objectrunnerd: listening on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately

	fmt.Fprintln(os.Stderr, "objectrunnerd: draining")
	sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Drain: refuse new work and flip /healthz to 503. Abort: cancel
	// in-flight wraps/extracts through their contexts, so handlers
	// answer promptly and Shutdown below returns fast.
	srv.Drain()
	srv.Abort()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "objectrunnerd: forced close:", err)
		hs.Close()
	}
	// Spill the wrapper caches so the next process starts warm.
	if err := srv.Close(sctx); err != nil {
		return fmt.Errorf("cache spill: %w", err)
	}
	fmt.Fprintln(os.Stderr, "objectrunnerd: drained, wrapper cache spilled")
	return nil
}
