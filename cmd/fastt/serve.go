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

	"fastt/internal/core"
	"fastt/internal/serve"
)

// runServe implements the `fastt serve` subcommand: a long-running
// strategy-as-a-service daemon. POST /v1/compute answers placement
// questions from a sharded artifact cache keyed by the provenance triple
// (graph fingerprint × cluster shape × cost hash), coalescing concurrent
// identical misses onto one OS-DPOS search; GET /v1/stats exposes the
// counters; GET /healthz reports liveness. SIGINT/SIGTERM drain and exit.
func runServe(argv []string) error {
	fs := flag.NewFlagSet("fastt serve", flag.ExitOnError)
	var (
		addr        = fs.String("addr", ":8080", "listen address (host:port; port 0 picks an ephemeral port)")
		workers     = fs.Int("workers", 1, "worker goroutines per strategy search")
		cacheMB     = fs.Int64("cache-mb", 256, "artifact cache budget in MiB")
		shards      = fs.Int("shards", 16, "cache shard count")
		maxSearches = fs.Int("max-searches", 0, "max concurrently running searches (0 = CPUs/workers)")
		maxQueue    = fs.Int("max-queue", 64, "max searches queued for admission before 429")
		searchTmo   = fs.Duration("search-timeout", 60*time.Second, "per-search wall-time cap")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	svc := serve.New(serve.Config{
		CacheBytes:    *cacheMB << 20,
		Shards:        *shards,
		Sched:         core.Options{MaxSplitOps: 8, MaxSyncGroups: 8, Workers: *workers},
		MaxSearches:   *maxSearches,
		MaxQueue:      *maxQueue,
		SearchTimeout: *searchTmo,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *addr, err)
	}
	// The exact line scripts/check.sh greps for to discover an ephemeral
	// port; keep the format stable.
	fmt.Printf("fastt serve: listening on %s\n", ln.Addr())

	srv := &http.Server{Handler: svc.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Println("fastt serve: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	<-errCh // Serve returns http.ErrServerClosed once Shutdown begins
	return nil
}
