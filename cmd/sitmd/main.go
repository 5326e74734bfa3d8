// Command sitmd serves a trajectory store over HTTP — the sitm engine as
// a long-running daemon rather than a batch CLI:
//
//	sitmd -store dir              serve dir (created if missing) on :8088
//	sitmd -store dir -read-only   serve an existing dir as a query replica
//	sitmd loadgen -url http://...  drive a running daemon with mixed load
//	                               and report accepted/shed/latency
//
// Endpoints: POST /v1/query (JSON query AST), POST /v1/ingest (detections
// CSV), GET /v1/stats, GET /healthz. SIGINT/SIGTERM triggers a graceful
// drain: stop admitting (503 draining), finish in-flight requests under
// -drain-timeout, then Sync + Checkpoint + Close the store so a restart
// replays nothing and no acknowledged write is lost.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sitm/internal/retry"
	"sitm/internal/server"
	"sitm/internal/store"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sitmd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	if len(args) > 0 && args[0] == "loadgen" {
		return runLoadgen(ctx, args[1:], out)
	}
	return runServe(ctx, args, out)
}

func runServe(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sitmd", flag.ExitOnError)
	dir := fs.String("store", "", "durable store directory (required)")
	addr := fs.String("addr", ":8088", "listen address")
	readOnly := fs.Bool("read-only", false, "serve queries only; never create or append WALs")
	shards := fs.Int("shards", 0, "store shard count (0 = GOMAXPROCS)")
	readConc := fs.Int("read-concurrency", 8, "concurrent query requests admitted")
	writeConc := fs.Int("write-concurrency", 2, "concurrent ingest requests admitted")
	queue := fs.Int("queue", 16, "requests queued per class before shedding with 429")
	timeout := fs.Duration("timeout", 5*time.Second, "default per-request deadline")
	maxTimeout := fs.Duration("max-timeout", 30*time.Second, "ceiling on client-requested deadlines")
	drainTimeout := fs.Duration("drain-timeout", 15*time.Second, "in-flight budget during graceful shutdown")
	planCache := fs.Int("plan-cache", 256, "compiled-plan cache entries (negative disables)")
	blockCache := fs.Int64("block-cache", 0, "block cache bytes for checkpointed rows (0 = the 64 MiB default, negative caches nothing)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return errors.New("-store is required")
	}

	st, err := store.Open(*dir, store.Options{Shards: *shards, ReadOnly: *readOnly, BlockCacheBytes: *blockCache})
	if err != nil {
		return err
	}
	srv := server.New(st, server.Config{
		ReadConcurrency:  *readConc,
		WriteConcurrency: *writeConc,
		QueueDepth:       *queue,
		DefaultTimeout:   *timeout,
		MaxTimeout:       *maxTimeout,
		PlanCacheSize:    *planCache,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		st.Close()
		return err
	}
	mode := "read-write"
	if *readOnly {
		mode = "read-only"
	}
	fmt.Fprintf(out, "sitmd: serving %s (%s) on %s\n", *dir, mode, ln.Addr())

	hs := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		st.Close()
		return err
	case <-ctx.Done():
	}

	fmt.Fprintf(out, "sitmd: signal received, draining (budget %s)\n", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Drain(drainCtx)
	shutErr := hs.Shutdown(drainCtx)
	if err := errors.Join(drainErr, shutErr); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintln(out, "sitmd: drained cleanly, store checkpointed and closed")
	return nil
}

func runLoadgen(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sitmd loadgen", flag.ExitOnError)
	url := fs.String("url", "http://127.0.0.1:8088", "target daemon base URL")
	clients := fs.Int("clients", 8, "concurrent client goroutines")
	requests := fs.Int("requests", 32, "requests per client")
	writeEvery := fs.Int("write-every", 4, "every Nth request is an ingest (0 = queries only)")
	timeoutMS := fs.Int("timeout-ms", 0, "X-Sitm-Timeout to send (0 = server default)")
	prefix := fs.String("prefix", "lg", "MO key prefix for generated writes")
	query := fs.String("query", "", "JSON body for /v1/query (empty = built-in default)")
	retries := fs.Int("retries", 4, "attempt budget per request (1 = no retries)")
	ackedOut := fs.String("acked-out", "", "write acknowledged MO keys to this file, one per line")
	if err := fs.Parse(args); err != nil {
		return err
	}

	stats := server.RunLoad(ctx, server.LoadConfig{
		BaseURL:       *url,
		Clients:       *clients,
		Requests:      *requests,
		WriteEvery:    *writeEvery,
		TimeoutMillis: *timeoutMS,
		KeyPrefix:     *prefix,
		QueryBody:     []byte(*query),
		Retry:         retry.Policy{MaxAttempts: *retries},
	})

	fmt.Fprintf(out, "loadgen: %d clients x %d requests against %s\n", *clients, *requests, *url)
	fmt.Fprintf(out, "accepted %d, failed %d (attempts: shed %d, draining %d, expired %d, retried %d)\n",
		stats.Accepted, stats.Failed, stats.Shed, stats.Draining, stats.Expired, stats.Retried)
	fmt.Fprintf(out, "accepted latency p50 %s p99 %s; %d writes acknowledged\n",
		stats.Percentile(50), stats.Percentile(99), len(stats.AckedKeys))

	if *ackedOut != "" {
		f, err := os.Create(*ackedOut)
		if err != nil {
			return err
		}
		for _, k := range stats.AckedKeys {
			fmt.Fprintln(f, k)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if stats.Accepted == 0 {
		return errors.New("loadgen: no request was ever accepted")
	}
	return nil
}
