// Command fbmpkd is the FBMPK serving daemon: an HTTP/JSON front end
// over the fingerprint-keyed plan registry. Clients upload matrices
// (MatrixMarket bodies or generator specs) and get back a fingerprint
// key; MPK/SSpMV/solve requests against that key are served from
// registry-cached plans with per-request deadlines, load-shedding
// admission (429 + Retry-After), and graceful drain on SIGTERM.
//
// Usage:
//
//	fbmpkd -addr :8707 -threads 4
//	fbmpkd -addr 127.0.0.1:0 -registry-cap 8 -log-format json
//
//	curl -s localhost:8707/v1/matrix -H 'Content-Type: application/json' \
//	     -d '{"name":"cant","scale":0.01,"seed":1}'
//	curl -s localhost:8707/v1/mpk \
//	     -d '{"matrix":"<key>","k":5,"return":"checksum"}'
//	curl -s localhost:8707/v1/matrix/<key>/values --data-binary @new.mtx
//
// The wire contract is versioned: endpoints live under /v1/ and every
// response carries "api_version". A values POST updates the cached
// plan in place when the structure is unchanged (epoch/RCU swap) and
// rebuilds otherwise.
//
// Every request is traced: the daemon accepts or generates a W3C
// traceparent, logs one structured access record per request
// (-log-level, -log-format), and retains the 16 slowest and 16 most
// recent failed request timelines at /v1/debug/requests. See the README
// "Observability" section for the walkthrough.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"fbmpk"
	"fbmpk/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8707", "listen address (host:0 picks a port)")
		threads     = flag.Int("threads", runtime.GOMAXPROCS(0), "worker threads per plan")
		registryCap = flag.Int("registry-cap", 0, "plan cache capacity (0 = unbounded)")
		maxInflight = flag.Int("max-inflight", 0, "admission limit on concurrent requests (0 = 4x GOMAXPROCS)")
		deadline    = flag.Duration("deadline", 30*time.Second, "default per-request deadline")
		maxTimeout  = flag.Duration("max-deadline", 5*time.Minute, "clamp on client-requested deadlines")
		maxBody     = flag.Int64("max-body", 256<<20, "request body size cap in bytes")
		maxMatrices = flag.Int("max-matrices", 64, "resident uploaded matrix cap")
		drain       = flag.Duration("drain", 30*time.Second, "in-flight grace period on SIGTERM/SIGINT")
		logLevel    = flag.String("log-level", "info", "log verbosity: debug | info | warn | error")
		logFormat   = flag.String("log-format", "text", "log encoding: text | json")
	)
	flag.Parse()
	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fbmpkd:", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", *addr)
	if err == nil {
		// The url attribute leads so harnesses can extract the :0-bound
		// port from the text encoding with one pattern.
		logger.Info("listening",
			"url", "http://"+ln.Addr().String(),
			"api_version", serve.APIVersion,
			"threads", *threads,
			"go_version", runtime.Version())
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		// A second signal during the drain kills the process.
		context.AfterFunc(ctx, stop)
		err = run(ctx, serve.Config{
			RegistryCapacity: *registryCap,
			MaxInFlight:      *maxInflight,
			DefaultTimeout:   *deadline,
			MaxTimeout:       *maxTimeout,
			MaxBodyBytes:     *maxBody,
			MaxMatrices:      *maxMatrices,
			PlanOptions:      []fbmpk.Option{fbmpk.WithThreads(*threads)},
			Logger:           logger,
		}, ln, *drain)
	}
	if err != nil {
		logger.Error("exiting", "error", err.Error())
		os.Exit(1)
	}
}

// buildLogger assembles the daemon's structured logger on stderr; the
// startup record on it is the machine-readable contract the CI
// harness and fbmpkload's docs rely on to discover a :0-bound port.
func buildLogger(level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (text | json)", format)
	}
}

// run serves the daemon cfg describes on ln until ctx is done, then
// drains in-flight requests for up to drain and returns nil on a clean
// drain. The drain records go to cfg.Logger, which must be set.
func run(ctx context.Context, cfg serve.Config, ln net.Listener, drain time.Duration) error {
	srv := serve.New(cfg)
	defer srv.Close()
	hs := serve.NewHTTPServer(srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
		cfg.Logger.Info("draining", "grace", drain.String())
		if err := serve.Shutdown(hs, drain); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		cfg.Logger.Info("drained cleanly")
		return nil
	}
}
