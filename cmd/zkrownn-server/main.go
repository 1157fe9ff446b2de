// Command zkrownn-server runs the ZKROWNN proof service: an HTTP JSON
// API exposing the prover engine as an online ownership-proof endpoint.
//
//	zkrownn-server -addr :8080 -registry registry -keycache keys
//
// Endpoints (see README "Running the proof service" for the full API):
//
//	GET  /healthz                  liveness
//	GET  /v1/stats                 engine + queue + batch counters
//	POST /v1/models                register an ownership circuit
//	GET  /v1/models                list the registry
//	GET  /v1/models/{id}           one entry + verifying key
//	POST /v1/models/{id}/prove     submit an async proof job (202/429)
//	GET  /v1/jobs/{id}             poll a job
//	GET  /v1/jobs/{id}/proof       fetch the finished proof (binary)
//	GET  /v1/jobs/{id}/trace       Chrome trace-event timeline (trace=true jobs)
//	POST /v1/models/{id}/verify    verify a proof (batched with queued neighbors under load)
//	GET  /metrics                  Prometheus text exposition
//
// -pprof additionally mounts net/http/pprof under /debug/pprof/.
//
// SIGINT/SIGTERM trigger a graceful drain: in-flight HTTP requests and
// prove jobs finish, queued jobs are failed with a shutdown error, and
// the engine flushes its disk-cache writes before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"zkrownn/internal/bn254/curve"
	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/engine"
	"zkrownn/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	registryDir := flag.String("registry", "", "directory persisting verifying keys + model metadata across restarts (empty: memory only)")
	keyCache := flag.String("keycache", "", "prover-engine key cache directory (empty: memory only)")
	cacheEntries := flag.Int("cache-entries", 16, "in-memory key cache entries (negative: unbounded)")
	memBudget := flag.Int64("mem-budget", 0, "per-circuit prover memory budget in bytes: circuits whose raw proving key exceeds it stream from disk, and when the constraint system + witness exceed it too the prover runs fully out-of-core (0 disables)")
	workers := flag.Int("workers", 0, "prover worker pool size (0: GOMAXPROCS)")
	queueDepth := flag.Int("queue-depth", 64, "async prove queue depth (overflow answers 429)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
	quiet := flag.Bool("quiet", false, "discard logs")
	logJSON := flag.Bool("log-json", false, "emit structured logs as JSON (default: logfmt-style text)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (do not enable on untrusted networks)")
	flag.Parse()

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *quiet {
		handler = slog.DiscardHandler
	} else if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)

	srv, err := service.New(service.Options{
		EngineOptions: engine.Options{
			CacheDir:     *keyCache,
			CacheEntries: *cacheEntries,
			MemoryBudget: *memBudget,
			Workers:      *workers,
		},
		RegistryDir: *registryDir,
		QueueDepth:  *queueDepth,
		Logger:      logger,
		EnablePprof: *pprofOn,
	})
	if err != nil {
		log.Fatalf("zkrownn-server: %v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("zkrownn-server: %v", err)
	}
	httpSrv := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Serve returns ErrServerClosed as soon as Shutdown is *called*, so
	// main must wait for Shutdown to *finish* draining in-flight
	// requests before tearing down the job queue and engine behind them.
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		logger.Info("shutdown signal, draining", "budget", drainTimeout.String())
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			logger.Warn("http shutdown", "err", err.Error())
		}
	}()

	fmt.Printf("zkrownn-server: proof service listening on %s (G1 flush backend %s, field backend %s)\n",
		ln.Addr(), curve.Backend(), fr.MulBackend())
	err = httpSrv.Serve(ln)
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("zkrownn-server: %v", err)
	}
	stop() // unblock the shutdown goroutine if Serve ended on its own
	<-shutdownDone
	// In-flight HTTP work is done; drain the job queue and the engine.
	if err := srv.Close(); err != nil {
		log.Fatalf("zkrownn-server: close: %v", err)
	}
	logger.Info("drained, bye")
}
