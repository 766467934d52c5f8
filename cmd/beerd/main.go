// Command beerd serves BEER as a job service: an HTTP/JSON API that accepts
// long-running recovery and simulation jobs, streams per-stage progress
// through status polls, and hands back recovered ECC functions. Jobs run on
// the process's own parallel experiment engine; BEER's per-chip experiments
// are independent (paper §6.3), so one host's cores are the unit of scale.
//
// Usage:
//
//	beerd -addr :8080 -workers 0
//	beerd -store /var/lib/beerd          # durable jobs + code registry (JSON on disk)
//	beerd -max-jobs 4                    # admission cap: 429 + Retry-After when saturated
//	beerd -selfcheck                     # ephemeral server + smoke suite, then exit
//
// API (full schemas in docs/API.md; see internal/service):
//
//	POST   /api/v1/jobs             {"type":"recover","manufacturer":"B","k":16,"verify":true}
//	                                ("plan":true runs the adaptive pattern planner: collection
//	                                stops the moment the code is unique; the result reports
//	                                patterns_used vs. patterns_full and solver counters)
//	GET    /api/v1/jobs             list job statuses
//	GET    /api/v1/jobs/{id}        status + per-stage progress + live solver counters
//	GET    /api/v1/jobs/{id}/result recovered H matrix / simulation counters
//	DELETE /api/v1/jobs/{id}        cancel
//	GET    /api/v1/jobs/{id}/events live status stream (Server-Sent Events)
//	GET    /codes                   registry of recovered ECC functions
//	GET    /codes/{hash}            one registry record, all candidates
//	GET    /healthz                 liveness + job/solver counters
//	GET    /metrics                 Prometheus text exposition
//	GET    /debug/traces            recent trace spans (ring buffer, JSON)
//
// Observability: beerd serves GET /metrics and GET /debug/traces;
// -log-format selects text or JSON structured logs (trace and job IDs on
// every request line); -debug-addr starts a second, private listener with
// net/http/pprof next to the same metrics and traces.
//
// With -store, jobs and recovered codes survive a restart: a job that was
// running when the process died resumes from its record, and a profile
// already in the code registry is never solved again.
//
// SIGINT/SIGTERM shut beerd down gracefully: the server stops accepting
// jobs (503), drains in-flight ones up to -drain-timeout while status polls
// keep answering, and persists what remains as resumable.
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

	"repro"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 0, "engine worker-pool width (0 = all cores)")
		storeDir = flag.String("store", "", "directory for the durable job + code store (empty = in-memory)")
		maxJobs  = flag.Int("max-jobs", 0, "admission cap on concurrently executing jobs (0 = unlimited)")
		drain    = flag.Duration("drain-timeout", 45*time.Second, "how long shutdown waits for in-flight jobs before cancelling them")
		logFmt   = flag.String("log-format", "text", "structured log format: text or json")
		dbgAddr  = flag.String("debug-addr", "", "private listen address for pprof + metrics + traces (empty = off)")

		selfcheck = flag.Bool("selfcheck", false, "start an ephemeral server, run the smoke suite against it, and exit")
		smokeJobs = flag.Int("selfcheck-jobs", 8, "concurrent recovery jobs the selfcheck submits")
	)
	flag.Parse()

	logger, err := newLogger(*logFmt)
	if err != nil {
		log.Fatalf("beerd: %v", err)
	}
	hub := obs.NewHub(logger)

	st := store.New(store.NewMemBackend())
	if *storeDir != "" {
		backend, err := store.NewFileBackend(*storeDir)
		if err != nil {
			fatal(logger, err)
		}
		st = store.New(backend)
	}
	opts := []service.Option{service.WithStore(st), service.WithObservability(hub)}
	if *maxJobs > 0 {
		opts = append(opts, service.WithMaxConcurrent(*maxJobs))
	}

	if *selfcheck {
		// Selfcheck never uses -addr (it serves on an ephemeral loopback
		// port), so it must run before the listener binds.
		srv := service.New(repro.NewEngine(*workers), opts...)
		defer srv.Store().Close()
		os.Exit(runSelfcheck(srv, *smokeJobs))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(logger, err)
	}

	srv := service.New(repro.NewEngine(*workers), opts...)
	defer srv.Store().Close()

	// Every request passes the hub middleware: request metrics,
	// traceparent extraction, one structured log line per request.
	httpSrv := &http.Server{
		Handler:           hub.Middleware(srv.Handler()),
		ReadHeaderTimeout: 10 * time.Second,
	}

	if *dbgAddr != "" {
		dln, err := net.Listen("tcp", *dbgAddr)
		if err != nil {
			fatal(logger, fmt.Errorf("-debug-addr: %w", err))
		}
		dbgSrv := &http.Server{Handler: hub.DebugHandler(), ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := dbgSrv.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "err", err)
			}
		}()
		defer dbgSrv.Close()
		logger.Info("debug listener up", "addr", dln.Addr().String())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	logger.Info("beerd listening", "addr", ln.Addr().String(),
		"engine_workers", srv.Engine().Workers(), "store", srv.Store().Describe(),
		"executor", srv.Executor().Describe())

	select {
	case err := <-errCh:
		fatal(logger, err)
	case <-ctx.Done():
	}
	shutdown(logger, srv, httpSrv, *drain)
}

// newLogger builds the process logger for -log-format.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

// fatal logs err at error level and exits, the slog analogue of log.Fatalf.
func fatal(logger *slog.Logger, err error) {
	logger.Error("beerd exiting", "err", err)
	os.Exit(1)
}

// shutdown runs the graceful sequence: drain while status polls keep
// answering, stop the listener, cancel what remains.
func shutdown(logger *slog.Logger, srv *service.Server, httpSrv *http.Server, drainTimeout time.Duration) {
	logger.Info("draining — new submissions get 503, in-flight jobs finish", "timeout", drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		logger.Warn("drain incomplete; cancelling the rest (they persist as resumable)", "err", err)
	} else {
		logger.Info("drained cleanly")
	}
	shutdownCtx, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("http shutdown failed", "err", err)
	}
	srv.Close()
	logger.Info("bye")
}

// runSelfcheck boots an ephemeral server on a loopback port and drives the
// same smoke suite CI runs (make serve-smoke), returning the exit code.
func runSelfcheck(srv *service.Server, jobs int) int {
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "beerd:", err)
		return 1
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "beerd:", err)
		}
	}()
	defer httpSrv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	base := "http://" + ln.Addr().String()
	log.Printf("beerd selfcheck: serving on %s, submitting %d concurrent recovery jobs", base, jobs)
	err = service.Smoke(ctx, service.SmokeConfig{
		BaseURL: base,
		Jobs:    jobs,
		Log:     log.Printf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "beerd selfcheck FAILED:", err)
		return 1
	}
	fmt.Printf("beerd selfcheck OK: %d concurrent jobs recovered and verified\n", jobs)
	return 0
}
