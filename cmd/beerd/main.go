// Command beerd serves BEER as a job service: an HTTP/JSON API that accepts
// long-running recovery and simulation jobs, streams per-stage progress
// through status polls, and hands back recovered ECC functions. It runs in
// three roles:
//
//	beerd                                        # standalone: jobs run on the local engine
//	beerd -role coordinator -addr :8080          # cluster front end: jobs shard across workers
//	beerd -role worker -join http://host:8080    # fleet member: registers, heartbeats, executes
//
// Usage:
//
//	beerd -addr :8080 -workers 0
//	beerd -store /var/lib/beerd          # durable jobs + code registry (JSON on disk)
//	beerd -max-jobs 4                    # admission cap: 429 + Retry-After when saturated
//	beerd -selfcheck                     # ephemeral server + smoke suite, then exit
//	beerd -clustercheck                  # 1 coordinator + 2 worker processes + kill-one smoke, then exit
//
// API (full schemas in docs/API.md; see internal/service and
// internal/cluster):
//
//	POST   /api/v1/jobs             {"type":"recover","manufacturer":"B","k":16,"verify":true}
//	                                ("plan":true runs the adaptive pattern planner: collection
//	                                stops the moment the code is unique; the result reports
//	                                patterns_used vs. patterns_full and solver counters)
//	GET    /api/v1/jobs             list job statuses
//	GET    /api/v1/jobs/{id}        status + per-stage progress + live solver counters
//	                                (+ worker/dispatches in cluster)
//	GET    /api/v1/jobs/{id}/result recovered H matrix / simulation counters
//	DELETE /api/v1/jobs/{id}        cancel
//	GET    /api/v1/jobs/{id}/events live status stream (Server-Sent Events)
//	GET    /codes                   registry of recovered ECC functions
//	GET    /codes/{hash}            one registry record, all candidates
//	GET    /healthz                 liveness + job/solver/cluster counters
//	GET    /metrics                 Prometheus text exposition (every role)
//	GET    /debug/traces            recent trace spans (ring buffer, JSON)
//	/cluster/v1/*                   coordinator control plane (register, heartbeat, workers, codes)
//
// Observability: every role serves GET /metrics and GET /debug/traces;
// -log-format selects text or JSON structured logs (trace and job IDs on
// every request line); -debug-addr starts a second, private listener with
// net/http/pprof next to the same metrics and traces.
//
// A coordinator shards jobs across its registered workers by consistent
// hashing on the job's miscorrection-profile hash, fails jobs over when a
// worker dies, spills on 429 backpressure, and aggregates every worker's
// recovered codes into its own GET /codes.
//
// SIGINT/SIGTERM shut every role down gracefully: the server stops
// accepting jobs (503), drains in-flight ones up to -drain-timeout while
// status polls keep answering, persists what remains as resumable, and — in
// the worker role — deregisters from the coordinator first so nothing new
// is dispatched its way.
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
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 0, "engine worker-pool width (0 = all cores)")
		storeDir = flag.String("store", "", "directory for the durable job + code store (empty = in-memory)")
		role     = flag.String("role", "standalone", "process role: standalone, coordinator or worker")
		join     = flag.String("join", "", "coordinator URL to join (worker role)")
		advert   = flag.String("advertise", "", "base URL the coordinator should dispatch to (worker role; default http://127.0.0.1:<port>)")
		workerID = flag.String("worker-id", "", "stable worker identity on the hash ring (default: random)")
		maxJobs  = flag.Int("max-jobs", 0, "admission cap on concurrently executing jobs (0 = unlimited)")
		drain    = flag.Duration("drain-timeout", 45*time.Second, "how long shutdown waits for in-flight jobs before cancelling them")
		beat     = flag.Duration("heartbeat", cluster.DefaultHeartbeatEvery, "cluster heartbeat interval (coordinator hands it to workers)")
		ttl      = flag.Duration("ttl", cluster.DefaultTTL, "cluster liveness TTL (coordinator role)")
		logFmt   = flag.String("log-format", "text", "structured log format: text or json")
		dbgAddr  = flag.String("debug-addr", "", "private listen address for pprof + metrics + traces (empty = off)")

		selfcheck  = flag.Bool("selfcheck", false, "start an ephemeral server, run the smoke suite against it, and exit")
		smokeJobs  = flag.Int("selfcheck-jobs", 8, "concurrent recovery jobs the selfcheck submits")
		clustCheck = flag.Bool("clustercheck", false, "spin up a local 1-coordinator/2-worker cluster, run the kill-one smoke, and exit")
		clustJobs  = flag.Int("clustercheck-jobs", 8, "distinct-profile jobs per clustercheck phase")
	)
	flag.Parse()

	logger, err := newLogger(*logFmt)
	if err != nil {
		log.Fatalf("beerd: %v", err)
	}
	hub := obs.NewHub(logger)

	if *clustCheck {
		// The check wants a fast liveness clock, but an explicit flag — an
		// operator slowing things down to debug — always wins.
		beatSet, ttlSet := false, false
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "heartbeat":
				beatSet = true
			case "ttl":
				ttlSet = true
			}
		})
		if !beatSet {
			*beat = 250 * time.Millisecond
		}
		if !ttlSet {
			*ttl = time.Second
		}
		os.Exit(runClusterCheck(hub, *clustJobs, *beat, *ttl))
	}

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

	// The listener comes first so the worker role can derive a dialable
	// advertise URL from the bound port before anything registers.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(logger, err)
	}

	var (
		coord     *cluster.Coordinator
		agent     *cluster.Worker
		workerCfg *cluster.WorkerConfig
	)
	switch *role {
	case "standalone":
	case "coordinator":
		// The coordinator shares the server's store, so codes synced from
		// workers land on the public GET /codes.
		coord = cluster.NewCoordinator(st, cluster.CoordinatorConfig{
			HeartbeatEvery: *beat,
			TTL:            *ttl,
			Obs:            hub,
		})
		opts = append(opts, service.WithExecutor(coord))
	case "worker":
		if *join == "" {
			fatal(logger, errors.New("-role worker requires -join <coordinator-url>"))
		}
		id := *workerID
		if id == "" {
			id = cluster.RandomWorkerID()
		}
		advertise := *advert
		if advertise == "" {
			advertise = defaultAdvertise(ln)
		}
		workerCfg = &cluster.WorkerConfig{
			ID:             id,
			CoordinatorURL: *join,
			AdvertiseURL:   advertise,
			Capacity:       *maxJobs,
			HeartbeatEvery: *beat,
			Obs:            hub,
		}
		// The remote solve-cache tier is wired at construction so even the
		// first job consults the fleet registry before solving.
		opts = append(opts, service.WithSolveCacheTier(cluster.NewRemoteCache(*join, id)))
	default:
		fatal(logger, fmt.Errorf("unknown role %q (want standalone, coordinator or worker)", *role))
	}

	srv := service.New(repro.NewEngine(*workers), opts...)
	defer srv.Store().Close()

	handler := srv.Handler()
	switch {
	case coord != nil:
		handler = coord.Handler(handler)
	case workerCfg != nil:
		// Workers expose the raw registry read endpoints so the
		// coordinator's pull sweep can reconcile every record.
		handler = cluster.RegistryHandler(st, handler)
	}
	// Every request — service API and cluster control plane alike — passes
	// the hub middleware: request metrics, traceparent extraction, one
	// structured log line per request.
	httpSrv := &http.Server{
		Handler:           hub.Middleware(handler),
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

	if workerCfg != nil {
		var err error
		agent, err = cluster.NewWorker(*workerCfg, srv)
		if err != nil {
			fatal(logger, err)
		}
		go func() {
			if err := agent.Run(ctx); err != nil && ctx.Err() == nil {
				logger.Error("cluster agent stopped", "err", err)
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	logger.Info("beerd listening", "role", *role, "addr", ln.Addr().String(),
		"engine_workers", srv.Engine().Workers(), "store", srv.Store().Describe(),
		"executor", srv.Executor().Describe())

	select {
	case err := <-errCh:
		fatal(logger, err)
	case <-ctx.Done():
	}
	shutdown(logger, srv, httpSrv, agent, *drain)
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

// shutdown runs the graceful sequence: deregister (worker), drain while
// status polls keep answering, stop the listener, cancel what remains.
func shutdown(logger *slog.Logger, srv *service.Server, httpSrv *http.Server, agent *cluster.Worker, drainTimeout time.Duration) {
	if agent != nil {
		dctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		if err := agent.Deregister(dctx); err != nil {
			logger.Warn("deregister failed", "err", err)
		}
		cancel()
	}
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

// defaultAdvertise derives a dialable loopback URL from the bound listener
// (the listen address ":8080" binds every interface; dispatchers need a
// concrete host).
func defaultAdvertise(ln net.Listener) string {
	addr := ln.Addr().String()
	if host, port, err := net.SplitHostPort(addr); err == nil {
		if host == "" || host == "::" || host == "0.0.0.0" {
			return "http://127.0.0.1:" + port
		}
		if strings.Contains(host, ":") {
			return "http://[" + host + "]:" + port
		}
		return "http://" + host + ":" + port
	}
	return "http://" + addr
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
