// Command colserved serves the column-cache simulator over HTTP: a
// long-running daemon with a bounded job queue, explicit backpressure, and
// live Prometheus-text metrics.
//
// Usage:
//
//	colserved [-addr :8344] [-workers N] [-queue N] [-drain 30s]
//	colserved -role coordinator [-addr :8340] [-vnodes 64] [-peer-ttl 2s]
//	colserved -role worker -join http://coord:8340 [-node w1] [-advertise URL]
//
// Endpoints:
//
//	POST /v1/simulate   submit one simulation (JSON SimSpec, or a binary
//	                    CCTRACE1 trace as application/octet-stream with the
//	                    machine in query parameters) → 202 + JobInfo
//	POST /v1/sweep      submit a batched parameter sweep → 202 + JobInfo
//	GET  /v1/jobs/{id}  poll a job; terminal documents carry the result
//	GET  /v1/jobs       recent jobs and live queue counts
//	GET  /metrics       Prometheus text exposition
//	GET  /healthz       liveness (503 while draining)
//
// A full queue answers 429 with Retry-After; on SIGTERM/SIGINT the server
// stops accepting work (503), hands queued jobs back as canceled+retriable,
// lets in-flight simulations finish inside the -drain budget, then cancels
// stragglers through the simulation loop's cooperative checkpoints.
//
// With -data-dir the server is durable: every accepted job is committed to
// a write-ahead log before the 202 leaves, finished results are memoized in
// a content-addressed cache (identical resubmissions answer instantly with
// "cached": true), and a restart over the same directory replays the log —
// queued jobs re-enqueue, in-flight simulations resume from their last
// checkpoint, and GET /v1/results/{digest} serves memoized results.
//
// With -role the process joins a job fabric. A coordinator serves the same
// /v1 API but owns no simulator: it routes each submission to the worker
// that owns the spec's digest on a consistent-hash ring, and steals jobs
// back from workers that stop heartbeating. A worker is a standalone
// server that additionally registers with -join's coordinator and renews
// its ring lease every -heartbeat.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"colcache/internal/fabric"
	"colcache/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("colserved", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8344", "listen address")
		workers    = fs.Int("workers", 0, "concurrent jobs (default: NumCPU)")
		queue      = fs.Int("queue", 256, "max queued jobs before 429")
		sweepW     = fs.Int("sweep-workers", 4, "per-sweep inner parallelism cap")
		jobTimeout = fs.Duration("job-timeout", 120*time.Second, "per-job execution budget")
		drain      = fs.Duration("drain", 30*time.Second, "graceful drain budget on SIGTERM")
		maxTrace   = fs.Int("max-trace", 4<<20, "max accesses per trace (uploaded or generated)")
		maxBody    = fs.Int64("max-body", 32<<20, "max request body bytes")
		maxPoints  = fs.Int("max-sweep-points", 512, "max expanded points per sweep")
		retain     = fs.Int("retain", 16384, "job documents kept for polling")
		checkEvery = fs.Int("check-every", 0, "simulation cancellation stride (default 4096)")
		quiet      = fs.Bool("quiet", false, "suppress request logging")
		dataDir    = fs.String("data-dir", "", "durability root: WAL + result cache (empty: in-memory)")
		walPath    = fs.String("wal", "", "write-ahead log path (default <data-dir>/wal.log)")
		cacheBytes = fs.Int64("result-cache-bytes", 0, "result cache byte budget (default 256 MiB)")

		inspectEvery = fs.Int("inspect-every", 0, "capture an occupancy frame every N accesses; 0 disables live inspection")
		inspectBytes = fs.Int64("inspect-frames-bytes", 0, "time-travel frame retention byte budget (default 16 MiB when inspection is on)")

		role      = fs.String("role", "standalone", "process role: standalone, coordinator, or worker")
		join      = fs.String("join", "", "coordinator base URL (worker role)")
		node      = fs.String("node", "", "stable ring identity (worker role; default: derived from listen addr)")
		advertise = fs.String("advertise", "", "base URL the coordinator reaches this worker at (default http://127.0.0.1:<port>)")
		heartbeat = fs.Duration("heartbeat", 500*time.Millisecond, "worker heartbeat interval")
		vnodes    = fs.Int("vnodes", fabric.DefaultVNodes, "virtual nodes per worker on the hash ring (coordinator role)")
		peerTTL   = fs.Duration("peer-ttl", 2*time.Second, "heartbeat lease before a worker is declared dead (coordinator role)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}

	switch *role {
	case "standalone", "worker":
	case "coordinator":
		return runCoordinator(*addr, *vnodes, *peerTTL, *maxBody, *retain, logf)
	default:
		log.Printf("colserved: unknown -role %q (want standalone, coordinator, or worker)", *role)
		return 2
	}
	if *role == "worker" && *join == "" {
		log.Printf("colserved: -role worker requires -join <coordinator URL>")
		return 2
	}

	var dur *service.Durability
	if *dataDir != "" || *walPath != "" {
		if *dataDir == "" {
			log.Printf("colserved: -wal requires -data-dir (the result cache needs a root)")
			return 2
		}
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			log.Printf("colserved: data dir: %v", err)
			return 1
		}
		var err error
		dur, err = service.OpenDurability(*dataDir, *walPath, *cacheBytes)
		if err != nil {
			log.Printf("colserved: %v", err)
			return 1
		}
		defer dur.Close()
	}

	// The listener comes first: a worker without -node is named after its
	// bound address, and the server writes that name into its hit documents.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Printf("colserved: %v", err)
		return 1
	}
	name := ""
	if *role == "worker" {
		if name = *node; name == "" {
			name = "worker-" + ln.Addr().String()
		}
	}

	srv := service.New(service.Config{
		Workers:           *workers,
		QueueDepth:        *queue,
		SweepWorkers:      *sweepW,
		JobTimeout:        *jobTimeout,
		MaxBodyBytes:      *maxBody,
		Limits:            service.Limits{MaxTraceAccesses: *maxTrace},
		MaxSweepPoints:    *maxPoints,
		RetainJobs:        *retain,
		CheckEvery:        *checkEvery,
		Durability:        dur,
		InspectEvery:      *inspectEvery,
		InspectFrameBytes: *inspectBytes,
		Node:              name,
	})
	if *inspectEvery > 0 {
		logf("colserved: live inspection on: frame every %d accesses, GET /v1/jobs/{id}/inspect", *inspectEvery)
	}

	if dur != nil {
		rec := srv.Recovery()
		logf("colserved: durable in %s (wal replay: %d requeued, %d resumed from checkpoint, %d already finished, %d dropped)",
			*dataDir, rec.Requeued, rec.Resumed, rec.Finished, rec.Dropped)
	}

	// Worker role: register with the coordinator before serving traffic so
	// the first routed job never races the first heartbeat.
	var agent *fabric.Agent
	if *role == "worker" {
		base := *advertise
		if base == "" {
			base = advertiseURL(ln.Addr())
		}
		agent = fabric.StartAgent(fabric.AgentConfig{
			Coordinator: strings.TrimRight(*join, "/"),
			Name:        name,
			BaseURL:     base,
			Interval:    *heartbeat,
			Status:      srv.FabricStatus,
			Logf:        logf,
		})
		srv.SetFabricGauges(agent.Gauges)
		defer agent.Stop()
		logf("colserved: worker %s advertising %s to %s", name, base, *join)
	}

	httpSrv := &http.Server{Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	logf("colserved: listening on %s (workers=%d queue=%d)", ln.Addr(), *workers, *queue)

	select {
	case err := <-errc:
		log.Printf("colserved: serve: %v", err)
		return 1
	case <-ctx.Done():
	}
	stop()
	logf("colserved: signal received, draining (budget %s)", *drain)

	// Stop heartbeating first so the coordinator routes new work elsewhere
	// while this worker drains what it already accepted.
	if agent != nil {
		agent.Stop()
	}

	// Drain the job queue first so /v1/jobs stays pollable while in-flight
	// work completes, then close the listener.
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	drainErr := srv.Drain(dctx)
	if drainErr != nil {
		log.Printf("colserved: drain: %v", drainErr)
	}

	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := httpSrv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("colserved: shutdown: %v", err)
		return 1
	}
	<-errc // Serve has returned
	if drainErr != nil {
		return 1
	}
	logf("colserved: drained cleanly")
	return 0
}

// runCoordinator serves the fabric control plane: no simulator, just the
// ring, the failure detector, and the forwarding /v1 API.
func runCoordinator(addr string, vnodes int, peerTTL time.Duration, maxBody int64, retain int, logf func(string, ...any)) int {
	coord := fabric.NewCoordinator(fabric.CoordinatorConfig{
		VNodes:       vnodes,
		PeerTTL:      peerTTL,
		MaxBodyBytes: maxBody,
		RetainJobs:   retain,
		Logf:         logf,
	})
	defer coord.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Printf("colserved: %v", err)
		return 1
	}
	httpSrv := &http.Server{Handler: coord.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	logf("colserved: coordinator listening on %s (vnodes=%d peer-ttl=%s)", ln.Addr(), vnodes, peerTTL)

	select {
	case err := <-errc:
		log.Printf("colserved: serve: %v", err)
		return 1
	case <-ctx.Done():
	}
	stop()

	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := httpSrv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("colserved: shutdown: %v", err)
		return 1
	}
	<-errc
	logf("colserved: coordinator stopped")
	return 0
}

// advertiseURL derives a worker's reachable base URL from its listener:
// a wildcard host becomes 127.0.0.1 (single-host fabrics are the test and
// quickstart topology; multi-host deployments pass -advertise).
func advertiseURL(a net.Addr) string {
	host, port, err := net.SplitHostPort(a.String())
	if err != nil {
		return "http://" + a.String()
	}
	ip := net.ParseIP(host)
	if host == "" || host == "::" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}
