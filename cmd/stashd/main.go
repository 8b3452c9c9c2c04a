// Command stashd serves the stash-directory simulator as an HTTP run
// service: a bounded worker pool with a disk-backed result cache, so
// repeated sweeps — from any number of concurrent clients, across server
// restarts — simulate each configuration exactly once.
//
// Usage:
//
//	stashd [-addr :8344] [-cache-dir DIR] [-j N] [-job-timeout D]
//	       [-max-queue N] [-drain-timeout D] [-v]
//
// Endpoints:
//
//	POST /run           one simulation; body {"workload":"canneal","dir":"stash",...}
//	POST /sweep         workload x dirkind x coverage batch; streams JSON lines
//	POST /internal/run  one fully resolved configuration
//	GET  /jobs/{id}     job status snapshot
//	GET  /metrics       text-format counters
//	GET  /healthz       liveness probe
//
// -cache-dir may name a directory that stashsim and experiments also use:
// every writer renames complete files into place, so they can share it.
//
// On SIGINT/SIGTERM the server stops accepting connections, lets in-flight
// requests finish, and drains the job queue before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/runner"
	"repro/internal/stashd"
)

func main() {
	var (
		addr       = flag.String("addr", ":8344", "listen address")
		cacheDir   = flag.String("cache-dir", "stashd-cache", "disk result-cache directory (empty disables)")
		workers    = flag.Int("j", -1, "concurrent simulations (-1 = all cores)")
		jobTimeout = flag.Duration("job-timeout", 10*time.Minute, "per-simulation timeout; a timed-out simulation stops (0 = none)")
		maxQueue   = flag.Int("max-queue", 0, "shed with 503 when the job queue would exceed this depth (0 = unbounded)")
		drain      = flag.Duration("drain-timeout", time.Minute, "graceful-shutdown budget for in-flight requests")
		verbose    = flag.Bool("v", false, "log every job lifecycle event")
	)
	flag.Parse()

	opts := runner.Options{
		Workers:  *workers,
		Timeout:  *jobTimeout,
		CacheDir: *cacheDir,
	}
	if *verbose {
		opts.Events = func(e runner.Event) {
			switch e.Kind {
			case runner.EventFinished:
				hit := e.CacheHit
				if hit == "" {
					hit = "run"
				}
				log.Printf("%s %s %s/%s cov=%.4g (%s, %v)", e.JobID, e.Kind, e.Config.DirKind,
					e.Config.WorkloadName(), e.Config.Coverage, hit, e.Duration.Round(time.Millisecond))
			case runner.EventFailed:
				log.Printf("%s %s: %v", e.JobID, e.Kind, e.Err)
			}
		}
	}
	r := runner.New(opts)
	srv := &http.Server{Addr: *addr, Handler: stashd.NewServerWith(r, stashd.Options{MaxQueue: *maxQueue})}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("stashd listening on %s (workers=%d, cache=%q)", *addr, *workers, *cacheDir)

	select {
	case err := <-errc:
		log.Fatalf("stashd: %v", err)
	case <-ctx.Done():
	}

	log.Printf("stashd: shutting down, draining in-flight jobs (budget %v)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("stashd: shutdown: %v", err)
	}
	r.Close() // waits for every queued and running job
	log.Printf("stashd: drained, bye")
}
