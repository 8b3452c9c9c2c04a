// Package stashd implements the HTTP simulation service served by
// cmd/stashd. It is a thin protocol layer over internal/runner: requests
// resolve to system.Config jobs, results stream back as JSON, and the
// runner's counters render as a text metrics page. Keeping the handlers
// here (instead of in the command) makes the whole service testable with
// net/http/httptest.
package stashd

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/runner"
	"repro/internal/system"
)

// Options configure the HTTP layer's admission control. The zero value
// admits every request.
type Options struct {
	// MaxQueue sheds work once the runner's queue depth plus the request's
	// own job count would exceed it; 0 disables shedding. Refusals are 503
	// with a Retry-After header, so overload degrades instead of queueing
	// without bound.
	MaxQueue int
}

// Server routes the run-service API:
//
//	POST /run           one simulation, JSON in / JSON out
//	POST /sweep         a workload x dirkind x coverage batch, streamed as
//	                    chunked JSON lines (application/x-ndjson)
//	POST /internal/run  one fully resolved system.Config, for configs the
//	                    RunRequest fields cannot express
//	GET  /jobs/{id}     job status snapshot
//	GET  /metrics       text-format aggregate counters
//	GET  /healthz       liveness probe
type Server struct {
	runner *runner.Runner
	mux    *http.ServeMux
	start  time.Time
	opts   Options

	shedQueue atomic.Int64 // 503s issued

	mu           sync.Mutex
	activeSweeps int //stash:guardedby mu
}

// NewServer wraps a runner in the HTTP API with no admission control. The
// caller keeps ownership of the runner and closes it after the HTTP server
// has shut down.
func NewServer(r *runner.Runner) *Server {
	return NewServerWith(r, Options{})
}

// NewServerWith is NewServer plus admission control.
func NewServerWith(r *runner.Runner, opts Options) *Server {
	s := &Server{
		runner: r,
		mux:    http.NewServeMux(),
		start:  time.Now(),
		opts:   opts,
	}
	s.mux.HandleFunc("POST /run", s.handleRun)
	s.mux.HandleFunc("POST /sweep", s.handleSweep)
	s.mux.HandleFunc("POST /internal/run", s.handleInternalRun)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s
}

// admitQueue sheds new jobs when the queue is past the configured
// bound; a refusal writes the 503 itself and returns false. The Retry-After
// estimate is the time for the backlog to drain through the currently
// running workers at the recent median run latency, clamped to [1s, 60s].
func (s *Server) admitQueue(w http.ResponseWriter, jobs int) bool {
	if s.opts.MaxQueue <= 0 {
		return true
	}
	depth := s.runner.QueueDepth()
	if depth+jobs <= s.opts.MaxQueue {
		return true
	}
	s.shedQueue.Add(1)
	m := s.runner.Metrics()
	retry := time.Second
	if m.RunLatencyP50 > 0 {
		workers := m.InFlight
		if workers < 1 {
			workers = 1
		}
		retry = time.Duration(depth+1) * m.RunLatencyP50 / time.Duration(workers)
	}
	if retry < time.Second {
		retry = time.Second
	}
	if retry > time.Minute {
		retry = time.Minute
	}
	w.Header().Set("Retry-After", strconv.Itoa(int(retry/time.Second)))
	httpError(w, http.StatusServiceUnavailable,
		fmt.Errorf("stashd: queue depth %d + %d new jobs exceeds limit %d; retry after %v",
			depth, jobs, s.opts.MaxQueue, retry))
	return false
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	s.mux.ServeHTTP(w, req)
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func (s *Server) handleRun(w http.ResponseWriter, req *http.Request) {
	var rr RunRequest
	if err := json.NewDecoder(req.Body).Decode(&rr); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("stashd: bad request body: %w", err))
		return
	}
	cfg, err := rr.Config()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.runOne(w, req, cfg)
}

// runOne admits, runs and answers one validated config: the shared tail of
// POST /run and POST /internal/run.
func (s *Server) runOne(w http.ResponseWriter, req *http.Request, cfg system.Config) {
	if !s.admitQueue(w, 1) {
		return
	}
	job, err := s.runner.Submit(req.Context(), cfg)
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, err)
		return
	}
	res, err := job.Wait(req.Context())
	if err != nil {
		if req.Context().Err() != nil {
			// The client disconnected (or its deadline passed): there is no
			// usable response to write, and this is not a simulation
			// failure — don't dress it up as a 500.
			return
		}
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	st := job.Status()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(RunResponse{
		JobID:      st.ID,
		CacheHit:   st.CacheHit,
		DurationMS: st.DurationMS,
		Result:     res,
	})
}

func (s *Server) handleSweep(w http.ResponseWriter, req *http.Request) {
	var sr SweepRequest
	if err := json.NewDecoder(req.Body).Decode(&sr); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("stashd: bad request body: %w", err))
		return
	}
	cfgs, err := sr.Configs()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if !s.admitQueue(w, len(cfgs)) {
		return
	}

	s.beginSweep()
	defer s.endSweep()

	// Submit everything up front (the runner queues and deduplicates),
	// then stream one line per job in completion order. A client
	// disconnect cancels req.Context(), which aborts still-queued jobs.
	jobs := make([]*runner.Job, 0, len(cfgs))
	for _, cfg := range cfgs {
		job, err := s.runner.Submit(req.Context(), cfg)
		if err != nil {
			httpError(w, http.StatusServiceUnavailable, err)
			return
		}
		jobs = append(jobs, job)
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	start := time.Now()

	// The channel is buffered to len(jobs): if the client disconnects and
	// the stream loop returns early, every remaining waiter goroutine can
	// still deliver its line and exit instead of blocking forever.
	lines := make(chan SweepLine, len(jobs))
	for _, job := range jobs {
		go func(job *runner.Job) {
			res, err := job.Wait(req.Context())
			st := job.Status()
			line := SweepLine{
				Type:       "job",
				JobID:      st.ID,
				Workload:   st.Workload,
				DirKind:    st.DirKind,
				Coverage:   st.Coverage,
				CacheHit:   st.CacheHit,
				DurationMS: st.DurationMS,
			}
			if err != nil {
				line.Error = err.Error()
			} else if res != nil {
				line.Cycles = res.Cycles
				line.AccessesPerKCycle = res.AccessesPerKCycle
			}
			lines <- line
		}(job)
	}

	var done SweepLine
	done.Type = "done"
	for range jobs {
		var line SweepLine
		select {
		case line = <-lines:
		case <-req.Context().Done():
			// The client is gone: return instead of shoveling the rest of
			// the sweep into a dead connection. The buffered channel lets
			// the remaining waiter goroutines deliver their lines and exit.
			return
		}
		done.Jobs++
		if line.CacheHit != "" {
			done.CacheHits++
		}
		if line.Error != "" {
			done.Failures++
		}
		if err := enc.Encode(line); err != nil {
			return // client went away; buffered channel lets waiters exit
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	done.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	// The done line is the stream's terminator: a client treats its
	// absence as a truncated sweep, so the encode error is checked and the
	// line flushed before the handler returns and the connection can close.
	if err := enc.Encode(done); err != nil {
		return
	}
	if flusher != nil {
		flusher.Flush()
	}
}

// handleInternalRun executes one fully resolved system.Config, bypassing
// RunRequest defaulting, for configs the request fields cannot express
// (another base machine, say). It refuses trace files: the simulator would
// open whatever server-side paths the client named, and a parse error would
// echo their first line back in the response.
func (s *Server) handleInternalRun(w http.ResponseWriter, req *http.Request) {
	var ir InternalRunRequest
	if err := json.NewDecoder(req.Body).Decode(&ir); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("stashd: bad request body: %w", err))
		return
	}
	if len(ir.Config.TraceFiles) != 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("stashd: trace files are not accepted over HTTP"))
		return
	}
	if err := ir.Config.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.runOne(w, req, ir.Config)
}

// beginSweep and endSweep maintain the active-sweep gauge reported by
// /metrics, so an operator can see streams in flight (and streams stuck).
func (s *Server) beginSweep() {
	s.mu.Lock()
	s.activeSweeps++
	s.mu.Unlock()
}

func (s *Server) endSweep() {
	s.mu.Lock()
	s.activeSweeps--
	s.mu.Unlock()
}

func (s *Server) activeSweepCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.activeSweeps
}

func (s *Server) handleJob(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	job, ok := s.runner.Job(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("stashd: unknown job %q", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(job.Status())
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	m := s.runner.Metrics()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	fmt.Fprintf(w, "stashd_jobs_queued_total %d\n", m.JobsQueued)
	fmt.Fprintf(w, "stashd_jobs_started_total %d\n", m.JobsStarted)
	fmt.Fprintf(w, "stashd_jobs_completed_total %d\n", m.JobsCompleted)
	fmt.Fprintf(w, "stashd_jobs_failed_total %d\n", m.JobsFailed)
	fmt.Fprintf(w, "stashd_jobs_coalesced_total %d\n", m.JobsCoalesced)
	fmt.Fprintf(w, "stashd_cache_hits_total %d\n", m.CacheHits())
	fmt.Fprintf(w, "stashd_cache_hits_memory_total %d\n", m.CacheHitsMemory)
	fmt.Fprintf(w, "stashd_cache_hits_disk_total %d\n", m.CacheHitsDisk)
	fmt.Fprintf(w, "stashd_cache_misses_total %d\n", m.CacheMisses)
	fmt.Fprintf(w, "stashd_cache_write_errors_total %d\n", m.CacheWriteErrors)
	fmt.Fprintf(w, "stashd_inflight_workers %d\n", m.InFlight)
	fmt.Fprintf(w, "stashd_queue_depth %d\n", m.QueueDepth)
	fmt.Fprintf(w, "stashd_shed_queue_total %d\n", s.shedQueue.Load())
	fmt.Fprintf(w, "stashd_active_sweeps %d\n", s.activeSweepCount())
	fmt.Fprintf(w, "stashd_run_latency_p50_ms %.3f\n", ms(m.RunLatencyP50))
	fmt.Fprintf(w, "stashd_run_latency_p95_ms %.3f\n", ms(m.RunLatencyP95))
	fmt.Fprintf(w, "stashd_uptime_seconds %.0f\n", time.Since(s.start).Seconds())
}
