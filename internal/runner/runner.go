// Package runner is the run-service job engine: it simulates each
// system.Config on a worker of a bounded pool, with panic recovery and
// with context cancellation and per-job timeouts that stop the
// simulation, in front of a two-level result cache (in-memory LRU backed
// by JSON files on disk) keyed by a stable hash of the canonicalized
// Config. Every submission that does not coalesce becomes a job with one
// lifecycle: it is queued, then finished from the memory or disk tier or
// run by a worker. Identical configs submitted while a job is probing the
// disk or running coalesce onto it, so one job single-flights both the
// probe and the run. Every job emits structured lifecycle events and
// aggregate counters, which cmd/stashd serves over HTTP and the experiment
// harness adapts into its progress callback.
//
// All entry points (Run, RunAll, Submit, Metrics, Job) are safe for
// concurrent use.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/system"
)

// DefaultMemoryEntries bounds the in-memory result cache when
// Options.MemoryEntries is zero.
const DefaultMemoryEntries = 4096

// UnlimitedMemory disables the in-memory LRU bound; the experiment harness
// uses it so a whole sweep stays memoized.
const UnlimitedMemory = -1

// maxRetainedJobs bounds how many finished jobs stay queryable by ID.
const maxRetainedJobs = 4096

// ErrClosed is returned by submissions after Close.
var ErrClosed = errors.New("runner: closed")

// Options configure a Runner. The zero value is usable: GOMAXPROCS
// workers, no timeout, no disk cache, a default-bounded memory cache, no
// event sink.
type Options struct {
	// Workers bounds concurrent simulations; <= 0 means GOMAXPROCS.
	Workers int
	// Timeout bounds one simulation; 0 disables. A timed-out simulation
	// stops after its current event, and its job fails with an error that
	// names the timeout.
	Timeout time.Duration
	// CacheDir, when non-empty, persists results as JSON files so
	// identical configs hit the cache across process restarts. Corrupt or
	// unreadable entries degrade to misses. Several processes may share
	// one directory: writes are atomic (temp file + rename).
	CacheDir string
	// MemoryEntries bounds the in-memory LRU in front of the disk cache:
	// 0 selects DefaultMemoryEntries, UnlimitedMemory (< 0) removes the
	// bound.
	MemoryEntries int
	// Events, when non-nil, receives every lifecycle event. It is called
	// synchronously from runner goroutines and must be fast and
	// concurrency-safe.
	Events func(Event)
	// DisableCache turns the runner into a pure bounded-concurrency
	// executor: no memoization, no disk persistence, no coalescing of
	// identical submissions — every Submit simulates. The public facade
	// uses this so library callers keep run-every-call semantics while
	// sharing the pool and its panic recovery.
	DisableCache bool
}

// State is a job's lifecycle position.
type State string

// Job states.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Job is one submitted config. Its lifecycle is the same whatever answers
// it: the submitter emits the queued event, then either finishes the job
// from the memory or disk tier (its status and finished event name the
// tier in CacheHit) or queues it for a worker, which emits started and
// simulates it. Identical configs submitted before the job finishes —
// while its disk probe is in flight, while it is queued, or while it
// runs — share that job.
//
// A job's execution is deliberately detached from any single submitter's
// context: each submitter registers as a waiter, and the job's execCtx is
// cancelled only when every cancellable waiter's context has been
// cancelled. One client disconnecting therefore cannot fail a coalesced
// job another client is still waiting on.
type Job struct {
	r   *Runner
	id  string
	key string
	cfg system.Config
	//stash:ignore ctxcheck the exec context is job-scoped by design: it must outlive any one submitter and is cancelled when the last waiter leaves
	execCtx context.Context
	cancel  context.CancelFunc
	done    chan struct{}

	mu         sync.Mutex
	waiters    int             //stash:guardedby mu
	state      State           //stash:guardedby mu
	enqueuedAt time.Time       //stash:guardedby mu
	startedAt  time.Time       //stash:guardedby mu
	finishedAt time.Time       //stash:guardedby mu
	cacheHit   string          //stash:guardedby mu
	result     *system.Results //stash:guardedby mu
	err        error           //stash:guardedby mu
}

// ID returns the job's runner-unique identifier.
func (j *Job) ID() string { return j.id }

// Key returns the job's config cache key.
func (j *Job) Key() string { return j.key }

// Config returns the job's configuration.
func (j *Job) Config() system.Config { return j.cfg }

// Done returns a channel closed when the job finishes.
func (j *Job) Done() <-chan struct{} { return j.done }

// waiter is one submitter's registration on a job. Dropping it is
// idempotent: a registration is released at most once, whether by its
// context monitor or by an explicit abort (RunAll's first-failure path),
// so the job's waiter count can never be decremented twice for one
// submitter.
type waiter struct {
	j    *Job
	once sync.Once
}

// drop releases this registration; the last live waiter to leave an
// unfinished job cancels its execution. Safe on a nil or empty handle.
func (w *waiter) drop() {
	if w == nil || w.j == nil {
		return
	}
	w.once.Do(w.j.dropWaiter)
}

// register records one submitter's interest in j and returns the handle
// that releases it. The caller holds the runner lock and found j new or in
// inflight; dropWaiter cancels a job and takes it out of inflight under
// that same lock, so j's execution is never already cancelled here. A
// finished job registers trivially (its result is already published) and
// returns a no-op handle. When ctx can be cancelled, a monitor goroutine
// drops the registration on cancellation; a context that can never be
// cancelled pins the job to completion.
//
//stash:locked Runner.mu
func (j *Job) register(ctx context.Context) *waiter {
	j.mu.Lock()
	if j.state == StateDone || j.state == StateFailed {
		j.mu.Unlock()
		return &waiter{}
	}
	j.waiters++
	j.mu.Unlock()
	w := &waiter{j: j}
	if ctx.Done() == nil {
		return w
	}
	go func() {
		select {
		case <-ctx.Done():
			w.drop()
		case <-j.done:
		}
	}()
	return w
}

// dropWaiter removes one registration. The last one out of an unfinished
// job cancels its execution and removes it from inflight in the same
// critical section, so every job in inflight has a live waiter and an
// identical submission that arrives next starts a fresh job. Finished jobs
// are left untouched — their monitors can race completion (both select
// branches ready), and decrementing then would break the waiters >= 0
// invariant.
func (j *Job) dropWaiter() {
	r := j.r
	r.mu.Lock()
	defer r.mu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateDone || j.state == StateFailed {
		return
	}
	j.waiters--
	if j.waiters == 0 {
		j.cancel()
		if r.inflight[j.key] == j {
			delete(r.inflight, j.key)
		}
	}
}

// Wait blocks until the job finishes or ctx is cancelled. A cancelled wait
// abandons only this waiter; the job itself keeps running for others.
func (j *Job) Wait(ctx context.Context) (*system.Results, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-j.done:
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.result, j.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// JobStatus is a serializable snapshot of a job, served by GET /jobs/{id}.
type JobStatus struct {
	ID         string    `json:"id"`
	Key        string    `json:"key"`
	State      State     `json:"state"`
	Workload   string    `json:"workload"`
	DirKind    string    `json:"dirKind"`
	Coverage   float64   `json:"coverage"`
	Cores      int       `json:"cores"`
	CacheHit   string    `json:"cacheHit,omitempty"`
	EnqueuedAt time.Time `json:"enqueuedAt"`
	StartedAt  time.Time `json:"startedAt"`
	FinishedAt time.Time `json:"finishedAt"`
	DurationMS float64   `json:"durationMs"`
	Cycles     uint64    `json:"cycles,omitempty"`
	Error      string    `json:"error,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := JobStatus{
		ID:         j.id,
		Key:        j.key,
		State:      j.state,
		Workload:   j.cfg.WorkloadName(),
		DirKind:    j.cfg.DirKind,
		Coverage:   j.cfg.Coverage,
		Cores:      j.cfg.Cores,
		CacheHit:   j.cacheHit,
		EnqueuedAt: j.enqueuedAt,
		StartedAt:  j.startedAt,
		FinishedAt: j.finishedAt,
	}
	if !j.startedAt.IsZero() && !j.finishedAt.IsZero() {
		s.DurationMS = float64(j.finishedAt.Sub(j.startedAt)) / float64(time.Millisecond)
	}
	if j.result != nil {
		s.Cycles = j.result.Cycles
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	return s
}

// Runner executes simulation jobs. Create one with New and release it with
// Close.
//
// Lock discipline: Runner.mu orders before Job.mu — submit registers waiters
// (which lock the job) while holding the runner lock, and dropWaiter takes
// both in that order, so the reverse nesting would deadlock. finish and
// process lock them strictly in sequence, never nested the other way.
//
//stash:lockorder Runner.mu < Job.mu
type Runner struct {
	opts Options
	// execute is the simulation backend; tests substitute it.
	execute func(context.Context, system.Config) (*system.Results, error)

	mem  *memCache
	disk resultStore
	met  counters

	mu   sync.Mutex
	cond *sync.Cond
	// pending is the FIFO work queue; inflight maps key to its unfinished
	// job, from creation until it finishes or its last waiter leaves (it
	// stays empty under DisableCache); jobs maps id to job (bounded
	// retention); finished holds finished job ids, oldest first.
	pending  []*Job          //stash:guardedby mu
	inflight map[string]*Job //stash:guardedby mu
	jobs     map[string]*Job //stash:guardedby mu
	finished []string        //stash:guardedby mu
	seq      int             //stash:guardedby mu
	closed   bool            //stash:guardedby mu
	wg       sync.WaitGroup
}

// New starts a runner and its worker pool.
func New(opts Options) *Runner {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	memEntries := opts.MemoryEntries
	if memEntries == 0 {
		memEntries = DefaultMemoryEntries
	}
	if memEntries < 0 {
		memEntries = 0 // memCache treats non-positive as unlimited
	}
	r := &Runner{
		opts:     opts,
		execute:  system.RunContext,
		mem:      newMemCache(memEntries),
		inflight: make(map[string]*Job),
		jobs:     make(map[string]*Job),
	}
	if opts.CacheDir != "" {
		r.disk = newDiskCache(opts.CacheDir)
	}
	r.cond = sync.NewCond(&r.mu)
	r.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go r.worker()
	}
	return r
}

// Run submits cfg and waits for its result. Identical concurrent and past
// runs are shared through the job table and caches.
func (r *Runner) Run(ctx context.Context, cfg system.Config) (*system.Results, error) {
	j, err := r.Submit(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return j.Wait(ctx)
}

// RunAll executes a batch of independent configurations (deduplicated by
// cache key), waits for all of them and returns their results in input
// order; identical configs share one result. The first failure
// synchronously abandons RunAll's registration on every job — cancelling
// each job that has no other waiter before another queued job can start —
// and RunAll returns that first error.
func (r *Runner) RunAll(ctx context.Context, cfgs []system.Config) ([]*system.Results, error) {
	if len(cfgs) == 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// slot[i] indexes cfgs[i]'s job in jobs.
	slot := make([]int, len(cfgs))
	index := make(map[string]int, len(cfgs))
	var jobs []*Job
	var waiters []*waiter
	abort := func() {
		for _, w := range waiters {
			w.drop()
		}
	}
	for i, cfg := range cfgs {
		j, w, err := r.submit(ctx, cfg)
		if err != nil {
			abort() // synchronously cancel the already-queued jobs
			return nil, err
		}
		if k, ok := index[j.key]; ok {
			w.drop() // duplicate registration on a job already held above
			slot[i] = k
			continue
		}
		index[j.key] = len(jobs)
		slot[i] = len(jobs)
		jobs = append(jobs, j)
		waiters = append(waiters, w)
	}

	// Each waiter goroutine writes only its own results[k], before its
	// send; receiving every send orders those writes before the reads below.
	results := make([]*system.Results, len(jobs))
	errc := make(chan error, len(jobs))
	for k, j := range jobs {
		go func(k int, j *Job) {
			var err error
			results[k], err = j.Wait(ctx)
			errc <- err
		}(k, j)
	}
	var firstErr error
	for range jobs {
		//stash:blocking every Wait honors ctx, which the first failure cancels, so each waiter goroutine delivers exactly one result
		if err := <-errc; err != nil && firstErr == nil {
			firstErr = err
			cancel() // fail the remaining Waits promptly
			abort()  // synchronously cancel every job not shared with others
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	out := make([]*system.Results, len(cfgs))
	for i, k := range slot {
		out[i] = results[k]
	}
	return out, nil
}

// Submit returns cfg's job without waiting for a worker. A cache hit
// returns a finished job (a disk hit after the read, which Submit does
// itself); a submission that finds an identical job probing the disk,
// queued or running returns that job.
func (r *Runner) Submit(ctx context.Context, cfg system.Config) (*Job, error) {
	j, _, err := r.submit(ctx, cfg)
	return j, err
}

// submit is Submit plus the waiter handle for the registration it made,
// letting RunAll abandon its jobs synchronously on first failure.
//
// A submission that does not coalesce onto an unfinished job creates one
// under the lock and, when caching, publishes it in inflight. Unlocked, it
// emits the job's queued event — before any worker can see the job — and
// then finishes the job from the memory or disk tier or queues it for a
// worker. The disk read is file IO and stays outside the lock, but the job
// is already in inflight, so identical submissions that race the probe
// coalesce onto it instead of probing, and perhaps simulating, again.
func (r *Runner) submit(ctx context.Context, cfg system.Config) (*Job, *waiter, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	key, err := Key(cfg)
	if err != nil {
		return nil, nil, err
	}
	caching := !r.opts.DisableCache

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, nil, ErrClosed
	}
	if j, ok := r.inflight[key]; ok {
		w := j.register(ctx)
		r.met.coalesced.Add(1)
		r.mu.Unlock()
		return j, w, nil
	}
	j := r.newJobLocked(key, cfg)
	w := j.register(ctx)
	var res *system.Results
	hit := ""
	if caching {
		r.inflight[key] = j
		if cached, ok := r.mem.get(key); ok {
			res, hit = cached, HitMemory
			r.met.hitsMemory.Add(1)
		}
	}
	r.mu.Unlock()
	r.emit(Event{Kind: EventQueued, JobID: j.id, Key: key, Config: cfg})

	if caching && hit == "" && r.disk != nil {
		if stored, ok := r.disk.get(key); ok {
			res, hit = stored, HitDisk
			r.met.hitsDisk.Add(1)
			r.mu.Lock()
			r.mem.put(key, stored)
			r.mu.Unlock()
		}
	}
	if hit != "" {
		// The job gets a deep copy: the cache keeps sole ownership of its
		// entry, so a caller mutating what it was handed cannot corrupt
		// every future hit on the same key.
		r.finish(j, res.Clone(), hit, nil, 0)
		return j, w, nil
	}

	r.mu.Lock()
	if r.closed {
		// Close came during the probe; it waits only for queued jobs.
		r.mu.Unlock()
		r.finish(j, nil, "", ErrClosed, 0)
		return j, w, nil
	}
	r.pending = append(r.pending, j)
	r.met.misses.Add(1)
	r.cond.Signal()
	r.mu.Unlock()
	return j, w, nil
}

// Job returns a job by ID while it is queued, running, or among the most
// recently finished.
func (r *Runner) Job(id string) (*Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

// QueueDepth reports how many jobs are queued but not yet picked up by a
// worker — the signal admission control (queue shedding) keys off.
func (r *Runner) QueueDepth() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pending)
}

// Close stops accepting submissions and blocks until every queued and
// running job has drained, so no simulation outlives it. Queued jobs whose
// context is already cancelled finish immediately as failed; running
// simulations complete or stop at their timeout. A job still probing the
// disk cache does not hold Close up: if the probe misses, the job fails
// with ErrClosed.
func (r *Runner) Close() {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		r.cond.Broadcast()
	}
	r.mu.Unlock()
	r.wg.Wait() //stash:blocking Close drains by contract: setting closed wakes every worker, queued jobs finish or fail fast
}

// newJobLocked constructs a queued job and publishes it in the job table.
// Every field a Job/Status lookup reads is set before insertion, since
// setting one afterwards without j.mu would race them.
//
//stash:locked mu
func (r *Runner) newJobLocked(key string, cfg system.Config) *Job {
	r.seq++
	j := &Job{
		r:          r,
		id:         fmt.Sprintf("job-%06d", r.seq),
		key:        key,
		cfg:        cfg,
		done:       make(chan struct{}),
		enqueuedAt: time.Now(),
		state:      StateQueued,
	}
	j.execCtx, j.cancel = context.WithCancel(context.Background())
	r.jobs[j.id] = j
	r.met.queued.Add(1)
	return j
}

// retainLocked records a finished job and evicts the oldest beyond the
// retention bound so the job table cannot grow without limit.
//
//stash:locked mu
func (r *Runner) retainLocked(j *Job) {
	r.finished = append(r.finished, j.id)
	for len(r.finished) > maxRetainedJobs {
		delete(r.jobs, r.finished[0])
		r.finished = r.finished[1:]
	}
}

func (r *Runner) worker() {
	defer r.wg.Done()
	for {
		r.mu.Lock()
		for len(r.pending) == 0 && !r.closed {
			r.cond.Wait() //stash:blocking woken by Signal on every submit and Broadcast on Close; the pool owns this goroutine
		}
		if len(r.pending) == 0 {
			r.mu.Unlock()
			return // closed and drained
		}
		j := r.pending[0]
		r.pending = r.pending[1:]
		r.mu.Unlock()
		r.process(j)
	}
}

// process runs one queued job to completion (or failure).
func (r *Runner) process(j *Job) {
	if err := j.execCtx.Err(); err != nil {
		r.finish(j, nil, "", fmt.Errorf("runner: job %s cancelled before start: %w", j.id, err), 0)
		return
	}
	start := time.Now()
	j.mu.Lock()
	j.state = StateRunning
	j.startedAt = start
	j.mu.Unlock()
	r.met.started.Add(1)
	r.met.inFlight.Add(1)
	defer r.met.inFlight.Add(-1)
	r.emit(Event{Kind: EventStarted, JobID: j.id, Key: j.key, Config: j.cfg})

	res, err := r.simulate(j)
	dur := time.Since(start)

	if err == nil {
		r.met.recordLatency(dur)
		if !r.opts.DisableCache {
			if r.disk != nil {
				if derr := r.disk.put(j.key, j.cfg, res); derr != nil {
					r.met.diskErrors.Add(1)
				}
			}
			r.mu.Lock()
			r.mem.put(j.key, res.Clone()) // the cache owns a private copy
			r.mu.Unlock()
		}
	}
	r.finish(j, res, "", err, dur)
}

// simulate runs j's simulation on the calling worker under the job's exec
// context, bounded by the job timeout: cancelling the one or reaching the
// other stops the engine. A panic is recovered and reported as an error
// that names the config.
func (r *Runner) simulate(j *Job) (res *system.Results, err error) {
	ctx := j.execCtx
	if r.opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.opts.Timeout)
		defer cancel()
	}
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("runner: %s/%s cov=%.3g: simulation panicked: %v",
				j.cfg.DirKind, j.cfg.WorkloadName(), j.cfg.Coverage, p)
		}
	}()
	res, err = r.execute(ctx, j.cfg)
	if err != nil && j.execCtx.Err() == nil && ctx.Err() != nil {
		err = fmt.Errorf("runner: job %s exceeded timeout %v: %w", j.id, r.opts.Timeout, err)
	}
	return res, err
}

// finish records the job's outcome — hit names the cache tier that
// answered, empty for a run — emits the terminal event and retires the job
// from the inflight table before it publishes the outcome to waiters. A
// waiter that returns has therefore seen every event of its job, and a
// repeat submission it makes next finds the cached result instead of
// coalescing onto the finished job.
func (r *Runner) finish(j *Job, res *system.Results, hit string, err error, dur time.Duration) {
	j.mu.Lock()
	j.finishedAt = time.Now()
	j.cacheHit = hit
	j.result = res
	j.err = err
	if err != nil {
		j.state = StateFailed
	} else {
		j.state = StateDone
	}
	j.mu.Unlock()

	if err != nil {
		r.met.failed.Add(1)
		r.emit(Event{Kind: EventFailed, JobID: j.id, Key: j.key, Config: j.cfg, Duration: dur, Err: err})
	} else {
		r.met.completed.Add(1)
		r.emit(Event{Kind: EventFinished, JobID: j.id, Key: j.key, Config: j.cfg, CacheHit: hit, Duration: dur, Result: res})
	}

	r.mu.Lock()
	if r.inflight[j.key] == j {
		delete(r.inflight, j.key)
	}
	r.retainLocked(j)
	r.mu.Unlock()

	close(j.done)
	j.cancel() // release the exec context
}
