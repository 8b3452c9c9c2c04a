// Package runner is the run-service job engine: it simulates each
// system.Config on a worker of a bounded pool, with panic recovery and
// with context cancellation and per-job timeouts that stop the
// simulation, in front of a two-level result cache (in-memory LRU backed
// by JSON files on disk) keyed by a stable hash of the canonicalized
// Config. Identical configs submitted concurrently coalesce onto one
// execution. Every job emits structured lifecycle events and aggregate
// counters, which cmd/stashd serves over HTTP and the experiment harness
// adapts into its progress callback.
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

// Job is one submitted simulation. Identical configs submitted while a job
// is queued or running share that job.
//
// A job's execution is deliberately detached from any single submitter's
// context: each submitter registers as a waiter, and the job's execCtx is
// cancelled only when every cancellable waiter's context has been
// cancelled. One client disconnecting therefore cannot fail a coalesced
// job another client is still waiting on.
type Job struct {
	id  string
	key string
	cfg system.Config
	//stash:ignore ctxcheck the exec context is job-scoped by design: it must outlive any one submitter and is cancelled when the last waiter leaves
	execCtx context.Context
	cancel  context.CancelFunc
	done    chan struct{}
	queued  sync.Once // emits the queued event; see Runner.announce

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
// that releases it. A nil handle means j is dead — its execution context
// was already cancelled (the last prior waiter left) while the job still
// sat in the queue — and the caller must not coalesce onto it. A finished
// job registers trivially (its result is already published) and returns a
// no-op handle. When ctx can be cancelled, a monitor goroutine drops the
// registration on cancellation; a context that can never be cancelled
// pins the job to completion. The liveness check and the waiter increment
// happen under j.mu, the same lock dropWaiter cancels under, so a
// registration can never land on a job in the instant its execution is
// being cancelled.
func (j *Job) register(ctx context.Context) *waiter {
	j.mu.Lock()
	if j.state == StateDone || j.state == StateFailed {
		j.mu.Unlock()
		return &waiter{}
	}
	if j.execCtx != nil && j.execCtx.Err() != nil {
		j.mu.Unlock()
		return nil
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

// dropWaiter removes one registration; the last one out cancels the
// execution. Finished jobs are left untouched — their monitors can race
// completion (both select branches ready), and decrementing then would
// break the waiters >= 0 invariant. Cancelling under j.mu makes the
// decision atomic with register's liveness check.
func (j *Job) dropWaiter() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateDone || j.state == StateFailed {
		return
	}
	if j.waiters > 0 {
		j.waiters--
	}
	if j.waiters == 0 && j.cancel != nil {
		j.cancel()
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
// (which lock the job) while holding the runner lock, so the reverse nesting
// would deadlock. finish and process lock them strictly in sequence, never
// nested the other way.
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
	// pending is the FIFO work queue; inflight maps key to its queued or
	// running job; jobs maps id to job (bounded retention); finished holds
	// finished job ids, oldest first; probes maps key to the in-flight
	// disk-cache probe for it (single-flight: one prober per key).
	pending  []*Job                //stash:guardedby mu
	inflight map[string]*Job       //stash:guardedby mu
	jobs     map[string]*Job       //stash:guardedby mu
	finished []string              //stash:guardedby mu
	probes   map[string]*diskProbe //stash:guardedby mu
	seq      int                   //stash:guardedby mu
	closed   bool                  //stash:guardedby mu
	wg       sync.WaitGroup
}

// diskProbe single-flights the unlocked disk-cache probe for one key: the
// first submitter of a key becomes the prober, identical submissions that
// race it park on done instead of probing (and possibly enqueueing) on
// their own. done is closed after the prober has published its outcome —
// a cache-completed job or an enqueued inflight job — under the runner
// lock, so woken waiters always find one of the two.
type diskProbe struct {
	done chan struct{}
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
		probes:   make(map[string]*diskProbe),
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
// cache key) and waits for all of them. The first failure synchronously
// abandons RunAll's registration on every job — cancelling each job that
// has no other waiter before another queued job can start — and RunAll
// returns that first error.
func (r *Runner) RunAll(ctx context.Context, cfgs []system.Config) error {
	if len(cfgs) == 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	seen := make(map[string]bool, len(cfgs))
	var jobs []*Job
	var waiters []*waiter
	abort := func() {
		for _, w := range waiters {
			w.drop()
		}
	}
	for _, cfg := range cfgs {
		j, w, err := r.submit(ctx, cfg)
		if err != nil {
			abort() // synchronously cancel the already-queued jobs
			return err
		}
		if seen[j.key] {
			w.drop() // duplicate registration on a job already held above
			continue
		}
		seen[j.key] = true
		jobs = append(jobs, j)
		waiters = append(waiters, w)
	}

	errc := make(chan error, len(jobs))
	for _, j := range jobs {
		go func(j *Job) {
			_, err := j.Wait(ctx)
			errc <- err
		}(j)
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
	return firstErr
}

// Submit enqueues cfg and returns its job without waiting. Cache hits
// return an already-finished job; an identical queued or running config
// returns that existing job.
func (r *Runner) Submit(ctx context.Context, cfg system.Config) (*Job, error) {
	j, _, err := r.submit(ctx, cfg)
	return j, err
}

// submit is Submit plus the waiter handle for the registration it made,
// letting RunAll abandon its jobs synchronously on first failure.
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

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, nil, ErrClosed
	}
	if !r.opts.DisableCache {
		if j, ok := r.inflight[key]; ok {
			if w := j.register(ctx); w != nil {
				r.met.coalesced.Add(1)
				r.mu.Unlock()
				return j, w, nil
			}
			// Dead entry: its execution was cancelled after the last
			// waiter left, but a worker has not retired it yet. Fall
			// through and build a fresh job; overwriting r.inflight[key]
			// below is safe because finish only deletes the entry while
			// it still points at the dead job.
		}
		if res, ok := r.mem.get(key); ok {
			j := r.completeFromCacheLocked(key, cfg, res, HitMemory)
			r.mu.Unlock()
			r.emitCached(j)
			return j, &waiter{}, nil
		}
	}

	if r.disk == nil || r.opts.DisableCache {
		// No persistent tier to probe: enqueue under the same lock that
		// ruled out coalescing, leaving no window for a duplicate.
		j, w := r.enqueueLocked(ctx, key, cfg)
		r.mu.Unlock()
		r.announce(j)
		return j, w, nil
	}

	// The disk probe is file IO and happens outside the lock — but it is
	// single-flighted per key. The first submitter becomes the prober;
	// identical submissions racing it park on the probe instead of
	// slipping past the unlocked window and enqueueing a duplicate
	// multi-second simulation (concurrent identical sweeps do exactly
	// this).
	for {
		p, ok := r.probes[key]
		if !ok {
			break // no probe in flight: become the prober
		}
		r.mu.Unlock()
		select {
		case <-p.done:
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return nil, nil, ErrClosed
		}
		// The prober published its outcome before closing done: an
		// inflight job to coalesce onto, or a cached result now in memory.
		if j, ok := r.inflight[key]; ok {
			if w := j.register(ctx); w != nil {
				r.met.coalesced.Add(1)
				r.mu.Unlock()
				return j, w, nil
			}
		}
		if res, ok := r.mem.get(key); ok {
			j := r.completeFromCacheLocked(key, cfg, res, HitMemory)
			r.mu.Unlock()
			r.emitCached(j)
			return j, &waiter{}, nil
		}
		// Neither survived (the job finished and its entry was evicted, or
		// a fresh probe started): loop, and probe ourselves if the slot is
		// free.
	}
	p := &diskProbe{done: make(chan struct{})}
	r.probes[key] = p
	r.mu.Unlock()

	res, hit := r.disk.get(key)

	r.mu.Lock()
	delete(r.probes, key)
	if r.closed {
		r.mu.Unlock()
		close(p.done)
		return nil, nil, ErrClosed
	}
	if hit {
		r.mem.put(key, res)
		j := r.completeFromCacheLocked(key, cfg, res, HitDisk)
		r.mu.Unlock()
		close(p.done)
		r.emitCached(j)
		return j, &waiter{}, nil
	}
	j, w := r.enqueueLocked(ctx, key, cfg)
	r.mu.Unlock()
	close(p.done)
	r.announce(j)
	return j, w, nil
}

// enqueueLocked constructs, registers and queues a fresh job for key.
//
//stash:locked mu
func (r *Runner) enqueueLocked(ctx context.Context, key string, cfg system.Config) (*Job, *waiter) {
	j := r.newJobLocked(key, cfg, StateQueued)
	j.execCtx, j.cancel = context.WithCancel(context.Background())
	// Register before the job is published: no other goroutine can see j
	// yet, so the fresh execCtx cannot be cancelled and w is never nil.
	w := j.register(ctx)
	if !r.opts.DisableCache {
		r.inflight[key] = j
	}
	r.pending = append(r.pending, j)
	r.met.queued.Add(1)
	r.met.misses.Add(1)
	r.cond.Signal()
	return j, w
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
// simulations complete or stop at their timeout.
func (r *Runner) Close() {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		r.cond.Broadcast()
	}
	r.mu.Unlock()
	r.wg.Wait() //stash:blocking Close drains by contract: setting closed wakes every worker, queued jobs finish or fail fast
}

// newJobLocked constructs a job and publishes it in the job table. The
// initial state is part of construction: the table makes the job visible to
// Job/Status lookups, so mutating j.state after insertion would race them
// (a finding lockcheck surfaced once the fields were annotated).
//
//stash:locked mu
func (r *Runner) newJobLocked(key string, cfg system.Config, state State) *Job {
	r.seq++
	j := &Job{
		id:         fmt.Sprintf("job-%06d", r.seq),
		key:        key,
		cfg:        cfg,
		done:       make(chan struct{}),
		enqueuedAt: time.Now(),
		state:      state,
	}
	r.jobs[j.id] = j
	return j
}

// completeFromCacheLocked creates a job that is already done. The job gets
// a deep copy of the cached result: the cache retains sole ownership of
// its entry, so a caller mutating what it was handed cannot corrupt every
// future hit on the same key.
//
//stash:locked mu
func (r *Runner) completeFromCacheLocked(key string, cfg system.Config, res *system.Results, hit string) *Job {
	j := r.newJobLocked(key, cfg, StateDone)
	j.mu.Lock()
	j.cacheHit = hit
	j.result = res.Clone()
	j.finishedAt = j.enqueuedAt
	j.mu.Unlock()
	close(j.done)
	r.met.queued.Add(1)
	r.met.completed.Add(1)
	if hit == HitMemory {
		r.met.hitsMemory.Add(1)
	} else {
		r.met.hitsDisk.Add(1)
	}
	r.retainLocked(j)
	return j
}

// emitCached announces a cache-completed job. It runs after r.mu is
// released, so the job is visible to concurrent Status readers; snapshot
// the guarded fields under j.mu instead of reading them bare.
func (r *Runner) emitCached(j *Job) {
	j.mu.Lock()
	hit, res := j.cacheHit, j.result
	j.mu.Unlock()
	r.emit(Event{Kind: EventQueued, JobID: j.id, Key: j.key, Config: j.cfg, CacheHit: hit})
	r.emit(Event{Kind: EventFinished, JobID: j.id, Key: j.key, Config: j.cfg, CacheHit: hit, Result: res})
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

// announce emits j's queued event exactly once. The submitter calls it
// after releasing the runner lock, and the worker that picks j up calls it
// before emitting anything else, so the queued event comes first even when
// the worker wins the race.
func (r *Runner) announce(j *Job) {
	j.queued.Do(func() { r.emit(Event{Kind: EventQueued, JobID: j.id, Key: j.key, Config: j.cfg}) })
}

// process runs one queued job to completion (or failure).
func (r *Runner) process(j *Job) {
	r.announce(j)
	if err := j.execCtx.Err(); err != nil {
		r.finish(j, nil, fmt.Errorf("runner: job %s cancelled before start: %w", j.id, err), 0)
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
	r.finish(j, res, err, dur)
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

// finish records the job's outcome, emits the terminal event and retires
// the job from the inflight table before it publishes the outcome to
// waiters. A waiter that returns has therefore seen every event of its job,
// and a repeat submission it makes next finds the cached result instead of
// coalescing onto the finished job.
func (r *Runner) finish(j *Job, res *system.Results, err error, dur time.Duration) {
	j.mu.Lock()
	j.finishedAt = time.Now()
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
		r.emit(Event{Kind: EventFinished, JobID: j.id, Key: j.key, Config: j.cfg, Duration: dur, Result: res})
	}

	r.mu.Lock()
	if r.inflight[j.key] == j {
		delete(r.inflight, j.key)
	}
	r.retainLocked(j)
	r.mu.Unlock()

	close(j.done)
	if j.cancel != nil {
		j.cancel() // release the exec context and its waiter monitors
	}
}
