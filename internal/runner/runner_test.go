package runner

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/system"
	"repro/internal/testutil/leakcheck"
)

// tinyConfig is a real simulation small enough to run in a few
// milliseconds; distinct seeds give distinct cache keys.
func tinyConfig(seed int64) system.Config {
	cfg := system.QuickConfig("blackscholes")
	cfg.Cores = 4
	cfg.AccessesPerCore = 1500
	cfg.WorkloadScale = 0.25
	cfg.Seed = seed
	return cfg
}

// fakeResults fabricates a result without simulating; fakes encode the
// seed in Cycles so tests can tell results apart.
func fakeResults(cfg system.Config) *system.Results {
	return &system.Results{Config: cfg, Cycles: uint64(cfg.Seed)}
}

func TestKeyStableAndSensitive(t *testing.T) {
	leakcheck.Check(t)
	a, err := Key(tinyConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Key(tinyConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same config, different keys: %s vs %s", a, b)
	}
	c, _ := Key(tinyConfig(2))
	if a == c {
		t.Fatal("different seeds produced the same key")
	}
	cfg := tinyConfig(1)
	cfg.Coverage = 0.125
	d, _ := Key(cfg)
	if a == d {
		t.Fatal("different coverage produced the same key")
	}
}

// TestKeyChangesWithModelVersion: the same config keys differently under
// another model version, so a cache shared across a model change misses
// instead of serving the earlier model's results.
func TestKeyChangesWithModelVersion(t *testing.T) {
	leakcheck.Check(t)
	cfg := tinyConfig(1)
	cur, err := Key(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same, err := keyFor(system.ModelVersion, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cur != same {
		t.Fatalf("Key = %s, keyFor(ModelVersion) = %s: Key must use the current model version", cur, same)
	}
	next, err := keyFor(system.ModelVersion+"-next", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if next == cur {
		t.Fatal("a different model version produced the same key")
	}
}

func TestRunRealSimulationAndMemoryHit(t *testing.T) {
	leakcheck.Check(t)
	r := New(Options{Workers: 1})
	defer r.Close()
	res, err := r.Run(context.Background(), tinyConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("real simulation reported zero cycles")
	}
	again, err := r.Run(context.Background(), tinyConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if again.Cycles != res.Cycles || again.EventsRun != res.EventsRun {
		t.Fatalf("memoized result diverged: %d cycles vs %d", again.Cycles, res.Cycles)
	}
	if again == res {
		t.Fatal("memory hit returned an aliased pointer instead of an isolated copy")
	}
	m := r.Metrics()
	if m.CacheHitsMemory != 1 || m.CacheMisses != 1 {
		t.Fatalf("metrics = %+v, want 1 memory hit and 1 miss", m)
	}
	if m.RunLatencyP50 <= 0 || m.RunLatencyP95 < m.RunLatencyP50 {
		t.Fatalf("implausible latency percentiles: p50=%v p95=%v", m.RunLatencyP50, m.RunLatencyP95)
	}
}

func TestDiskCachePersistsAcrossRunners(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	var executed atomic.Int64

	r1 := New(Options{Workers: 1, CacheDir: dir})
	r1.execute = func(_ context.Context, cfg system.Config) (*system.Results, error) {
		executed.Add(1)
		return fakeResults(cfg), nil
	}
	res, err := r1.Run(context.Background(), tinyConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	r1.Close()
	if executed.Load() != 1 {
		t.Fatalf("executed %d times, want 1", executed.Load())
	}

	// A fresh runner (fresh memory cache, simulating a process restart)
	// must serve the same config from disk without executing.
	r2 := New(Options{Workers: 1, CacheDir: dir})
	defer r2.Close()
	r2.execute = func(_ context.Context, cfg system.Config) (*system.Results, error) {
		t.Error("disk-cached config was re-executed")
		return fakeResults(cfg), nil
	}
	j, err := r2.Submit(context.Background(), tinyConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cycles != res.Cycles {
		t.Fatalf("disk result cycles = %d, want %d", res2.Cycles, res.Cycles)
	}
	if hit := j.Status().CacheHit; hit != HitDisk {
		t.Fatalf("restarted runner reported provenance %q, want %q", hit, HitDisk)
	}
	if m := r2.Metrics(); m.CacheHitsDisk != 1 {
		t.Fatalf("disk hits = %d, want 1", m.CacheHitsDisk)
	}
}

func TestCorruptedCacheFileIsMiss(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	cfg := tinyConfig(3)
	key, err := Key(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte("{not json!"), 0o644); err != nil {
		t.Fatal(err)
	}

	var executed atomic.Int64
	r := New(Options{Workers: 1, CacheDir: dir})
	r.execute = func(_ context.Context, c system.Config) (*system.Results, error) {
		executed.Add(1)
		return fakeResults(c), nil
	}
	if _, err := r.Run(context.Background(), cfg); err != nil {
		t.Fatalf("corrupted cache entry crashed the run: %v", err)
	}
	m := r.Metrics()
	if executed.Load() != 1 || m.CacheMisses != 1 || m.CacheHitsDisk != 0 {
		t.Fatalf("corrupt entry not treated as a miss: executed=%d metrics=%+v", executed.Load(), m)
	}
	r.Close()

	// The successful run must have overwritten the corrupt file: a fresh
	// runner now hits disk.
	r2 := New(Options{Workers: 1, CacheDir: dir})
	defer r2.Close()
	r2.execute = func(_ context.Context, c system.Config) (*system.Results, error) {
		t.Error("repaired cache entry was re-executed")
		return fakeResults(c), nil
	}
	if _, err := r2.Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if m := r2.Metrics(); m.CacheHitsDisk != 1 {
		t.Fatalf("repaired entry not hit: %+v", m)
	}
}

// TestRunAllResultsInInputOrder: RunAll answers every config in the order
// given, duplicates included, and simulates each distinct config once.
func TestRunAllResultsInInputOrder(t *testing.T) {
	leakcheck.Check(t)
	var executed atomic.Int64
	r := New(Options{Workers: 2})
	defer r.Close()
	r.execute = func(_ context.Context, cfg system.Config) (*system.Results, error) {
		executed.Add(1)
		return fakeResults(cfg), nil
	}
	seeds := []int64{3, 1, 2, 1, 3}
	cfgs := make([]system.Config, len(seeds))
	for i, s := range seeds {
		cfgs[i] = tinyConfig(s)
	}
	res, err := r.RunAll(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(seeds) {
		t.Fatalf("RunAll returned %d results for %d configs", len(res), len(seeds))
	}
	for i, s := range seeds {
		if res[i].Cycles != uint64(s) {
			t.Errorf("result %d has seed %d, want %d", i, res[i].Cycles, s)
		}
	}
	if n := executed.Load(); n != 3 {
		t.Errorf("%d simulations for 3 distinct configs", n)
	}
}

func TestCancelledContextStopsSweepEarly(t *testing.T) {
	leakcheck.Check(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var executed atomic.Int64
	r := New(Options{Workers: 1})
	defer r.Close()
	r.execute = func(_ context.Context, cfg system.Config) (*system.Results, error) {
		if executed.Add(1) == 2 {
			cancel() // cancel mid-sweep, while job 2 is in flight
		}
		time.Sleep(5 * time.Millisecond)
		return fakeResults(cfg), nil
	}

	const total = 12
	cfgs := make([]system.Config, total)
	for i := range cfgs {
		cfgs[i] = tinyConfig(int64(i + 1))
	}
	_, err := r.RunAll(ctx, cfgs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunAll error = %v, want context.Canceled", err)
	}
	if n := executed.Load(); n >= total {
		t.Fatalf("cancellation did not stop the sweep: %d/%d configs simulated", n, total)
	}
}

func TestRunAllStopsOnFirstError(t *testing.T) {
	leakcheck.Check(t)
	var executed atomic.Int64
	r := New(Options{Workers: 1})
	defer r.Close()
	boom := errors.New("deterministic simulation failure")
	r.execute = func(_ context.Context, cfg system.Config) (*system.Results, error) {
		if cfg.Seed == 1 {
			return nil, boom
		}
		executed.Add(1)
		time.Sleep(5 * time.Millisecond)
		return fakeResults(cfg), nil
	}

	const total = 10
	cfgs := make([]system.Config, total)
	for i := range cfgs {
		cfgs[i] = tinyConfig(int64(i + 1))
	}
	_, err := r.RunAll(context.Background(), cfgs)
	if !errors.Is(err, boom) {
		t.Fatalf("RunAll error = %v, want the simulation failure", err)
	}
	// The failing job is first in a one-worker queue; at most the next
	// job may have slipped in before the cancellation landed.
	if n := executed.Load(); n > 1 {
		t.Fatalf("%d healthy configs simulated after the failure, want <= 1", n)
	}
}

// TestFailureIsReportedOnce: simulation is deterministic, so a failing
// config — whether its simulation panics or returns an error — executes
// once and fails once, and a panic's error names the config.
func TestFailureIsReportedOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		fail func() error
	}{
		{"panic", func() error { panic("simulated protocol bug") }},
		{"error", func() error { return errors.New("deadlock at cycle 100") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leakcheck.Check(t)
			var calls, failures atomic.Int64
			r := New(Options{Workers: 1, Events: func(e Event) {
				if e.Kind == EventFailed {
					failures.Add(1)
				}
			}})
			defer r.Close()
			r.execute = func(_ context.Context, cfg system.Config) (*system.Results, error) {
				calls.Add(1)
				return nil, tc.fail()
			}
			cfg := tinyConfig(1)
			cfg.Coverage = 0.125
			_, err := r.Run(context.Background(), cfg)
			if err == nil {
				t.Fatal("a failing simulation reported success")
			}
			if tc.name == "panic" {
				for _, want := range []string{"panic", cfg.WorkloadName(), cfg.DirKind, "cov=0.125"} {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("panic error %q does not name %q", err, want)
					}
				}
			}
			if n := calls.Load(); n != 1 {
				t.Errorf("failing simulation executed %d times, want 1", n)
			}
			if n, m := failures.Load(), r.Metrics().JobsFailed; n != 1 || m != 1 {
				t.Errorf("failure reported %d times (%d in metrics), want 1", n, m)
			}
		})
	}
}

// longConfig is a real simulation that takes seconds to finish, so a test
// that sees it end within a second has seen it stopped.
func longConfig(seed int64) system.Config {
	cfg := system.QuickConfig("canneal")
	cfg.Cores = 16
	cfg.Coverage = 0.125
	cfg.AccessesPerCore = 200_000
	cfg.Seed = seed
	return cfg
}

// runContextFrame is the function a running simulation has on its stack.
const runContextFrame = "repro/internal/system.RunContext"

// TestTimeoutStopsSimulation: a timed-out job's simulation stops, so the
// one worker is free for the next job and no simulation outlives its job.
func TestTimeoutStopsSimulation(t *testing.T) {
	leakcheck.Check(t)
	r := New(Options{Workers: 1, Timeout: 20 * time.Millisecond})
	defer r.Close()
	for seed := int64(1); seed <= 3; seed++ {
		start := time.Now()
		_, err := r.Run(context.Background(), longConfig(seed))
		if err == nil || !strings.Contains(err.Error(), "timeout") || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("job %d: error = %v, want a timeout", seed, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("job %d took %v to time out", seed, d)
		}
		if n := leakcheck.Running(runContextFrame); n != 0 {
			t.Fatalf("after job %d timed out, %d simulations are still running", seed, n)
		}
	}
}

// TestCancelStopsRunningSimulation: when the only submitter of a running
// job leaves, the job's simulation stops and the job fails with the
// cancellation.
func TestCancelStopsRunningSimulation(t *testing.T) {
	leakcheck.Check(t)
	r := New(Options{Workers: 1})
	defer r.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j, err := r.Submit(ctx, longConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for r.Metrics().InFlight != 1 {
		select {
		case <-j.Done():
			t.Fatalf("the job ended before its simulation started: %v", j.Status().Error)
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	select {
	case <-j.Done():
	case <-time.After(time.Second):
		t.Fatal("the simulation kept running after its only submitter left")
	}
	if _, err := j.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("job error = %v, want context.Canceled", err)
	}
	if n := leakcheck.Running(runContextFrame); n != 0 {
		t.Fatalf("%d simulations still running after the job failed", n)
	}
}

func TestConcurrentIdenticalSubmissionsCoalesce(t *testing.T) {
	leakcheck.Check(t)
	var executed atomic.Int64
	r := New(Options{Workers: 4})
	defer r.Close()
	r.execute = func(_ context.Context, cfg system.Config) (*system.Results, error) {
		executed.Add(1)
		time.Sleep(20 * time.Millisecond)
		return fakeResults(cfg), nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.Run(context.Background(), tinyConfig(1)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if executed.Load() != 1 {
		t.Fatalf("identical config executed %d times, want 1", executed.Load())
	}
	if m := r.Metrics(); m.JobsCoalesced == 0 {
		t.Fatalf("coalesced counter = 0, want > 0: %+v", m)
	}
}

// TestCoalescedJobSurvivesFirstSubmitterCancel is the regression test for
// the coalescing cancellation bug: the job used to capture the *first*
// submitter's context, so that submitter cancelling killed every later
// submitter coalesced onto the same job.
func TestCoalescedJobSurvivesFirstSubmitterCancel(t *testing.T) {
	leakcheck.Check(t)
	started := make(chan struct{})
	release := make(chan struct{})
	r := New(Options{Workers: 1})
	defer r.Close()
	r.execute = func(_ context.Context, cfg system.Config) (*system.Results, error) {
		close(started)
		<-release
		return fakeResults(cfg), nil
	}

	ctxA, cancelA := context.WithCancel(context.Background())
	jobA, err := r.Submit(ctxA, tinyConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	<-started // job is running under submitter A's interest

	jobB, err := r.Submit(context.Background(), tinyConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if jobA != jobB {
		t.Fatal("identical configs did not coalesce onto one job")
	}

	// A walks away mid-run; B must still get the result.
	cancelA()
	if _, err := jobA.Wait(ctxA); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
	}
	close(release)
	res, err := jobB.Wait(context.Background())
	if err != nil {
		t.Fatalf("second submitter's job failed after first cancelled: %v", err)
	}
	if res == nil || res.Cycles != 1 {
		t.Fatalf("second submitter got a bad result: %+v", res)
	}
}

// TestAllWaitersGoneCancelsQueuedJob: cancellation still works when every
// interested submitter is gone — a queued job with no live waiters must
// not burn a worker.
func TestAllWaitersGoneCancelsQueuedJob(t *testing.T) {
	leakcheck.Check(t)
	var executed atomic.Int64
	release := make(chan struct{})
	r := New(Options{Workers: 1})
	defer r.Close()
	r.execute = func(_ context.Context, cfg system.Config) (*system.Results, error) {
		executed.Add(1)
		<-release
		return fakeResults(cfg), nil
	}

	// Occupy the single worker, then queue a job whose only two waiters
	// both cancel before it starts.
	blocker, err := r.Submit(context.Background(), tinyConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	ctxA, cancelA := context.WithCancel(context.Background())
	ctxB, cancelB := context.WithCancel(context.Background())
	queued, err := r.Submit(ctxA, tinyConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if q2, err := r.Submit(ctxB, tinyConfig(2)); err != nil || q2 != queued {
		t.Fatalf("second submit did not coalesce: %v", err)
	}
	cancelA() // one waiter left — job must stay eligible
	select {
	case <-queued.Done():
		t.Fatal("job cancelled while a live waiter remained")
	case <-time.After(20 * time.Millisecond):
	}
	cancelB()                         // no waiters left — job should fail without executing
	time.Sleep(50 * time.Millisecond) // let the waiter monitor cancel the exec context
	close(release)
	<-queued.Done()
	if _, err := queued.Wait(context.Background()); err == nil {
		t.Fatal("orphaned queued job reported success")
	}
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if executed.Load() != 1 {
		t.Fatalf("orphaned job executed anyway: %d executions, want 1", executed.Load())
	}
}

// TestSubmitReplacesDeadInflightJob is the regression test for the dead
// coalesce-target bug: a queued job whose execution context was already
// cancelled (its last waiter left) used to linger in the inflight table
// until a worker retired it, and a new submitter coalescing onto it would
// fail with "cancelled before start" even though its own context was live.
// The last waiter's departure must take the job out of inflight at once,
// so the next submitter gets a fresh job.
func TestSubmitReplacesDeadInflightJob(t *testing.T) {
	leakcheck.Check(t)
	var executed atomic.Int64
	release := make(chan struct{})
	r := New(Options{Workers: 1})
	defer r.Close()
	unblock := sync.OnceFunc(func() { close(release) })
	defer unblock() // before Close, so a failed check cannot hang it
	r.execute = func(_ context.Context, cfg system.Config) (*system.Results, error) {
		executed.Add(1)
		<-release
		return fakeResults(cfg), nil
	}

	// Occupy the single worker so the victim job stays queued.
	blocker, err := r.Submit(context.Background(), tinyConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	ctxA, cancelA := context.WithCancel(context.Background())
	dead, err := r.Submit(ctxA, tinyConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	cancelA() // last waiter gone: the queued job's execCtx gets cancelled
	waitForExecCancelled(t, dead)

	// The dead job is still queued behind the blocker, but it is no longer
	// the inflight entry for its key. A live submitter must get a fresh
	// execution, not the corpse.
	r.mu.Lock()
	_, listed := r.inflight[dead.Key()]
	r.mu.Unlock()
	if listed {
		t.Fatal("a cancelled job stayed in the inflight table")
	}
	fresh, err := r.Submit(context.Background(), tinyConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if fresh == dead {
		t.Fatal("Submit coalesced onto a job whose execution was already cancelled")
	}
	unblock()
	res, err := fresh.Wait(context.Background())
	if err != nil {
		t.Fatalf("fresh submission failed: %v", err)
	}
	if res == nil || res.Cycles != 2 {
		t.Fatalf("fresh submission got a bad result: %+v", res)
	}
	if _, err := dead.Wait(context.Background()); err == nil {
		t.Fatal("abandoned job reported success")
	}
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if executed.Load() != 2 {
		t.Fatalf("executions = %d, want 2 (blocker + fresh; never the dead job)", executed.Load())
	}
}

// waitForExecCancelled blocks until j's execution context is cancelled;
// the waiter monitor that cancels it runs on its own goroutine.
func waitForExecCancelled(t *testing.T, j *Job) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if j.execCtx.Err() != nil {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("job execution context was never cancelled")
}

// TestCacheHitResultsAreIsolated is the regression test for the
// cache-aliasing bug: every memory-cache hit used to share one *Results,
// so a caller mutating its result corrupted the cache for all future hits.
func TestCacheHitResultsAreIsolated(t *testing.T) {
	leakcheck.Check(t)
	r := New(Options{Workers: 1})
	defer r.Close()
	r.execute = func(_ context.Context, cfg system.Config) (*system.Results, error) {
		res := fakeResults(cfg)
		res.EventsRun = 777
		res.FlitHopsByClass = map[string]int64{"data": 42}
		return res, nil
	}

	first, err := r.Run(context.Background(), tinyConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	// Vandalize everything the caller can reach, including the map.
	first.Cycles = 0
	first.EventsRun = 0
	first.FlitHopsByClass["data"] = -1

	second, err := r.Run(context.Background(), tinyConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if second.Cycles != 5 || second.EventsRun != 777 || second.FlitHopsByClass["data"] != 42 {
		t.Fatalf("mutation through an earlier result leaked into the cache: %+v", second)
	}
	// And the second hit must itself be isolated from the first.
	second.FlitHopsByClass["data"] = -2
	third, err := r.Run(context.Background(), tinyConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if third.FlitHopsByClass["data"] != 42 {
		t.Fatal("cache hits share one map between callers")
	}
}

func TestCloseDrainsQueuedJobs(t *testing.T) {
	leakcheck.Check(t)
	var executed atomic.Int64
	r := New(Options{Workers: 1})
	r.execute = func(_ context.Context, cfg system.Config) (*system.Results, error) {
		executed.Add(1)
		time.Sleep(2 * time.Millisecond)
		return fakeResults(cfg), nil
	}
	var jobs []*Job
	for i := 0; i < 6; i++ {
		j, err := r.Submit(context.Background(), tinyConfig(int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	r.Close()
	if executed.Load() != 6 {
		t.Fatalf("Close drained %d jobs, want 6", executed.Load())
	}
	for _, j := range jobs {
		if s := j.Status(); s.State != StateDone {
			t.Fatalf("job %s state = %s after Close, want done", s.ID, s.State)
		}
	}
	if _, err := r.Submit(context.Background(), tinyConfig(99)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}

func TestJobLookupAndEvents(t *testing.T) {
	leakcheck.Check(t)
	var mu sync.Mutex
	var kinds []EventKind
	r := New(Options{Workers: 1, Events: func(e Event) {
		mu.Lock()
		kinds = append(kinds, e.Kind)
		mu.Unlock()
	}})
	defer r.Close()
	r.execute = func(_ context.Context, cfg system.Config) (*system.Results, error) {
		return fakeResults(cfg), nil
	}
	j, err := r.Submit(context.Background(), tinyConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, ok := r.Job(j.ID())
	if !ok || got != j {
		t.Fatalf("Job(%q) lookup failed", j.ID())
	}
	s := j.Status()
	if s.State != StateDone || s.Workload != "blackscholes" || s.Cycles != 1 {
		t.Fatalf("unexpected status: %+v", s)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []EventKind{EventQueued, EventStarted, EventFinished}
	if len(kinds) != len(want) {
		t.Fatalf("events = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("events = %v, want %v", kinds, want)
		}
	}
}

// TestEveryOutcomeSharesOneLifecycle pins the events and status of each way
// a job can finish: a run emits queued, started and finished; a memory or
// disk hit emits queued and finished, with the tier named on both the
// finished event and the status. Only the run counts as started.
func TestEveryOutcomeSharesOneLifecycle(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	type outcome struct {
		kinds []EventKind
		hit   string // the finished event's CacheHit
	}
	newRunner := func(got *outcome) *Runner {
		r := New(Options{Workers: 1, CacheDir: dir, Events: func(e Event) {
			got.kinds = append(got.kinds, e.Kind)
			if e.Kind == EventFinished {
				got.hit = e.CacheHit
			}
		}})
		r.execute = func(_ context.Context, cfg system.Config) (*system.Results, error) {
			return fakeResults(cfg), nil
		}
		return r
	}
	submit := func(r *Runner, got *outcome) *Job {
		t.Helper()
		*got = outcome{}
		j, err := r.Submit(context.Background(), tinyConfig(6))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		return j
	}
	check := func(name string, j *Job, got outcome, hit string, kinds ...EventKind) {
		t.Helper()
		if fmt.Sprint(got.kinds) != fmt.Sprint(kinds) || got.hit != hit {
			t.Errorf("%s: events %v with CacheHit %q, want %v with %q", name, got.kinds, got.hit, kinds, hit)
		}
		if s := j.Status(); s.State != StateDone || s.CacheHit != hit || s.Cycles != 6 {
			t.Errorf("%s: status %+v, want done with CacheHit %q", name, s, hit)
		}
	}

	// Events are read only after Wait: every event of a job is emitted
	// before its waiters are released.
	var got outcome
	r1 := newRunner(&got)
	check("run", submit(r1, &got), got, "", EventQueued, EventStarted, EventFinished)
	check("memory hit", submit(r1, &got), got, HitMemory, EventQueued, EventFinished)
	m1 := r1.Metrics()
	r1.Close()

	r2 := newRunner(&got) // a restart: empty memory, same CacheDir
	defer r2.Close()
	check("disk hit", submit(r2, &got), got, HitDisk, EventQueued, EventFinished)
	m2 := r2.Metrics()

	if m1.JobsQueued != 2 || m1.JobsStarted != 1 || m1.JobsCompleted != 2 || m1.CacheHitsMemory != 1 || m1.CacheMisses != 1 {
		t.Errorf("first runner: %+v, want 2 queued, 1 started, 2 completed, 1 memory hit, 1 miss", m1)
	}
	if m2.JobsQueued != 1 || m2.JobsStarted != 0 || m2.JobsCompleted != 1 || m2.CacheHitsDisk != 1 || m2.CacheMisses != 0 {
		t.Errorf("restarted runner: %+v, want 1 queued, 0 started, 1 completed, 1 disk hit, 0 misses", m2)
	}
}
