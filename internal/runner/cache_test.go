package runner

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/system"
	"repro/internal/testutil/leakcheck"
)

// TestDiskCachePutRemovesTempOnRenameFailure is the regression test for the
// temp-file orphan: a failed rename must clean up after itself, because in a
// shared cache directory the leak compounds across processes and restarts.
func TestDiskCachePutRemovesTempOnRenameFailure(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	d := newDiskCache(dir)
	injected := errors.New("injected rename failure")
	d.rename = func(_, _ string) error { return injected }

	cfg := tinyConfig(1)
	key, err := Key(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.put(key, cfg, fakeResults(cfg)); !errors.Is(err, injected) {
		t.Fatalf("put error = %v, want injected rename failure", err)
	}
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Fatalf("failed put orphaned temp files: %v", tmps)
	}
	if _, ok := d.get(key); ok {
		t.Fatal("failed put still produced a readable entry")
	}

	// The same writer succeeds once rename works again.
	d.rename = os.Rename
	if err := d.put(key, cfg, fakeResults(cfg)); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.get(key); !ok {
		t.Fatal("entry unreadable after successful put")
	}
}

// TestDiskCacheOpenSweepsStaleTemps: opening a cache directory collects temp
// files orphaned by crashed writers — but only old ones, so the sweep cannot
// race another process that is mid-write right now.
func TestDiskCacheOpenSweepsStaleTemps(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	stale := filepath.Join(dir, "deadbeef.tmp123")
	fresh := filepath.Join(dir, "cafef00d.tmp456")
	entry := filepath.Join(dir, "deadbeef.json")
	for _, p := range []string{stale, fresh, entry} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	newDiskCache(dir)

	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived the open sweep: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh temp file (a possible live write) was removed: %v", err)
	}
	if _, err := os.Stat(entry); err != nil {
		t.Fatalf("real cache entry was removed: %v", err)
	}
}

// slowStore delays every disk probe, holding the historical race window
// (submit's unlocked disk IO) open wide enough for tests to drive identical
// submissions through it deterministically.
type slowStore struct {
	inner resultStore
	delay time.Duration
	gets  atomic.Int64
}

func (s *slowStore) get(key string) (*system.Results, bool) {
	s.gets.Add(1)
	time.Sleep(s.delay)
	return s.inner.get(key)
}

func (s *slowStore) put(key string, cfg system.Config, res *system.Results) error {
	return s.inner.put(key, cfg, res)
}

// TestSubmitDiskProbeSingleFlight is the regression test for the Submit
// slip-past window: two identical submissions racing through the unlocked
// disk probe must coalesce onto one real run, not enqueue two.
func TestSubmitDiskProbeSingleFlight(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	r := New(Options{Workers: 4, CacheDir: dir})
	defer r.Close()
	store := &slowStore{inner: r.disk, delay: 50 * time.Millisecond}
	r.disk = store
	var executions atomic.Int64
	release := make(chan struct{})
	r.execute = func(_ context.Context, c system.Config) (*system.Results, error) {
		executions.Add(1)
		<-release
		return fakeResults(c), nil
	}

	cfg := tinyConfig(3)
	const submitters = 8
	var wg sync.WaitGroup
	jobs := make([]*Job, submitters)
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := r.Submit(context.Background(), cfg)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			jobs[i] = j
		}(i)
	}
	wg.Wait()
	close(release)
	for _, j := range jobs {
		if j == nil {
			t.Fatal("a submission failed")
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	if n := executions.Load(); n != 1 {
		t.Fatalf("identical racing submissions executed %d times, want 1", n)
	}
	if n := store.gets.Load(); n != 1 {
		t.Fatalf("disk probed %d times for one key, want 1 (single-flight)", n)
	}
	if m := r.Metrics(); m.JobsStarted != 1 {
		t.Fatalf("JobsStarted = %d, want 1", m.JobsStarted)
	}
}

// waitForProbe blocks until store has been asked for n entries, so a test
// knows a submission is inside its disk probe.
func waitForProbe(t *testing.T, store *slowStore, n int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for store.gets.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("disk probed %d times, want %d", store.gets.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSubmitProbeWaiterHonorsCancellation: a submission that arrives while
// another submitter's disk probe is in flight joins that job at once
// instead of waiting out the probe, and cancelling it releases only its
// own wait: the job still finishes for the first submitter.
func TestSubmitProbeWaiterHonorsCancellation(t *testing.T) {
	leakcheck.Check(t)
	r := New(Options{Workers: 1, CacheDir: t.TempDir()})
	defer r.Close()
	store := &slowStore{inner: r.disk, delay: 250 * time.Millisecond}
	r.disk = store
	var executions atomic.Int64
	r.execute = func(_ context.Context, c system.Config) (*system.Results, error) {
		executions.Add(1)
		return fakeResults(c), nil
	}

	cfg := tinyConfig(4)
	first := make(chan *Job, 1)
	go func() {
		j, err := r.Submit(context.Background(), cfg) // the prober
		if err != nil {
			t.Error(err)
		}
		first <- j
	}()
	waitForProbe(t, store, 1)

	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	second, err := r.Submit(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited > 50*time.Millisecond {
		t.Fatalf("a submission during the probe waited %v, want it to join the job at once", waited)
	}
	cancel()
	if _, err := second.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
	}

	j := <-first
	if j != second {
		t.Fatal("a submission during the probe did not join the prober's job")
	}
	res, err := j.Wait(context.Background())
	if err != nil {
		t.Fatalf("the second submitter's cancellation failed the job: %v", err)
	}
	if res.Cycles != 4 || executions.Load() != 1 || store.gets.Load() != 1 {
		t.Fatalf("cycles %d, %d executions, %d disk reads; want 4, 1, 1", res.Cycles, executions.Load(), store.gets.Load())
	}
	if m := r.Metrics(); m.JobsCoalesced != 1 {
		t.Fatalf("JobsCoalesced = %d, want 1", m.JobsCoalesced)
	}
}

// TestCloseDuringDiskProbe: Close does not wait on a submission that is
// still probing the disk cache; when that probe misses, the job fails with
// ErrClosed instead of reaching a worker, and no goroutine is left behind.
func TestCloseDuringDiskProbe(t *testing.T) {
	leakcheck.Check(t)
	var failed atomic.Int64
	r := New(Options{Workers: 1, CacheDir: t.TempDir(), Events: func(e Event) {
		if e.Kind == EventFailed {
			failed.Add(1)
		}
	}})
	store := &slowStore{inner: r.disk, delay: 250 * time.Millisecond}
	r.disk = store
	r.execute = func(_ context.Context, c system.Config) (*system.Results, error) {
		t.Error("a job submitted before Close ran after it")
		return fakeResults(c), nil
	}

	submitted := make(chan *Job, 1)
	go func() {
		j, err := r.Submit(context.Background(), tinyConfig(5))
		if err != nil {
			t.Error(err)
		}
		submitted <- j
	}()
	waitForProbe(t, store, 1)

	r.Close()
	select {
	case <-submitted:
		t.Fatal("Close waited for a disk probe to finish")
	default:
	}
	j := <-submitted
	if j == nil {
		t.FailNow() // Submit's error is already reported
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := j.Wait(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("job error = %v, want ErrClosed", err)
	}
	if s := j.Status(); s.State != StateFailed {
		t.Fatalf("job state = %s, want failed", s.State)
	}
	if m := r.Metrics(); m.JobsFailed != 1 || m.JobsStarted != 0 || failed.Load() != 1 {
		t.Fatalf("metrics %+v and %d failed events; want one failure, nothing started", m, failed.Load())
	}
}
