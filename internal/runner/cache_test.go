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

// TestSubmitProbeWaiterHonorsCancellation: a submission parked behind
// another submitter's disk probe must honor its own context instead of
// waiting out the probe.
func TestSubmitProbeWaiterHonorsCancellation(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	r := New(Options{Workers: 1, CacheDir: dir})
	defer r.Close()
	r.disk = &slowStore{inner: r.disk, delay: 250 * time.Millisecond}
	r.execute = func(_ context.Context, c system.Config) (*system.Results, error) { return fakeResults(c), nil }

	cfg := tinyConfig(4)
	go r.Submit(context.Background(), cfg) // the prober
	time.Sleep(20 * time.Millisecond)      // let it claim the probe slot

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := r.Submit(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("parked submit error = %v, want context.Canceled", err)
	}
	if waited := time.Since(start); waited > 200*time.Millisecond {
		t.Fatalf("cancelled waiter still waited %v for the probe", waited)
	}
}
