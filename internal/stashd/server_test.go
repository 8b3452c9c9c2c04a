package stashd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/testutil/leakcheck"
)

// tinyBase is a request base small enough that one simulation takes a few
// milliseconds.
func tinyBase() RunRequest {
	return RunRequest{
		Quick:           true,
		Cores:           4,
		AccessesPerCore: 1500,
		WorkloadScale:   0.25,
	}
}

func tinySweep() SweepRequest {
	return SweepRequest{
		Base:      tinyBase(),
		Workloads: []string{"blackscholes"},
		DirKinds:  []string{"stash"},
		Coverages: []float64{1, 0.5},
	}
}

func newTestServer(t *testing.T, cacheDir string) (*httptest.Server, *runner.Runner) {
	t.Helper()
	r := runner.New(runner.Options{Workers: 2, CacheDir: cacheDir})
	ts := httptest.NewServer(NewServer(r))
	t.Cleanup(func() {
		ts.Close()
		r.Close()
	})
	return ts, r
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readSweep decodes a /sweep ndjson stream into job lines plus the final
// done line.
func readSweep(t *testing.T, resp *http.Response) ([]SweepLine, SweepLine) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("sweep content-type = %q", ct)
	}
	var jobs []SweepLine
	var done SweepLine
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line SweepLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad sweep line %q: %v", sc.Text(), err)
		}
		switch line.Type {
		case "job":
			jobs = append(jobs, line)
		case "done":
			done = line
		default:
			t.Fatalf("unknown line type %q", line.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if done.Type != "done" {
		t.Fatal("stream ended without a done line")
	}
	return jobs, done
}

func metricValue(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var v float64
		if _, err := fmt.Sscanf(sc.Text(), name+" %f", &v); err == nil {
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

func TestRunEndpointAndJobStatus(t *testing.T) {
	leakcheck.Check(t)
	ts, _ := newTestServer(t, "")

	req := tinyBase()
	req.Workload = "blackscholes"
	req.DirKind = "stash"
	req.Coverage = 0.5
	resp := postJSON(t, ts.URL+"/run", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status = %d", resp.StatusCode)
	}
	var rr RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if rr.Result == nil || rr.Result.Cycles == 0 {
		t.Fatalf("run returned no result: %+v", rr)
	}
	if rr.JobID == "" {
		t.Fatal("run returned no job id")
	}

	st, err := http.Get(ts.URL + "/jobs/" + rr.JobID)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Body.Close()
	if st.StatusCode != http.StatusOK {
		t.Fatalf("jobs status = %d", st.StatusCode)
	}
	var js runner.JobStatus
	if err := json.NewDecoder(st.Body).Decode(&js); err != nil {
		t.Fatal(err)
	}
	if js.State != runner.StateDone || js.Workload != "blackscholes" {
		t.Fatalf("job status = %+v", js)
	}

	if missing, err := http.Get(ts.URL + "/jobs/job-999999"); err != nil {
		t.Fatal(err)
	} else {
		missing.Body.Close()
		if missing.StatusCode != http.StatusNotFound {
			t.Fatalf("missing job status = %d, want 404", missing.StatusCode)
		}
	}
}

func TestBadRequestsRejected(t *testing.T) {
	leakcheck.Check(t)
	ts, _ := newTestServer(t, "")
	for name, body := range map[string]any{
		"no workload":      RunRequest{Quick: true},
		"unknown dir kind": RunRequest{Workload: "blackscholes", DirKind: "btree"},
		"bad cores":        RunRequest{Workload: "blackscholes", Cores: 7},
	} {
		resp := postJSON(t, ts.URL+"/run", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}

	huge := SweepRequest{Base: tinyBase(), Workloads: []string{"blackscholes"},
		DirKinds: []string{"stash"}, Coverages: make([]float64, 5000)}
	for i := range huge.Coverages {
		huge.Coverages[i] = float64(i + 1)
	}
	resp := postJSON(t, ts.URL+"/sweep", huge)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized sweep status = %d, want 400", resp.StatusCode)
	}
}

// TestShardsCheckerRequests pins how a parallel request treats the
// checker: omitted, it defaults off and the run succeeds; an explicit true
// is not rewritten but refused, since parallel runs cannot host it.
func TestShardsCheckerRequests(t *testing.T) {
	leakcheck.Check(t)
	ts, _ := newTestServer(t, "")
	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	const base = `"workload":"blackscholes","quick":true,"cores":4,"accessesPerCore":1500,"workloadScale":0.25,"shards":2`

	resp := post(`{` + base + `}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shards without checker: status = %d, want 200", resp.StatusCode)
	}
	var rr RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if c := rr.Result.Config; c.Checker || c.Shards != 2 {
		t.Fatalf("shards without checker ran with checker=%v shards=%d, want false and 2", c.Checker, c.Shards)
	}

	bad := post(`{` + base + `,"checker":true}`)
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("shards with explicit checker: status = %d, want 400", bad.StatusCode)
	}
}

// TestConcurrentSweepsShareDiskCache is the acceptance scenario: two
// concurrent identical sweeps against one server simulate each config at
// most once (coalescing or cache hits cover the overlap), and a third
// identical sweep is served entirely from cache, which /metrics reports.
func TestConcurrentSweepsShareDiskCache(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	ts, _ := newTestServer(t, dir)
	sweep := tinySweep()

	var wg sync.WaitGroup
	lines := make([][]SweepLine, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/sweep", sweep)
			jobs, done := readSweep(t, resp)
			if done.Failures != 0 {
				t.Errorf("sweep %d: %d failures", i, done.Failures)
			}
			if len(jobs) != 2 {
				t.Errorf("sweep %d: %d job lines, want 2", i, len(jobs))
			}
			lines[i] = jobs
		}(i)
	}
	wg.Wait()

	// The two sweeps raced over the same two configs: the runner must
	// have simulated each config exactly once.
	if started := metricValue(t, ts, "stashd_jobs_started_total"); started != 2 {
		t.Fatalf("concurrent identical sweeps simulated %v configs, want 2", started)
	}

	// A third identical sweep must come entirely from cache...
	resp := postJSON(t, ts.URL+"/sweep", sweep)
	jobs, done := readSweep(t, resp)
	if done.CacheHits != len(jobs) {
		t.Fatalf("repeat sweep cache hits = %d, want %d", done.CacheHits, len(jobs))
	}
	for _, l := range jobs {
		if l.CacheHit == "" || l.Cycles == 0 {
			t.Fatalf("repeat sweep line not from cache: %+v", l)
		}
	}
	// ... and /metrics must report it.
	if hits := metricValue(t, ts, "stashd_cache_hits_total"); hits < 2 {
		t.Fatalf("stashd_cache_hits_total = %v, want >= 2", hits)
	}
	if started := metricValue(t, ts, "stashd_jobs_started_total"); started != 2 {
		t.Fatalf("repeat sweep re-simulated: started = %v, want 2", started)
	}

	// A brand-new server process over the same cache dir serves the sweep
	// from disk without simulating anything.
	ts2, _ := newTestServer(t, dir)
	resp2 := postJSON(t, ts2.URL+"/sweep", sweep)
	_, done2 := readSweep(t, resp2)
	if done2.CacheHits != 2 || done2.Failures != 0 {
		t.Fatalf("restarted server done line = %+v, want 2 cache hits", done2)
	}
	if disk := metricValue(t, ts2, "stashd_cache_hits_disk_total"); disk != 2 {
		t.Fatalf("restarted server disk hits = %v, want 2", disk)
	}
}

func TestSweepDefaultsAndResultsConsistency(t *testing.T) {
	leakcheck.Check(t)
	ts, _ := newTestServer(t, "")
	// Explicit single-workload sweep over the default kind/coverage axes
	// would be 12 runs; narrow the axes but leave kinds to the default.
	sweep := SweepRequest{
		Base:      tinyBase(),
		Workloads: []string{"blackscholes"},
		Coverages: []float64{0.5},
	}
	resp := postJSON(t, ts.URL+"/sweep", sweep)
	jobs, done := readSweep(t, resp)
	if len(jobs) != 2 || done.Jobs != 2 { // sparse + stash by default
		t.Fatalf("default dir kinds: %d lines, done=%+v, want 2", len(jobs), done)
	}
	kinds := map[string]bool{}
	for _, l := range jobs {
		kinds[l.DirKind] = true
		if l.Error != "" {
			t.Fatalf("job failed: %+v", l)
		}
		if l.Cycles == 0 || l.AccessesPerKCycle <= 0 {
			t.Fatalf("job line missing results: %+v", l)
		}
	}
	if !kinds["sparse"] || !kinds["stash"] {
		t.Fatalf("default sweep kinds = %v, want sparse and stash", kinds)
	}
}

// TestSweepClientDisconnectLeaksNoGoroutines is the regression test for
// the handleSweep goroutine leak: with an unbuffered lines channel, a
// client disconnect mid-stream stranded every remaining waiter goroutine
// on a send nobody would ever receive.
func TestSweepClientDisconnectLeaksNoGoroutines(t *testing.T) {
	leakcheck.Check(t)
	// One worker and deliberately slower simulations keep most of the
	// sweep queued while the client walks away mid-stream.
	r := runner.New(runner.Options{Workers: 1})
	ts := httptest.NewServer(NewServer(r))
	t.Cleanup(func() {
		ts.Close()
		r.Close()
	})
	base := tinyBase()
	base.AccessesPerCore = 30000
	sweep := SweepRequest{
		Base:      base,
		Workloads: []string{"blackscholes"},
		DirKinds:  []string{"sparse", "stash"},
		Coverages: []float64{1, 0.5, 0.25, 0.25, 0.125, 0.0625},
	} // 12 jobs through 1 worker: the stream is alive well past line one
	baseline := runtime.NumGoroutine()

	b, err := json.Marshal(sweep)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := client.Post(ts.URL+"/sweep", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	// Read exactly one line, then slam the connection shut mid-stream.
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	client.CloseIdleConnections()

	// Every waiter goroutine must drain once the server notices the
	// disconnect: the jobs it leaves with no waiter fail before they start
	// or stop mid-run.
	start := time.Now()
	for {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		if time.Since(start) > 10*time.Second {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("sweep waiters leaked: %d goroutines at baseline, %d after disconnect\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRunClientDisconnectStopsSimulation: a client that leaves while its
// /run simulates stops that simulation, not just the jobs still queued.
func TestRunClientDisconnectStopsSimulation(t *testing.T) {
	leakcheck.Check(t)
	ts, r := newTestServer(t, "")
	b, err := json.Marshal(RunRequest{
		Workload: "canneal", DirKind: "stash", Coverage: 0.125,
		Quick: true, Cores: 16, AccessesPerCore: 200_000, // seconds of simulation
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/run", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	for r.Metrics().InFlight != 1 {
		select {
		case err := <-errc:
			t.Fatalf("/run answered before its simulation started: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	<-errc
	deadline := time.Now().Add(time.Second)
	for leakcheck.Running("repro/internal/system.RunContext") != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the simulation was still running 1s after its only client left")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunClientCancellationIsNotA500: a client that disconnects before its
// /run completes has no usable response; the handler must not report the
// cancellation as a simulation failure.
func TestRunClientCancellationIsNotA500(t *testing.T) {
	leakcheck.Check(t)
	r := runner.New(runner.Options{Workers: 1})
	defer r.Close()
	srv := NewServer(r)

	rr := tinyBase()
	rr.Workload = "blackscholes"
	rr.DirKind = "stash"
	rr.Coverage = 1
	b, err := json.Marshal(rr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is already gone
	req := httptest.NewRequest("POST", "/run", bytes.NewReader(b)).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code == http.StatusInternalServerError {
		t.Fatalf("client cancellation reported as 500: %s", rec.Body.String())
	}
	if rec.Body.Len() != 0 {
		t.Fatalf("handler wrote a body for a cancelled request: %s", rec.Body.String())
	}
}

func TestMetricsEndpointShape(t *testing.T) {
	leakcheck.Check(t)
	ts, _ := newTestServer(t, "")
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content-type = %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	for _, want := range []string{
		"stashd_jobs_queued_total", "stashd_jobs_completed_total",
		"stashd_cache_hits_total", "stashd_cache_misses_total",
		"stashd_run_latency_p50_ms", "stashd_run_latency_p95_ms",
		"stashd_inflight_workers", "stashd_queue_depth", "stashd_shed_queue_total",
	} {
		if !strings.Contains(buf.String(), want+" ") {
			t.Errorf("metrics page missing %s:\n%s", want, buf.String())
		}
	}
}
