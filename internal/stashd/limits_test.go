package stashd

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/runner"
	"repro/internal/testutil/leakcheck"
)

// flushRecorder wraps httptest.ResponseRecorder to log the interleaving of
// body writes and flushes, so a test can prove the stream terminator was
// flushed before the handler returned.
type flushRecorder struct {
	*httptest.ResponseRecorder
	events []string // "write:<payload>" and "flush" in order
}

func (f *flushRecorder) Write(b []byte) (int, error) {
	f.events = append(f.events, "write:"+string(b))
	return f.ResponseRecorder.Write(b)
}

func (f *flushRecorder) Flush() {
	f.events = append(f.events, "flush")
	f.ResponseRecorder.Flush()
}

// TestSweepDoneLineFlushedBeforeClose is the regression test for the
// unflushed terminator: the final "done" summary line must be written and
// flushed before the handler returns, so the client observes it before the
// connection closes.
func TestSweepDoneLineFlushedBeforeClose(t *testing.T) {
	leakcheck.Check(t)
	r := runner.New(runner.Options{Workers: 2})
	defer r.Close()
	srv := NewServer(r)

	b, err := json.Marshal(tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	rec := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	req := httptest.NewRequest("POST", "/sweep", bytes.NewReader(b))
	srv.ServeHTTP(rec, req)

	if rec.Code != http.StatusOK {
		t.Fatalf("sweep status = %d", rec.Code)
	}
	lastDone := -1
	for i, e := range rec.events {
		if strings.HasPrefix(e, "write:") && strings.Contains(e, `"type":"done"`) {
			lastDone = i
		}
	}
	if lastDone < 0 {
		t.Fatalf("no done line written; events: %q", rec.events)
	}
	flushed := false
	for _, e := range rec.events[lastDone+1:] {
		if e == "flush" {
			flushed = true
		}
	}
	if !flushed {
		t.Fatalf("done line was never flushed; events after it: %q", rec.events[lastDone+1:])
	}

	// And the line itself is a complete summary the client can parse.
	var done SweepLine
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &done); err != nil {
		t.Fatal(err)
	}
	if done.Type != "done" || done.Jobs != 2 {
		t.Fatalf("terminator = %+v, want done with 2 jobs", done)
	}
}

// TestQueueDepthSheds503WithRetryAfter: a sweep that would push the queue
// past MaxQueue is refused at admission with 503 + Retry-After instead of
// queueing without bound.
func TestQueueDepthSheds503WithRetryAfter(t *testing.T) {
	leakcheck.Check(t)
	r := runner.New(runner.Options{Workers: 1})
	ts := httptest.NewServer(NewServerWith(r, Options{MaxQueue: 4}))
	t.Cleanup(func() {
		ts.Close()
		r.Close()
	})

	big := SweepRequest{
		Base:      tinyBase(),
		Workloads: []string{"blackscholes"},
		DirKinds:  []string{"sparse", "stash"},
		Coverages: []float64{1, 0.5, 0.25}, // 6 jobs > MaxQueue of 4
	}
	resp := postJSON(t, ts.URL+"/sweep", big)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("oversized sweep status = %d, want 503", resp.StatusCode)
	}
	retry, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Fatalf("503 Retry-After = %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}
	if shed := metricValue(t, ts, "stashd_shed_queue_total"); shed != 1 {
		t.Fatalf("stashd_shed_queue_total = %v, want 1", shed)
	}

	// A sweep within the bound is still served.
	ok := tinySweep()
	okResp := postJSON(t, ts.URL+"/sweep", ok)
	_, done := readSweep(t, okResp)
	if done.Jobs != 2 || done.Failures != 0 {
		t.Fatalf("in-bounds sweep done = %+v", done)
	}
}

// TestInternalRunEndpoint: a fully resolved config runs exactly as sent and
// reports cache provenance on a repeat, while invalid configs and configs
// naming server-side trace files are refused at the edge.
func TestInternalRunEndpoint(t *testing.T) {
	leakcheck.Check(t)
	ts, _ := newTestServer(t, t.TempDir())

	base := tinyBase()
	base.Workload = "blackscholes"
	base.DirKind = "stash"
	base.Coverage = 0.5
	cfg, err := base.Config()
	if err != nil {
		t.Fatal(err)
	}

	resp := postJSON(t, ts.URL+"/internal/run", InternalRunRequest{Config: cfg})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("internal run status = %d", resp.StatusCode)
	}
	var rr RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if rr.Result == nil || rr.Result.Cycles == 0 {
		t.Fatalf("internal run returned no result: %+v", rr)
	}

	// A repeat is a cache hit: the internal key is the same canonical hash.
	again := postJSON(t, ts.URL+"/internal/run", InternalRunRequest{Config: cfg})
	defer again.Body.Close()
	var rr2 RunResponse
	if err := json.NewDecoder(again.Body).Decode(&rr2); err != nil {
		t.Fatal(err)
	}
	if rr2.CacheHit == "" {
		t.Fatalf("repeat internal run was not a cache hit: %+v", rr2)
	}
	if rr2.Result.Cycles != rr.Result.Cycles {
		t.Fatalf("cache hit diverged: %d vs %d cycles", rr2.Result.Cycles, rr.Result.Cycles)
	}

	// An invalid config is a 400 at the edge, not a queued failure.
	bad := cfg
	bad.Cores = 7
	badResp := postJSON(t, ts.URL+"/internal/run", InternalRunRequest{Config: bad})
	badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid internal config status = %d, want 400", badResp.StatusCode)
	}

	// A config naming a server-side file is refused before the simulator
	// can open it, and nothing of the file comes back in the response.
	const secret = "TOP-SECRET-LINE"
	path := filepath.Join(t.TempDir(), "secret.txt")
	if err := os.WriteFile(path, []byte(secret+" value\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	traced := cfg
	traced.Cores = 1
	traced.Workload = ""
	traced.TraceFiles = []string{path}
	if err := traced.Validate(); err != nil {
		t.Fatalf("trace config must be otherwise valid to exercise the refusal: %v", err)
	}
	tracedResp := postJSON(t, ts.URL+"/internal/run", InternalRunRequest{Config: traced})
	defer tracedResp.Body.Close()
	body, err := io.ReadAll(tracedResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if tracedResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trace-file internal config status = %d, want 400 (body %s)", tracedResp.StatusCode, body)
	}
	if strings.Contains(string(body), secret) {
		t.Fatalf("response leaked the named file's contents: %s", body)
	}
}
