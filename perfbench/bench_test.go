package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// inputs renders a job list with trace paths made relative to dir, and
// reads every generated file, so two generations into different
// directories compare equal exactly when their inputs are.
func inputs(t *testing.T, w workload, seed int64, dir string) ([]string, map[string][]byte) {
	t.Helper()
	jobs, err := w.jobs(seed, dir)
	if err != nil {
		t.Fatal(err)
	}
	var list []string
	files := map[string][]byte{}
	for _, j := range jobs {
		if j.sim == nil {
			list = append(list, fmt.Sprintf("%s %+v", j.name, j.mc))
			continue
		}
		cfg := *j.sim
		cfg.TraceFiles = append([]string(nil), cfg.TraceFiles...)
		for i, path := range cfg.TraceFiles {
			rel, err := filepath.Rel(dir, path)
			if err != nil {
				t.Fatal(err)
			}
			if files[rel], err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
			cfg.TraceFiles[i] = rel
		}
		list = append(list, fmt.Sprintf("%s %+v", j.name, cfg))
	}
	return list, files
}

func TestSameSeedSameInputs(t *testing.T) {
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range allWorkloads {
		for _, seed := range []int64{1, 7, 12345} {
			list1, files1 := inputs(t, w, seed, t.TempDir())
			list2, files2 := inputs(t, w, seed, t.TempDir())
			if !reflect.DeepEqual(list1, list2) {
				t.Errorf("%s seed %d: job lists differ:\n%v\n%v", w.name, seed, list1, list2)
			}
			if !reflect.DeepEqual(files1, files2) {
				t.Errorf("%s seed %d: generated trace files differ", w.name, seed)
			}
			jobs, err := w.jobs(seed, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range jobs {
				if _, ok := p[w.name+"/"+j.name]; !ok {
					t.Errorf("%s seed %d: job %s has no pinned digest", w.name, seed, j.name)
				}
			}
		}
		if w.name == "mcheck-2x2" {
			continue // fixed input; the seed only orders the organizations
		}
		a, _ := inputs(t, w, 1, t.TempDir())
		b, _ := inputs(t, w, 2, t.TempDir())
		if reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 1 and 2 picked identical job lists", w.name)
		}
	}
}

func TestPerturbedConfigFailsDigest(t *testing.T) {
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	w, _ := findWorkload("dir-conflict-16")
	jobs, err := w.jobs(1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j := jobs[0]
	o := runJob(j)
	if o.err != nil {
		t.Fatal(o.err)
	}
	if err := p.check(w.name, j, o.digest); err != nil {
		t.Fatalf("unperturbed job: %v", err)
	}
	cfg := *j.sim
	cfg.Coverage *= 2
	perturbed := job{name: j.name, sim: &cfg}
	o = runJob(perturbed)
	if o.err != nil {
		t.Fatal(o.err)
	}
	if err := p.check(w.name, perturbed, o.digest); err == nil {
		t.Fatal("a job at twice the coverage matched the pinned digest")
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	samples := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // unsorted on purpose
		}
		return v
	}
	if _, err := percentile(samples(99), 90); err == nil {
		t.Error("p90 of 99 samples (9 beyond) was not refused")
	}
	got, err := percentile(samples(100), 90)
	if err != nil {
		t.Fatalf("p90 of 100 samples: %v", err)
	}
	if got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if _, err := percentile(samples(20), 50); err != nil {
		t.Errorf("p50 of 20 samples: %v", err)
	}
}

// socketCount counts this process's open socket descriptors.
func socketCount(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd:", err)
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, "socket:") {
			n++
		}
	}
	return n
}

type noNetwork struct{}

func (noNetwork) RoundTrip(*http.Request) (*http.Response, error) {
	return nil, errors.New("network transport used")
}

func TestOverheadSpansOpenNoSocket(t *testing.T) {
	saved := http.DefaultTransport
	http.DefaultTransport = noNetwork{}
	defer func() { http.DefaultTransport = saved }()

	before := socketCount(t)
	var tl tally
	jobs := []job{simJob(privateConfig(1)), simJob(psimConfig(1, 2))}
	if _, _, err := overheadSpans("test", jobs, &tl); err != nil {
		t.Fatal(err)
	}
	if tl.attempted == 0 || tl.failed != 0 {
		t.Fatalf("%d of %d overhead calls failed: %v", tl.failed, tl.attempted, tl.first)
	}
	if after := socketCount(t); after != before {
		t.Fatalf("open sockets went from %d to %d", before, after)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workload and per-layer
// metric lists in step with the ones this program runs and prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range bj.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range allWorkloads {
		want = append(want, w.name)
	}
	for _, m := range bj.PerLayer {
		got = append(got, m.Name+" "+m.Unit)
	}
	for _, m := range perLayer {
		want = append(want, m.name+" "+m.unit)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json lists\n%v\nthe program runs\n%v", got, want)
	}
}

func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		spin(1000)
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		for _, f := range s.frames {
			if strings.HasSuffix(f, ".spin") {
				found = true
			}
		}
	}
	if len(samples) == 0 || !found {
		t.Fatalf("%d samples, spin frame found: %v", len(samples), found)
	}
	if got := layerOf("repro/internal/coherence.(*Fabric).Drive"); got != "coherence" {
		t.Errorf("layerOf coherence frame = %q", got)
	}
	if got := layerOf("internal/runtime/maps.(*Map).getWithKey"); got != "runtime" {
		t.Errorf("layerOf map frame = %q", got)
	}
	if got := layerOf("math/rand.(*Zipf).Uint64"); got != "" {
		t.Errorf("layerOf stdlib frame = %q, want the caller's layer", got)
	}
}

var sink int

//go:noinline
func spin(n int) {
	for i := 0; i < n; i++ {
		sink += i * i
	}
}
