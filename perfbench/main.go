// Command perfbench is the repository's benchmark: a single-process
// closed loop (one client submitting jobs back to back) over five
// workloads that stress different layers of the simulator. It checks every
// job's simulated statistics against pinned digests and prints, as its last
// line, one JSON object with the end-to-end metrics (or, with --trace 1,
// the per-layer metrics of a profiled run). Every timing is host time;
// simulated time is never used as a performance number.
//
// Run it from the repository root through perfbench/run.sh, which builds
// it; see perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// minJobs is the fewest timed jobs a run holds, so job_ms_p90 has at least
// ten samples beyond it.
const minJobs = 100

// maxRun bounds a run's timed loop when jobs are slower than expected.
const maxRun = 120 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts checked operations and remembers the first failure.
type tally struct {
	attempted, failed int
	first             error
}

func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.first == nil {
			t.first = err
		}
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", 1, "workload seed: picks the inputs")
		seconds = flag.Int("seconds", 15, "length of the timed loop")
		traced  = flag.Int("trace", 0, "1 runs the profiled per-layer measurement instead")
		pinTo   = flag.String("pin", "", "re-pin every job's digest into this file and exit")
		table   = flag.String("table", "", "run every workload traced and write the self-time table to this file")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1, *pinTo, *table); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool, pinTo, table string) error {
	dir, err := inputDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	switch {
	case pinTo != "":
		return pinAll(pinTo, dir)
	case table != "":
		return writeTable(table, seed, seconds, dir)
	}
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	p, err := loadPins()
	if err != nil {
		return err
	}
	hostLine(w.name, seed)
	var res result
	if traced {
		lm, err := runTraced(w, seed, time.Duration(seconds)*time.Second, dir, p)
		if err != nil {
			return err
		}
		res = lm.result()
	} else {
		res, err = runTimed(w, seed, time.Duration(seconds)*time.Second, dir, p)
		if err != nil {
			return err
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// inputDir makes a private directory for generated inputs under the
// checkout's build directory.
func inputDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	d, err := os.MkdirTemp(".bench_build", "perfbench-inputs-")
	if err != nil {
		return "", err
	}
	return filepath.Abs(d)
}

// hostLine prints the context a result needs to be compared: the host,
// the toolchain, the commit and the workload seed.
func hostLine(workload string, seed int64) {
	h := map[string]any{
		"workload":   workload,
		"seed":       seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     commit(),
	}
	b, _ := json.Marshal(h) // a map of plain values always marshals
	fmt.Println("host " + string(b))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when it was built
// inside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// prepare builds the job list and runs it once untimed, so the process-wide
// trace memo and every lazy set-up are warm before anything is measured.
func prepare(w workload, seed int64, dir string, p pins, t *tally) ([]job, error) {
	jobs, err := w.jobs(seed, dir)
	if err != nil {
		return nil, fmt.Errorf("%s: inputs: %w", w.name, err)
	}
	for _, j := range jobs {
		o := runJob(j)
		if o.err == nil {
			o.err = p.check(w.name, j, o.digest)
		}
		t.record(o.err)
	}
	return jobs, nil
}

// pass is one timed sweep over the job list.
type pass struct {
	wall                time.Duration
	accesses, l1Misses  int64
	states, transitions int64
	peakMB              float64 // heap high-water mark during the pass
}

// work returns the pass's units for accesses_per_s and states_per_s: on
// simulation workloads simulated accesses and coherence transactions (L1
// misses); on the model checker transitions applied and distinct states.
func (ps pass) work(mc bool) (accesses, states float64) {
	if mc {
		return float64(ps.transitions), float64(ps.states)
	}
	return float64(ps.accesses), float64(ps.l1Misses)
}

// timedLoop submits the job list back to back, whole passes at a time,
// until d has elapsed and at least min jobs ran. afterPass, when not nil,
// runs untimed after each pass and may fill in its remaining fields.
func timedLoop(w workload, jobs []job, d time.Duration, min int, p pins, t *tally, afterPass func(*pass) error) ([]pass, []float64, error) {
	var passes []pass
	var jobMS []float64
	start := time.Now()
	for time.Since(start) < d || len(jobMS) < min {
		if time.Since(start) > maxRun {
			return nil, nil, fmt.Errorf("%s: %d jobs in %v, want %d", w.name, len(jobMS), maxRun, min)
		}
		var ps pass
		p0 := time.Now()
		for _, j := range jobs {
			t0 := time.Now()
			o := runJob(j)
			jobMS = append(jobMS, float64(time.Since(t0))/float64(time.Millisecond))
			if o.err == nil {
				o.err = p.check(w.name, j, o.digest)
			}
			t.record(o.err)
			ps.accesses += o.accesses
			ps.l1Misses += o.l1Misses
			ps.states += o.states
			ps.transitions += o.transitions
		}
		ps.wall = time.Since(p0)
		if afterPass != nil {
			if err := afterPass(&ps); err != nil {
				return nil, nil, err
			}
		}
		passes = append(passes, ps)
	}
	return passes, jobMS, nil
}

// runTimed is the untraced run behind the end-to-end metrics. Set-up is
// measured between passes, so its samples spread over the whole run like
// the passes' own; each pass starts from a collected heap.
func runTimed(w workload, seed int64, d time.Duration, dir string, p pins) (result, error) {
	var t tally
	jobs, err := prepare(w, seed, dir, p, &t)
	if err != nil {
		return result{}, err
	}
	var setup []float64
	measure := func() error {
		s, err := measureSetup(w, jobs)
		if err != nil {
			return fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setup = append(setup, s)
		return nil
	}
	runtime.GC()
	heap := startHeapSampler()
	passes, jobMS, err := timedLoop(w, jobs, d, minJobs, p, &t, func(ps *pass) error {
		ps.peakMB = heap.peakMB()
		err := measure()
		runtime.GC()
		heap.peakMB() // the set-up's own mark is not the next pass's
		return err
	})
	heap.close()
	if err != nil {
		return result{}, err
	}
	for len(setup) < setupReps {
		if err := measure(); err != nil {
			return result{}, err
		}
	}
	mc := jobs[0].mc != nil
	var acc, st, peak []float64
	for _, ps := range passes {
		a, s := ps.work(mc)
		acc = append(acc, a/ps.wall.Seconds())
		st = append(st, s/ps.wall.Seconds())
		peak = append(peak, ps.peakMB)
	}
	p90, err := percentile(jobMS, 90)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("jobs %d in %d passes; job_ms_p90 from %d samples; setup_s from %d samples\n",
		len(jobMS), len(passes), len(jobMS), len(setup))
	if t.first != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", t.first)
	}
	return result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics: map[string]metric{
			"setup_s":        {median(setup), "s"},
			"accesses_per_s": {median(acc), "1/s"},
			"states_per_s":   {median(st), "1/s"},
			"job_ms_p50":     {median(jobMS), "ms"},
			"job_ms_p90":     {p90, "ms"},
			"peak_heap_mb":   {median(peak), "MB"},
		},
	}, nil
}
