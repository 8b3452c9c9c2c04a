package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"runtime/pprof"
	"time"

	stashsim "repro"
	"repro/internal/mcheck"
	"repro/internal/noc"
	"repro/internal/runner"
	"repro/internal/stashd"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// The traced run measures layers from outside: spans around calls into
// each layer's public functions (system.Build, Fabric.Drive, system.Run,
// runner.Run, stashd's ServeHTTP, the trace readers), exact work counts
// from the simulated results, and CPU-profile self-time shares for the
// fine-grained layers the spans cannot separate.

// perLayer lists every per-layer metric with its unit, in print order. A
// metric that does not apply to a workload reads 0.
var perLayer = []struct{ name, unit string }{
	{"traced.accesses_per_s", "1/s"},
	{"traced.states_per_s", "1/s"},
	{"profile.coverage", "ratio"},
	{"spans.accounted_share", "ratio"},
	{"system.build_ms", "ms"},
	{"system.drive_share", "ratio"},
	{"system.collect_ms", "ms"},
	{"system.share", "ratio"},
	{"runner.overhead_ms", "ms"},
	{"runner.share", "ratio"},
	{"stashd.overhead_ms", "ms"},
	{"trace.ns_per_access", "ns"},
	{"trace.share", "ratio"},
	{"sim.events_per_access", "count"},
	{"sim.share", "ratio"},
	{"noc.flit_hops_per_access", "count"},
	{"noc.msgs_per_access", "count"},
	{"noc.share", "ratio"},
	{"cache.l1_hit_rate", "ratio"},
	{"cache.llc_miss_rate", "ratio"},
	{"cache.share", "ratio"},
	{"core.dir_lookups_per_access", "count"},
	{"core.dir_hit_rate", "ratio"},
	{"core.cuckoo_relocations_per_alloc", "count"},
	{"core.share", "ratio"},
	{"coherence.discovery_found_ratio", "ratio"},
	{"coherence.recall_invs_per_access", "count"},
	{"coherence.share", "ratio"},
	{"coherence.checker_share", "ratio"},
	{"psim.slowdown_vs_serial", "ratio"},
	{"psim.share", "ratio"},
	{"mcheck.transitions_per_state", "count"},
	{"mcheck.share", "ratio"},
	{"runtime.share", "ratio"},
	{"runtime.sched_share", "ratio"},
	{"runtime.gc_share", "ratio"},
	{"runtime.alloc_mb_per_job", "MB"},
	{"other.share", "ratio"},
}

// layerRun is the outcome of a traced run.
type layerRun struct {
	t       tally
	m       map[string]float64
	profile profileSummary
	// Per-access host cost and counts, for the self-time table.
	nsPerAccess float64
}

func (lr layerRun) result() result {
	ms := make(map[string]metric, len(perLayer))
	for _, pl := range perLayer {
		ms[pl.name] = metric{lr.m[pl.name], pl.unit}
	}
	return result{Correct: lr.t.failed == 0, Attempted: lr.t.attempted, Failed: lr.t.failed, Metrics: ms}
}

// spans holds one pass of per-job span durations (seconds).
type spans struct {
	facade, sysrun, build, drive, close, noChecker, serialDrive, traceRead float64
}

// sim collects the exact simulated counts of one pass.
type simCounts struct {
	accesses, events, flitHops, msgs, l1Hits, llcAcc, llcMiss   int64
	dirLookups, dirHits, relocations, allocs, broadcasts, found int64
	recallInvs                                                  int64
}

func (c *simCounts) add(r *system.Results, msgs int64) {
	c.accesses += r.Loads + r.Stores
	c.events += int64(r.EventsRun)
	c.flitHops += r.TotalFlitHops
	c.msgs += msgs
	c.l1Hits += r.L1Hits
	c.llcAcc += r.LLCAccesses
	c.llcMiss += r.LLCMisses
	c.dirLookups += r.DirLookups
	c.dirHits += r.DirHits
	c.relocations += r.CuckooRelocations
	c.allocs += r.DirAllocations
	c.broadcasts += r.DiscoveryBroadcasts
	c.found += r.DiscoveryFound
	c.recallInvs += r.InvsRecall
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func runTraced(w workload, seed int64, d time.Duration, dir string, p pins) (layerRun, error) {
	var lr layerRun
	lr.m = map[string]float64{}
	jobs, err := prepare(w, seed, dir, p, &lr.t)
	if err != nil {
		return lr, err
	}
	mc := jobs[0].mc != nil

	// Phase A: the closed loop of the untraced run under the CPU profiler.
	var buf bytes.Buffer
	runtime.GC()
	alloc0 := allocBytes()
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return lr, err
	}
	passes, jobMS, err := timedLoop(w, jobs, d/2, 0, p, &lr.t, nil)
	pprof.StopCPUProfile()
	if err != nil {
		return lr, err
	}
	allocs := allocBytes() - alloc0
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		return lr, err
	}
	prof := summarize(samples)
	lr.profile = prof

	var acc, st []float64
	var wall float64
	var work pass
	for _, ps := range passes {
		a, s := ps.work(mc)
		acc = append(acc, a/ps.wall.Seconds())
		st = append(st, s/ps.wall.Seconds())
		wall += ps.wall.Seconds()
		work.states += ps.states
		work.transitions += ps.transitions
		work.accesses += ps.accesses
	}
	m := lr.m
	m["traced.accesses_per_s"] = median(acc)
	m["traced.states_per_s"] = median(st)
	m["profile.coverage"] = float64(prof.totalNS) / 1e9 / wall
	for _, l := range layers {
		m[l+".share"] = prof.share(l)
	}
	m["runtime.sched_share"] = ratio(float64(prof.schedNS), float64(prof.totalNS))
	m["runtime.gc_share"] = ratio(float64(prof.gcNS), float64(prof.totalNS))
	m["runtime.alloc_mb_per_job"] = float64(allocs) / float64(len(jobMS)) / (1 << 20)
	if mc {
		m["mcheck.transitions_per_state"] = ratio(float64(work.transitions), float64(work.states))
		lr.nsPerAccess = wall * 1e9 / float64(work.transitions)
		// Phase B: each pass times every job whole and each of its
		// explorations (one mcheck.Run span per organization) on its own,
		// alternating which comes first.
		var covered []float64
		start := time.Now()
		for pass := 0; pass == 0 || time.Since(start) < d/2; pass++ {
			var w0, p0 float64
			for _, j := range jobs {
				w1, p1, err := mcheckSpans(w.name, j, pass%2 == 1, p, &lr.t)
				if err != nil {
					return lr, err
				}
				w0, p0 = w0+w1, p0+p1
			}
			covered = append(covered, p0/w0)
		}
		m["spans.accounted_share"] = median(covered)
		return lr, nil
	}
	lr.nsPerAccess = wall * 1e9 / float64(work.accesses)

	// Phase B: per-job spans, unprofiled, repeated for the rest of d.
	per := make([][]spans, len(jobs))
	var counts simCounts
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d/2; pass++ {
		if time.Since(start) > maxRun {
			return lr, fmt.Errorf("%s: traced spans exceeded %v", w.name, maxRun)
		}
		for i, j := range jobs {
			s, r, msgs, err := jobSpans(w.name, j, p, &lr.t)
			if err != nil {
				return lr, err
			}
			per[i] = append(per[i], s)
			if pass == 0 {
				counts.add(r, msgs)
			}
		}
	}

	// Per-job medians, summed over the job list.
	var sum spans
	var checkerOn, checkerDelta float64
	for i := range jobs {
		med := func(f func(s spans) float64) float64 {
			v := make([]float64, len(per[i]))
			for k, s := range per[i] {
				v[k] = f(s)
			}
			return median(v)
		}
		sum.facade += med(func(s spans) float64 { return s.facade })
		sum.build += med(func(s spans) float64 { return s.build })
		sum.drive += med(func(s spans) float64 { return s.drive })
		sum.close += med(func(s spans) float64 { return s.close })
		sum.traceRead += med(func(s spans) float64 { return s.traceRead })
		sum.serialDrive += med(func(s spans) float64 { return s.serialDrive })
		if jobs[i].sim.Checker {
			checkerOn += med(func(s spans) float64 { return s.sysrun })
			checkerDelta += med(func(s spans) float64 { return s.sysrun - s.noChecker })
		}
	}
	overhead, stashdOver, err := overheadSpans(w.name, jobs, &lr.t)
	if err != nil {
		return lr, err
	}
	n := float64(len(jobs))
	a := float64(counts.accesses)
	// What system.Run does after Drive and the sources' teardown is the
	// results walk; it is too short to resolve as a difference of spans,
	// so it is read from the profile.
	collect := float64(prof.collectNS) / 1e9 / float64(len(jobMS))
	m["system.build_ms"] = sum.build / n * 1e3
	m["system.drive_share"] = sum.drive / sum.facade
	m["system.collect_ms"] = collect * 1e3
	m["runner.overhead_ms"] = overhead * 1e3
	m["stashd.overhead_ms"] = stashdOver * 1e3
	m["trace.ns_per_access"] = sum.traceRead * 1e9 / a
	m["sim.events_per_access"] = float64(counts.events) / a
	m["noc.flit_hops_per_access"] = float64(counts.flitHops) / a
	m["noc.msgs_per_access"] = float64(counts.msgs) / a
	m["cache.l1_hit_rate"] = float64(counts.l1Hits) / a
	m["cache.llc_miss_rate"] = ratio(float64(counts.llcMiss), float64(counts.llcAcc))
	m["core.dir_lookups_per_access"] = float64(counts.dirLookups) / a
	m["core.dir_hit_rate"] = ratio(float64(counts.dirHits), float64(counts.dirLookups))
	m["core.cuckoo_relocations_per_alloc"] = ratio(float64(counts.relocations), float64(counts.allocs))
	m["coherence.discovery_found_ratio"] = ratio(float64(counts.found), float64(counts.broadcasts))
	m["coherence.recall_invs_per_access"] = float64(counts.recallInvs) / a
	m["coherence.checker_share"] = ratio(checkerDelta, checkerOn)
	m["psim.slowdown_vs_serial"] = ratio(sum.drive, sum.serialDrive)
	// The spans of a job (build, drive, source teardown) plus the results
	// walk and the runner hand-off should add up to the job time measured
	// through the facade in the same round of calls. Each round's ratio
	// pairs measurements taken moments apart; the median over every job
	// and pass is reported.
	var covered []float64
	for _, ps := range per {
		for _, s := range ps {
			covered = append(covered, (s.build+s.drive+s.close)/s.facade)
		}
	}
	m["spans.accounted_share"] = median(covered) + (collect+overhead)*n/sum.facade
	return lr, nil
}

// jobSpans runs one simulation job through each layer in turn and times
// every call. It returns the spans, the facade's results and the number of
// NoC messages the decomposed drive sent.
func jobSpans(wname string, j job, p pins, t *tally) (spans, *system.Results, int64, error) {
	var s spans
	cfg := *j.sim
	check := func(r *system.Results, err error) {
		if err == nil {
			err = p.check(wname, j, simDigest(r))
		}
		t.record(err)
	}

	// Each call starts from a collected heap, so garbage one call left
	// behind is not charged to the next.
	runtime.GC()
	t0 := time.Now()
	res, err := stashsim.Run(cfg)
	s.facade = time.Since(t0).Seconds()
	check(res, err)
	if err != nil {
		return s, nil, 0, err
	}

	runtime.GC()
	t0 = time.Now()
	r, err := system.Run(cfg)
	s.sysrun = time.Since(t0).Seconds()
	check(r, err)

	runtime.GC()
	t0 = time.Now()
	b, err := build(cfg)
	s.build = time.Since(t0).Seconds()
	if err != nil {
		return s, nil, 0, err
	}
	t0 = time.Now()
	err = b.drive()
	s.drive = time.Since(t0).Seconds()
	t0 = time.Now()
	b.close()
	s.close = time.Since(t0).Seconds()
	if err != nil {
		return s, nil, 0, err
	}
	var msgs int64
	for c := noc.Class(0); c < noc.NumClasses; c++ {
		msgs += b.root().Mesh.Messages(c)
	}

	if cfg.Checker {
		off := cfg
		off.Checker = false
		runtime.GC()
		t0 = time.Now()
		_, err = system.Run(off)
		s.noChecker = time.Since(t0).Seconds()
		if err != nil {
			return s, nil, 0, err
		}
	}
	if cfg.Shards > 0 {
		serial := cfg
		serial.Shards = 0
		sb, err := build(serial)
		if err != nil {
			return s, nil, 0, err
		}
		runtime.GC()
		t0 = time.Now()
		err = sb.drive()
		s.serialDrive = time.Since(t0).Seconds()
		sb.close()
		if err != nil {
			return s, nil, 0, err
		}
	}

	t0 = time.Now()
	if err := readInputs(cfg); err != nil {
		return s, nil, 0, err
	}
	s.traceRead = time.Since(t0).Seconds()
	return s, res, msgs, nil
}

// overheadReps is how many times overheadSpans times each twin.
const overheadReps = 15

// thinTwin is cfg cut to one access per core: the same machine, so the
// same per-job fixed costs, with almost no simulation to hide them in
// noise. A trace-replay job's twin is generator-driven.
func thinTwin(cfg system.Config) system.Config {
	if len(cfg.TraceFiles) != 0 {
		cfg.TraceFiles = nil
		cfg.Workload = "canneal"
	}
	cfg.AccessesPerCore = 1
	return cfg
}

// overheadSpans measures the per-job fixed costs of the layers above
// system.Run: the runner's (stashsim.Run − system.Run) and the run
// service's (an in-process POST to stashd − runner.Run). Each difference
// is taken between adjacent calls on the thin twin of a job, and the
// medians over every distinct twin and repetition are returned in seconds.
func overheadSpans(wname string, jobs []job, t *tally) (runnerS, stashdS float64, err error) {
	rn := runner.New(runner.Options{Workers: 1, DisableCache: true})
	defer rn.Close()
	srv := stashd.NewServer(rn)
	seen := map[string]bool{}
	var twins []system.Config
	for _, j := range jobs {
		thin := thinTwin(*j.sim)
		if k := fmt.Sprintf("%+v", thin); !seen[k] {
			seen[k] = true
			twins = append(twins, thin)
		}
	}
	timed := func(run func() (*system.Results, error)) (float64, error) {
		runtime.GC()
		t0 := time.Now()
		r, err := run()
		d := time.Since(t0).Seconds()
		if err == nil && r.Loads+r.Stores == 0 {
			err = fmt.Errorf("%s: thin twin ran no accesses", wname)
		}
		t.record(err)
		return d, err
	}
	var rd, sd []float64
	for rep := 0; rep < overheadReps; rep++ {
		for _, cfg := range twins {
			var d [4]float64
			for i, run := range []func() (*system.Results, error){
				func() (*system.Results, error) { return stashsim.Run(cfg) },
				func() (*system.Results, error) { return system.Run(cfg) },
				func() (*system.Results, error) { return rn.Run(context.Background(), cfg) },
				func() (*system.Results, error) { return serveRun(srv, cfg) },
			} {
				if d[i], err = timed(run); err != nil {
					return 0, 0, err
				}
			}
			rd = append(rd, d[0]-d[1])
			sd = append(sd, d[3]-d[2])
		}
	}
	return median(rd), median(sd), nil
}

// mcheckSpans times a model-checker job whole, as the closed loop runs it,
// and the sum of its explorations, each timed on its own; partsFirst says
// which goes first. Both start from a collected heap.
func mcheckSpans(wname string, j job, partsFirst bool, p pins, t *tally) (whole, parts float64, err error) {
	timeWhole := func() error {
		runtime.GC()
		t0 := time.Now()
		o := runJob(j)
		whole = time.Since(t0).Seconds()
		if o.err != nil {
			t.record(o.err)
			return o.err
		}
		t.record(p.check(wname, j, o.digest)) // a mismatch is counted, not fatal
		return nil
	}
	timeParts := func() error {
		runtime.GC()
		for _, c := range j.mc {
			t0 := time.Now()
			if _, err := mcheck.Run(c); err != nil {
				return err
			}
			parts += time.Since(t0).Seconds()
		}
		return nil
	}
	order := []func() error{timeWhole, timeParts}
	if partsFirst {
		order[0], order[1] = order[1], order[0]
	}
	for _, f := range order {
		if err := f(); err != nil {
			return 0, 0, err
		}
	}
	return whole, parts, nil
}

// serveRun submits cfg to the run service in-process: a POST /run (or
// /internal/run when the request API cannot express cfg, as for trace
// files) handed straight to ServeHTTP with a recorder, so no socket is
// opened.
func serveRun(h http.Handler, cfg system.Config) (*system.Results, error) {
	path, body := "/internal/run", any(stashd.InternalRunRequest{Config: cfg})
	if len(cfg.TraceFiles) == 0 {
		checker := cfg.Checker
		rr := stashd.RunRequest{
			Workload: cfg.Workload, DirKind: cfg.DirKind, Coverage: cfg.Coverage, Cores: cfg.Cores,
			AccessesPerCore: cfg.AccessesPerCore, Seed: cfg.Seed, Checker: &checker, Shards: cfg.Shards,
		}
		if got, err := rr.Config(); err == nil && reflect.DeepEqual(got, cfg) {
			path, body = "/run", rr
		}
	}
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("stashd %s: %d %s", path, rec.Code, rec.Body.String())
	}
	var resp stashd.RunResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return nil, fmt.Errorf("stashd %s: %w", path, err)
	}
	return resp.Result, nil
}

// readInputs reads every core's access stream of cfg on its own, exactly
// as the simulation does: replayed (memoized) generator streams, or the
// binary trace files.
func readInputs(cfg system.Config) error {
	if len(cfg.TraceFiles) != 0 {
		for _, path := range cfg.TraceFiles {
			src, err := trace.OpenBinary(path)
			if err != nil {
				return err
			}
			for _, ok := src.Next(); ok; _, ok = src.Next() {
			}
			err = src.Err()
			src.Close()
			if err != nil {
				return err
			}
		}
		return nil
	}
	mix, err := workloads.Get(cfg.Workload)
	if err != nil {
		return err
	}
	mix = mix.Scaled(cfg.WorkloadScale)
	for c := 0; c < cfg.Cores; c++ {
		st, err := trace.NewStream(mix, c, cfg.Cores, cfg.AccessesPerCore, cfg.Seed)
		if err != nil {
			return err
		}
		for _, ok := st.Next(); ok; _, ok = st.Next() {
		}
	}
	return nil
}
