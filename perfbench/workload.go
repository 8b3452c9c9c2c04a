package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/mcheck"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// poolSize is how many simulation seeds each workload draws its jobs from.
// pins.json holds the digest of every (workload, job, pool seed), so any
// workload seed picks inputs whose simulated statistics are pinned.
const poolSize = 64

// Job sizes. They are chosen so one job takes tens to about a hundred and
// fifty milliseconds on a 2-CPU host: a 15-second run then holds the 100
// jobs a 90th percentile with ten samples beyond it needs.
const (
	dirConflictAccesses = 1000 // per core, canneal on 16 cores
	privateAccesses     = 5000 // per core, blackscholes on 16 cores
	scaleAccesses       = 40   // per core, replayed canneal on 256 cores
	psimAccesses        = 100  // per core, canneal on 64 cores
	mcheckDepth         = 2    // stimuli per path in the 2x2 conflict slice
)

// job is one operation of the closed loop: a simulation, or a model-checker
// slice (one exploration per organization in mc).
type job struct {
	name string
	sim  *system.Config
	mc   []mcheck.Config
}

// workload is one benchmark input family. jobs builds the job list for a
// workload seed, writing any input files under dir. Why each exists is in
// BENCHMARK.json and README.md.
type workload struct {
	name string
	jobs func(seed int64, dir string) ([]job, error)
	// setupPasses is how many passes over the job list one set-up
	// measurement builds, so every workload's setup_s is milliseconds.
	setupPasses int
}

var allWorkloads = []workload{
	{
		name:        "dir-conflict-16",
		jobs:        dirConflictJobs,
		setupPasses: 1,
	},
	{
		name:        "private-16",
		jobs:        privateJobs,
		setupPasses: 1,
	},
	{
		name:        "scale-256",
		jobs:        scaleJobs,
		setupPasses: 1,
	},
	{
		name:        "psim-64",
		jobs:        psimJobs,
		setupPasses: 1,
	},
	{
		name:        "mcheck-2x2",
		jobs:        mcheckJobs,
		setupPasses: 200,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(allWorkloads))
	for i, w := range allWorkloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// poolSeeds picks n distinct simulation seeds from 1..poolSize, in an order
// fixed by the workload seed.
func poolSeeds(seed int64, n int) []int64 {
	perm := rand.New(rand.NewSource(seed)).Perm(poolSize)
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(perm[i]) + 1
	}
	return out
}

func simJob(cfg system.Config) job {
	return job{name: fmt.Sprintf("%s/seed=%d", cfg.DirKind, cfg.Seed), sim: &cfg}
}

func dirConflictConfig(kind string, seed int64) system.Config {
	cfg := system.DefaultConfig("canneal")
	cfg.DirKind = kind
	cfg.Coverage = 0.125
	cfg.AccessesPerCore = dirConflictAccesses
	cfg.Seed = seed
	return cfg
}

// dirConflictJobs rotates sparse, stash and cuckoo over six trace seeds,
// so each organization is a third of the jobs.
func dirConflictJobs(seed int64, _ string) ([]job, error) {
	var jobs []job
	for _, s := range poolSeeds(seed, 6) {
		for _, kind := range []string{system.DirSparse, system.DirStash, system.DirCuckoo} {
			jobs = append(jobs, simJob(dirConflictConfig(kind, s)))
		}
	}
	return jobs, nil
}

func privateConfig(seed int64) system.Config {
	cfg := system.DefaultConfig("blackscholes")
	cfg.DirKind = system.DirStash
	cfg.Coverage = 1
	cfg.AccessesPerCore = privateAccesses
	cfg.Seed = seed
	return cfg
}

func privateJobs(seed int64, _ string) ([]job, error) {
	var jobs []job
	for _, s := range poolSeeds(seed, 8) {
		jobs = append(jobs, simJob(privateConfig(s)))
	}
	return jobs, nil
}

// scaleTraceDir is where the binary traces of one pool seed live.
func scaleTraceDir(dir string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("scale-256-seed%d", seed))
}

// writeScaleTraces writes one binary trace per core for pool seed s: the
// canneal stream each core would generate, replayed from disk instead.
func writeScaleTraces(dir string, seed int64) ([]string, error) {
	const cores = 256
	td := scaleTraceDir(dir, seed)
	if err := os.MkdirAll(td, 0o755); err != nil {
		return nil, err
	}
	mix := workloads.MustGet("canneal")
	paths := make([]string, cores)
	for c := 0; c < cores; c++ {
		st, err := trace.NewStream(mix, c, cores, scaleAccesses, seed)
		if err != nil {
			return nil, err
		}
		paths[c] = filepath.Join(td, fmt.Sprintf("core%03d.btrace", c))
		if err := writeTrace(paths[c], st); err != nil {
			return nil, err
		}
	}
	return paths, nil
}

func writeTrace(path string, src trace.Source) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := trace.WriteBinarySource(w, src); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func scaleConfig(kind string, seed int64, traces []string) system.Config {
	cfg := system.QuickConfig("")
	cfg.Workload = ""
	cfg.Cores = 256
	cfg.TraceFiles = traces
	cfg.DirKind = kind
	cfg.Coverage = 0.125
	cfg.Seed = seed
	return cfg
}

// scaleJobs replays four trace sets: each is run once with sparse and twice
// with stash (once in its own rotation, once in the next set's), so sparse
// is a third of the jobs and both organizations see identical inputs.
func scaleJobs(seed int64, dir string) ([]job, error) {
	seeds := poolSeeds(seed, 4)
	traces := make([][]string, len(seeds))
	for i, s := range seeds {
		var err error
		if traces[i], err = writeScaleTraces(dir, s); err != nil {
			return nil, err
		}
	}
	var jobs []job
	for i, s := range seeds {
		other := (i + 1) % len(seeds)
		jobs = append(jobs,
			simJob(scaleConfig(system.DirSparse, s, traces[i])),
			simJob(scaleConfig(system.DirStash, s, traces[i])),
			simJob(scaleConfig(system.DirStash, seeds[other], traces[other])))
	}
	return jobs, nil
}

func psimConfig(seed int64, shards int) system.Config {
	cfg := system.DefaultConfig("canneal")
	cfg.Cores = 64
	cfg.DirKind = system.DirStash
	cfg.Coverage = 0.125
	cfg.AccessesPerCore = psimAccesses
	cfg.Seed = seed
	cfg.Shards = shards
	cfg.Checker = false
	return cfg
}

func psimJobs(seed int64, _ string) ([]job, error) {
	var jobs []job
	for _, s := range poolSeeds(seed, 6) {
		jobs = append(jobs, simJob(psimConfig(s, 2)))
	}
	return jobs, nil
}

func mcheckConfig(kind string) mcheck.Config {
	return mcheck.Config{Cores: 2, Addrs: 2, MaxDepth: mcheckDepth, Kind: kind}
}

// mcheckJobs is one job: the sparse and stash explorations. The checker has
// no random input; the seed only orders the two organizations.
func mcheckJobs(seed int64, _ string) ([]job, error) {
	kinds := []string{"sparse", "stash"}
	if seed%2 != 0 {
		kinds[0], kinds[1] = kinds[1], kinds[0]
	}
	j := job{name: "sparse+stash"}
	for _, k := range kinds {
		j.mc = append(j.mc, mcheckConfig(k))
	}
	return []job{j}, nil
}
