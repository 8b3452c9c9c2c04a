// Command stashsim runs a single coherence simulation and prints its
// results.
//
// Usage:
//
//	stashsim -workload canneal -dir stash -coverage 0.125 [-cores 16] [-quick]
//
// Run with -list to see the available workloads and directory kinds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	stashsim "repro"
	"repro/internal/profiling"
	"repro/internal/runner"
)

func main() {
	var (
		workload = flag.String("workload", "canneal", "workload name (see -list)")
		dirKind  = flag.String("dir", stashsim.DirStash, "directory organization (see -list)")
		coverage = flag.Float64("coverage", 1, "directory entries / aggregate L1 blocks")
		cores    = flag.Int("cores", 16, "core count (1,2,4,8,16,32,64,128,256)")
		dirWays  = flag.Int("dir-ways", 4, "directory associativity")
		accesses = flag.Int("accesses", 0, "accesses per core (0 = config default)")
		seed     = flag.Int64("seed", 1, "workload seed")
		quick    = flag.Bool("quick", false, "use the scaled-down quick machine")
		silent   = flag.Bool("silent-evictions", false, "drop clean L1 victims without notifying the directory")
		noCheck  = flag.Bool("no-checker", false, "disable the data-value oracle and audits")
		shards   = flag.Int("shards", 0, "parallel-engine worker count (0 = serial engine); implies -no-checker")
		sample   = flag.Uint64("sample-period", 20_000, "directory occupancy sampling period in cycles (0 = off)")
		traceDir = flag.String("trace-dir", "", "replay core<NN>.btrace (binary) or core<NN>.trace (text) files from this directory instead of a synthetic workload")
		jsonOut  = flag.Bool("json", false, "emit the full results as JSON instead of the text summary")
		cacheDir = flag.String("cache-dir", "", "reuse results from this disk cache directory (shared with stashd and experiments)")
		list     = flag.Bool("list", false, "list workloads and directory kinds, then exit")
	)
	prof := profiling.AddFlags(flag.CommandLine)
	flag.Parse()
	if err := prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "stashsim:", err)
		os.Exit(1)
	}
	defer prof.Stop()

	if *list {
		fmt.Printf("workloads:   %s\n", strings.Join(stashsim.Workloads(), " "))
		fmt.Printf("directories: %s\n", strings.Join(stashsim.DirKinds(), " "))
		return
	}

	cfg := stashsim.DefaultConfig(*workload)
	if *quick {
		cfg = stashsim.QuickConfig(*workload)
	}
	cfg.DirKind = *dirKind
	cfg.Coverage = *coverage
	cfg.Cores = *cores
	cfg.DirWays = *dirWays
	cfg.Seed = *seed
	cfg.SilentCleanEvictions = *silent
	cfg.Checker = !*noCheck
	cfg.Shards = *shards
	if *shards > 0 {
		// The oracle needs a global store order parallel tiles do not
		// share; Validate would reject the combination.
		cfg.Checker = false
	}
	cfg.SamplePeriod = *sample
	if *accesses > 0 {
		cfg.AccessesPerCore = *accesses
	}
	if *traceDir != "" {
		cfg.Workload = ""
		for c := 0; c < cfg.Cores; c++ {
			// Prefer a binary trace (tracegen -binary) when one exists;
			// fall back to the text format. Either replays identically —
			// system.Config sniffs the actual format by magic.
			path := filepath.Join(*traceDir, fmt.Sprintf("core%02d.btrace", c))
			if _, err := os.Stat(path); err != nil {
				path = filepath.Join(*traceDir, fmt.Sprintf("core%02d.trace", c))
			}
			cfg.TraceFiles = append(cfg.TraceFiles, path)
		}
	}

	// Execute through the shared run service so -cache-dir reuses (and
	// feeds) the same disk cache stashd and the experiment harness use,
	// and Ctrl-C stops the run, queued or simulating.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	r := runner.New(runner.Options{Workers: 1, CacheDir: *cacheDir})
	defer r.Close()
	res, err := r.Run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stashsim:", err)
		r.Close()
		stop()
		prof.Exit(1)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "stashsim:", err)
			r.Close()
			stop()
			prof.Exit(1)
		}
		return
	}
	fmt.Print(res.Summary())
}
