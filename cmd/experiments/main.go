// Command experiments regenerates the paper's tables and figures (as
// reconstructed in DESIGN.md) and prints them as aligned text tables.
//
// Usage:
//
//	experiments                     # run everything at quick scale
//	experiments -full               # paper-size machine (slow)
//	experiments -only fig3,fig6     # a subset
//	experiments -workloads canneal,barnes
//
// Experiment ids: table1 table2 fig1 fig2 fig3 fig4 fig5 fig5b fig6 fig7
// fig7b fig8 fig9 table3 fig10 fig11 fig12 fig13 fig14 fig15 scaling
// scaling-recalls.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/experiments"
	"repro/internal/profiling"
)

func main() {
	var (
		full      = flag.Bool("full", false, "use the paper-size machine instead of the quick one")
		only      = flag.String("only", "", "comma-separated experiment ids (default: all)")
		workloads = flag.String("workloads", "", "comma-separated workload subset (default: all)")
		verbose   = flag.Bool("v", false, "print per-run progress")
		parallel  = flag.Int("j", -1, "concurrent simulations (-1 = all cores)")
		cacheDir  = flag.String("cache-dir", "", "persist simulation results here so repeated invocations reuse them")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned text tables")
	)
	prof := profiling.AddFlags(flag.CommandLine)
	flag.Parse()
	if err := prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	defer prof.Stop()

	opts := experiments.Options{Quick: !*full, Parallel: *parallel, CacheDir: *cacheDir}
	if *workloads != "" {
		opts.Workloads = strings.Split(*workloads, ",")
	}
	if *verbose {
		opts.Progress = func(msg string) { fmt.Fprintln(os.Stderr, msg) }
	}
	all := experiments.NewHarness(opts).Experiments()

	valid := make([]string, len(all))
	for i, e := range all {
		valid[i] = e.ID
	}
	selected := map[string]bool{}
	var unknown []string
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" && !selected[id] {
			selected[id] = true
			if !slices.Contains(valid, id) {
				unknown = append(unknown, id)
			}
		}
	}
	if len(unknown) > 0 {
		slices.Sort(unknown)
		fmt.Fprintf(os.Stderr, "experiments: unknown ids %v\nvalid ids: %s\n",
			unknown, strings.Join(valid, " "))
		prof.Exit(2)
	}

	for _, e := range all {
		if len(selected) > 0 && !selected[e.ID] {
			continue
		}
		tb, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.ID, err)
			prof.Exit(1)
		}
		if *csv {
			fmt.Printf("# %s\n%s\n", e.ID, tb.CSV())
		} else {
			fmt.Printf("== %s ==\n%s\n", e.ID, tb)
		}
	}
}
