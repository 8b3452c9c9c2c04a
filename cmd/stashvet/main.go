// Command stashvet runs the repo's static-analysis suite: the analyzers
// that turn the simulator's runtime invariants into build-time errors.
//
//	poolcheck    pooled values (coherence messages, TBEs, NoC envelopes)
//	             must be released or ownership-transferred on every path
//	hotpath      //stash:hotpath functions must not heap-allocate
//	determinism  simulation packages must not read wall clocks, draw from
//	             global math/rand, spawn goroutines, or iterate maps
//	lockcheck    //stash:guardedby fields only touched with their mutex
//	             held; unlock on every path; declared lock order respected;
//	             typed atomics, never function-style sync/atomic
//	ctxcheck     blocking service-layer operations must be cancellable or
//	             annotated //stash:blocking; context.Context first in
//	             parameter lists and never stored in structs
//	chanleak     goroutine sends on locally-made channels need proven
//	             buffer capacity or a guaranteed receiver
//	sharecheck   tile isolation in the parallel engine: worker-reachable
//	             code writes only //stash:tileowned state; //stash:shared
//	             state is read-only unless mediated by a //stash:fold
//
// Usage:
//
//	stashvet [-run=analyzer[,analyzer]] [-json|-sarif] [-budget FILE] [packages]
//
// With no arguments it checks ./... from the enclosing module root. -run
// restricts the pass to a subset of analyzers by name; an unknown name is a
// usage error (exit 2). -json emits one diagnostic per line as NDJSON
// ({file, line, col, analyzer, message, suppressed}), including suppressed
// findings flagged as such; -sarif emits a SARIF 2.1.0 log instead (for
// code-review integrations); at most one output format may be selected. The
// exit code is unchanged by the format. -budget additionally enforces the
// directive budgets committed in FILE (//stash:ignore escapes for the
// concurrency analyzers, //stash:parallel sanctions, and //stash:fold +
// //stash:shared sanctions, counted over internal/ and cmd/).
//
// Exit status is 1 if any unsuppressed diagnostic was reported, 2 on a load
// or usage failure, and 3 when a directive budget is exceeded — distinct so
// CI can tell "fix the code" from "review the budget raise". Diagnostics
// are suppressed by an adjacent "//stash:ignore <analyzer> <reason>"
// comment; see DESIGN.md's "Static analysis" section.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/chanleak"
	"repro/internal/analysis/ctxcheck"
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/hotpath"
	"repro/internal/analysis/lockcheck"
	"repro/internal/analysis/poolcheck"
	"repro/internal/analysis/sharecheck"
)

var analyzers = []*analysis.Analyzer{
	poolcheck.Analyzer,
	hotpath.Analyzer,
	determinism.Analyzer,
	lockcheck.Analyzer,
	ctxcheck.Analyzer,
	chanleak.Analyzer,
	sharecheck.Analyzer,
}

var (
	runFlag    = flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	jsonFlag   = flag.Bool("json", false, "emit NDJSON diagnostics (one per line, suppressed findings included)")
	sarifFlag  = flag.Bool("sarif", false, "emit a SARIF 2.1.0 log (suppressed findings included with an inSource suppression)")
	budgetFlag = flag.String("budget", "", "enforce the directive budgets committed in this file (exceeded = exit 3)")
)

func main() {
	flag.Usage = usage
	flag.Parse()
	selected, err := analysis.Filter(analyzers, *runFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *jsonFlag && *sarifFlag {
		fmt.Fprintln(os.Stderr, "stashvet: -json and -sarif are mutually exclusive")
		os.Exit(2)
	}
	cfg := analysis.MainConfig{BudgetFile: *budgetFlag}
	switch {
	case *jsonFlag:
		cfg.Format = "json"
	case *sarifFlag:
		cfg.Format = "sarif"
	}
	os.Exit(analysis.MainWith(os.Stdout, selected, cfg, flag.Args()))
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: stashvet [-run=analyzer[,analyzer]] [-json|-sarif] [-budget FILE] [packages]\n\nanalyzers:\n")
	for _, a := range analyzers {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
	}
}
