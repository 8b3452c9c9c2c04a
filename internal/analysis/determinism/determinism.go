// Package determinism implements the stashvet analyzer that keeps the
// simulation core reproducible: a run is a pure function of its config and
// seed, so the simulation packages must not read wall-clock time, draw from
// the global math/rand stream, spawn goroutines, or iterate maps in an
// order-sensitive way. The runner/stashd service layer is deliberately out of
// scope — it talks to the OS and may do all of these.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// parallelPackages are the suffixes where a //stash:parallel sanction is
// honored: the conservative parallel engine, whose workers are spawned and
// joined inside one Run call and synchronize only through its barrier.
var parallelPackages = analysis.Layer{
	"internal/psim",
}

// bannedTime lists the time package's wall-clock and timer entry points.
// (time.Duration arithmetic and constants remain fine — only observing or
// waiting on real time is banned.)
var bannedTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// allowedRand lists math/rand package-level functions that only construct
// seeded generators rather than drawing from the global source.
var allowedRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

// Analyzer is the determinism check.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock time, global math/rand, goroutines and map iteration " +
		"in simulation packages, so every run is a pure function of config and seed",
	AppliesTo: AppliesTo,
	Run:       run,
}

// AppliesTo scopes the analyzer to the deterministic simulation core.
// Everything else (cmd/, internal/runner, internal/stashd,
// internal/experiments) is service layer and exempt.
func AppliesTo(pkgPath string) bool { return analysis.SimulationLayer.Contains(pkgPath) }

// allowsParallel reports whether //stash:parallel sanctions are honored in
// the package.
func allowsParallel(pkgPath string) bool { return parallelPackages.Contains(pkgPath) }

// sanction is one //stash:parallel comment found in a file.
type sanction struct {
	pos    token.Pos
	line   int
	reason string
	used   bool
}

// parallelSanctions collects a file's //stash:parallel comments by line.
func parallelSanctions(pass *analysis.Pass, file *ast.File) (byLine map[int]*sanction, all []*sanction) {
	byLine = make(map[int]*sanction)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			d, ok := analysis.ParseDirective(c.Text)
			if !ok || d.Verb != analysis.DirectiveParallel {
				continue
			}
			s := &sanction{pos: c.Pos(), line: pass.Fset.Position(c.Pos()).Line, reason: d.Args}
			byLine[s.line] = s
			all = append(all, s)
		}
	}
	return byLine, all
}

func run(pass *analysis.Pass) error {
	parallelOK := allowsParallel(pass.Pkg.Path())
	for _, file := range pass.Files {
		byLine, all := parallelSanctions(pass, file)
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				line := pass.Fset.Position(n.Pos()).Line
				s := byLine[line]
				if s == nil {
					s = byLine[line-1]
				}
				switch {
				case s == nil:
					pass.Reportf(n.Pos(), "goroutine spawn in simulation package: the engine is single-threaded; schedule an event instead")
				case s.reason == "":
					s.used = true
					pass.Reportf(s.pos, "//stash:parallel needs a reason: //stash:parallel <why this spawn is safe and joined>")
				case !parallelOK:
					s.used = true
					pass.Reportf(n.Pos(), "//stash:parallel is only honored inside internal/psim; this package's engine is single-threaded — schedule an event instead")
				default:
					s.used = true
				}
			case *ast.RangeStmt:
				if tv, ok := pass.TypesInfo.Types[n.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						pass.Reportf(n.Pos(), "map iteration order is nondeterministic: collect and sort keys, or use a slice-backed table")
					}
				}
			case *ast.Ident:
				checkUse(pass, n)
			}
			return true
		})
		for _, s := range all {
			if !s.used {
				pass.Reportf(s.pos, "unused //stash:parallel: no go statement on this line or the next; delete the sanction")
			}
		}
	}
	return nil
}

// checkUse flags references to banned time and global math/rand functions.
// Working off Uses (not just call expressions) also catches method values and
// assignments like `now := time.Now`.
func checkUse(pass *analysis.Pass, id *ast.Ident) {
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return // methods on rand.Rand / time.Timer values are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if bannedTime[fn.Name()] {
			pass.Reportf(id.Pos(), "time.%s reads the wall clock: simulation time is sim.Engine's tick counter", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !allowedRand[fn.Name()] {
			pass.Reportf(id.Pos(), "rand.%s draws from the global source: thread a seeded *rand.Rand from the run config", fn.Name())
		}
	}
}
