// Package analysis is a small static-analysis framework modeled on the
// golang.org/x/tools/go/analysis vocabulary (Analyzer, Pass, Diagnostic),
// reimplemented on the standard library alone so the repo stays
// dependency-free. It backs the stashvet suite (cmd/stashvet), the analyzers
// that turn this repo's runtime invariants — pool ownership, hot-path
// zero-alloc, simulation determinism, lock discipline, tile isolation — into
// build-time errors.
//
// The framework deliberately supports only what those analyzers need:
//
//   - whole-module loading with full type information (internal/analysis/load),
//   - per-package passes with access to the syntax and types of every other
//     package loaded alongside (for cross-package //stash: annotations),
//   - a cross-package facts layer (facts.go): analyzers that declare
//     FactTypes run over every applicable package in dependency order and
//     attach typed facts to objects and packages; passes over importing
//     packages read them back. This is what makes the interprocedural
//     analyzer (sharecheck) possible without SSA: each pass exports
//     per-function summaries, and callers consume them.
//   - //stash:ignore suppression with a mandatory reason,
//   - an analysistest-style fixture harness (internal/analysis/analysistest).
//
// There is still no SSA and there are no suggested fixes; analyzers work
// over the AST plus go/types, with facts as the interprocedural vocabulary.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //stash:ignore directives. Lower-case, no spaces.
	Name string

	// Doc is a one-paragraph description, shown by `stashvet -help`.
	Doc string

	// AppliesTo, when non-nil, restricts the analyzer to packages whose
	// import path it accepts, usually one Layer's (scope.go): determinism
	// scopes itself to the simulation packages while leaving the
	// runner/stashd service layer alone. A nil AppliesTo runs everywhere.
	AppliesTo func(pkgPath string) bool

	// FactTypes declares the fact types this analyzer exports and imports
	// (each entry a pointer to the zero value, e.g. new(foundFact)). A
	// non-empty FactTypes changes the driver's schedule: the analyzer runs
	// over every applicable module package in dependency order — including
	// packages loaded only as dependencies — so facts exported while
	// analyzing an imported package are available to its importers.
	// Diagnostics from dependency-only packages are discarded; only target
	// packages report.
	FactTypes []Fact

	// Run executes the check over one package.
	Run func(*Pass) error
}

// PackageInfo bundles the loaded artifacts of one package: its type
// information and (for packages in the analyzed module) its syntax.
type PackageInfo struct {
	Pkg   *types.Package
	Files []*ast.File
	Info  *types.Info
}

// Pass carries the inputs of one (analyzer, package) execution.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet

	// The package under analysis.
	Pkg       *types.Package
	Files     []*ast.File
	TypesInfo *types.Info

	// Universe lists every module package loaded in this run, including the
	// one under analysis. Analyzers that honor cross-package //stash:
	// annotations (poolcheck's acquire/release/transfer roles live on
	// declarations in other packages) scan it to build their role tables.
	Universe []*PackageInfo

	// Report delivers one diagnostic.
	Report func(Diagnostic)

	// facts is the analyzer's run-wide fact store, non-nil exactly when the
	// analyzer declares FactTypes. Accessed through the fact methods in
	// facts.go.
	facts *factSet
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}
