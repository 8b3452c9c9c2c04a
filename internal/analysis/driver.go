package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"sort"
	"strings"

	"repro/internal/analysis/load"
)

// Finding is one resolved diagnostic: position plus the analyzer that
// produced it.
type Finding struct {
	Position token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Position, f.Analyzer, f.Message)
}

// RunPatterns loads patterns relative to dir, runs every analyzer over each
// target package it applies to, and returns the surviving findings sorted by
// position. //stash:ignore directives suppress findings; malformed or unused
// suppressions are themselves findings, so the escape hatch cannot rot
// silently.
func RunPatterns(dir string, patterns []string, analyzers []*Analyzer) ([]Finding, error) {
	res, err := load.Load(dir, patterns)
	if err != nil {
		return nil, err
	}
	return RunLoaded(res, analyzers)
}

// RunLoaded runs the analyzers over an already-loaded result, returning the
// surviving findings sorted by position: a finding covered by a
// //stash:ignore directive is dropped where it is reported. The
// analysistest harness uses it to share the suppression and reporting logic
// with the command-line driver.
//
// Scheduling: packages are visited in the loader's dependency order
// (dependencies before dependents). An analyzer without FactTypes runs only
// on target packages, as before. An analyzer with FactTypes additionally
// runs on every dependency-only module package it applies to, with its
// diagnostics discarded, so its facts are complete by the time the targets
// are analyzed.
func RunLoaded(res *load.Result, analyzers []*Analyzer) ([]Finding, error) {
	universe := make([]*PackageInfo, 0, len(res.Packages))
	for _, p := range res.Packages {
		universe = append(universe, &PackageInfo{Pkg: p.Types, Files: p.Files, Info: p.Info})
	}
	facts := map[*Analyzer]*factSet{}
	for _, a := range analyzers {
		if len(a.FactTypes) > 0 {
			facts[a] = newFactSet(a)
		}
	}

	var findings []Finding
	for _, p := range res.Packages {
		var sup *suppressions
		ran := map[string]bool{}
		if p.Target {
			sup = newSuppressions(res.Fset, p.Files)
		}
		for _, a := range analyzers {
			if a.AppliesTo != nil && !a.AppliesTo(p.PkgPath) {
				continue
			}
			if !p.Target && facts[a] == nil {
				continue
			}
			target := p.Target
			if target {
				ran[a.Name] = true
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      res.Fset,
				Pkg:       p.Types,
				Files:     p.Files,
				TypesInfo: p.Info,
				Universe:  universe,
				facts:     facts[a],
				Report: func(d Diagnostic) {
					if !target {
						return
					}
					pos := res.Fset.Position(d.Pos)
					// Every finding is offered to the ignores: the call
					// marks the one that covers it used, and an unused
					// ignore is itself a finding.
					if sup.suppresses(a.Name, pos) {
						return
					}
					findings = append(findings, Finding{Position: pos, Analyzer: a.Name, Message: d.Message})
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", a.Name, p.PkgPath, err)
			}
		}
		if p.Target {
			findings = append(findings, sup.problems(ran)...)
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}

// Filter narrows analyzers to the comma-separated names in sel, preserving
// registration order. An empty sel keeps every analyzer; an unknown name is
// an error listing what exists, so a typo cannot silently skip a check.
func Filter(analyzers []*Analyzer, sel string) ([]*Analyzer, error) {
	if sel == "" {
		return analyzers, nil
	}
	byName := map[string]*Analyzer{}
	known := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		byName[a.Name] = a
		known = append(known, a.Name)
	}
	want := map[string]bool{}
	for _, name := range strings.Split(sel, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if byName[name] == nil {
			return nil, fmt.Errorf("unknown analyzer %q (have %s)", name, strings.Join(known, ", "))
		}
		want[name] = true
	}
	var out []*Analyzer
	for _, a := range analyzers {
		if want[a.Name] {
			out = append(out, a)
		}
	}
	return out, nil
}

// MainConfig configures the command-line driver front end shared by Main
// and MainWith.
type MainConfig struct {
	// BudgetFile, when nonempty, additionally enforces the repo's
	// directive budgets (see budget.go) against the counts committed in
	// that file. Exceeding any budget exits 3, distinct from analyzer
	// findings (1) and load errors (2).
	BudgetFile string
}

// Main is MainWith without a budget file: run the analyzers over the
// patterns (default ./...) and print findings. It returns the process exit
// code.
func Main(out io.Writer, analyzers []*Analyzer, args []string) int {
	return MainWith(out, analyzers, MainConfig{}, args)
}

// MainWith is the configurable driver entry point. It prints one finding
// per line. Exit codes: 0 clean, 1 findings, 2 load/usage errors, 3 a
// directive budget was exceeded (budget enforcement runs even when
// findings were reported, and its exit code wins: a budget breach is a
// reviewed-change gate, not a code diagnostic).
func MainWith(out io.Writer, analyzers []*Analyzer, cfg MainConfig, args []string) int {
	patterns := args
	root, err := load.ModuleDir(".")
	if err != nil {
		fmt.Fprintln(out, err)
		return 2
	}
	res, err := load.Load(root, patterns)
	if err != nil {
		fmt.Fprintln(out, err)
		return 2
	}
	findings, err := RunLoaded(res, analyzers)
	if err != nil {
		fmt.Fprintln(out, err)
		return 2
	}
	for _, f := range findings {
		fmt.Fprintln(out, f)
	}
	exit := 0
	if len(findings) > 0 {
		exit = 1
	}
	if cfg.BudgetFile != "" {
		over, err := enforceBudgets(out, root, cfg.BudgetFile)
		if err != nil {
			fmt.Fprintln(out, err)
			return 2
		}
		if over {
			exit = 3
		}
	}
	return exit
}

// suppression is one parsed //stash:ignore directive.
type suppression struct {
	pos      token.Position
	analyzer string // analyzer name or "all"
	reason   string
	used     bool
}

// suppressions indexes a package's ignore directives by file and line.
type suppressions struct {
	byLine map[string]map[int][]*suppression
	all    []*suppression
}

func newSuppressions(fset *token.FileSet, files []*ast.File) *suppressions {
	s := &suppressions{byLine: map[string]map[int][]*suppression{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := ParseDirective(c.Text)
				if !ok || d.Verb != DirectiveIgnore {
					continue
				}
				name, reason, _ := strings.Cut(d.Args, " ")
				pos := fset.Position(c.Pos())
				sp := &suppression{pos: pos, analyzer: name, reason: strings.TrimSpace(reason)}
				lines := s.byLine[pos.Filename]
				if lines == nil {
					lines = map[int][]*suppression{}
					s.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], sp)
				s.all = append(s.all, sp)
			}
		}
	}
	return s
}

// suppresses reports whether a finding by analyzer at pos is covered by an
// ignore directive on the same line or the line directly above, and marks
// the directive used.
func (s *suppressions) suppresses(analyzer string, pos token.Position) bool {
	lines := s.byLine[pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		for _, sp := range lines[line] {
			if sp.analyzer == analyzer || sp.analyzer == "all" {
				sp.used = true
				return true
			}
		}
	}
	return false
}

// problems reports malformed ignore directives (no analyzer or no reason)
// and directives naming an analyzer that ran but suppressed nothing — a sign
// the underlying issue was fixed and the escape hatch should go.
func (s *suppressions) problems(ran map[string]bool) []Finding {
	var out []Finding
	for _, sp := range s.all {
		switch {
		case sp.analyzer == "" || sp.reason == "":
			out = append(out, Finding{
				Position: sp.pos,
				Analyzer: "stashvet",
				Message:  "malformed //stash:ignore: want \"//stash:ignore <analyzer> <reason>\"",
			})
		case !sp.used && (ran[sp.analyzer] || sp.analyzer == "all"):
			out = append(out, Finding{
				Position: sp.pos,
				Analyzer: "stashvet",
				Message:  fmt.Sprintf("unused //stash:ignore %s: nothing suppressed here; remove it", sp.analyzer),
			})
		}
	}
	return out
}
