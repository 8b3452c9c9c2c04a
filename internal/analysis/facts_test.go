package analysis_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
)

func mkdirAll(p string) error { return os.MkdirAll(p, 0o755) }

// markFact records which package exported a fact on its Token variable.
type markFact struct {
	Label string
}

func (*markFact) AFact() {}

// writeDiamond lays out a diamond dependency: a imports b and c, both of
// which import d.
func writeDiamond(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module fix\n\ngo 1.22\n")
	mk := func(pkg, imports string) {
		if err := mkdirAll(filepath.Join(dir, pkg)); err != nil {
			t.Fatal(err)
		}
		writeFile(t, filepath.Join(dir, pkg, pkg+".go"),
			fmt.Sprintf("package %s\n\n%s\nvar Token = 0\n", pkg, imports))
	}
	mk("d", "")
	mk("b", "import _ \"fix/d\"\n")
	mk("c", "import _ \"fix/d\"\n")
	mk("a", "import (\n\t_ \"fix/b\"\n\t_ \"fix/c\"\n)\n")
	return dir
}

// factTracer exports a markFact on each package's Token and logs, per pass,
// which dependency facts were already visible. The log is the order probe:
// facts must have arrived from every direct dependency by the time the
// dependent package is analyzed.
func factTracer(log *[]string) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name:      "facttrace",
		Doc:       "traces fact propagation order",
		FactTypes: []analysis.Fact{new(markFact)},
		Run: func(p *analysis.Pass) error {
			*log = append(*log, "visit "+p.Pkg.Name())
			for _, dep := range p.Pkg.Imports() {
				tok := dep.Scope().Lookup("Token")
				var f markFact
				if tok != nil && p.ImportObjectFact(tok, &f) {
					*log = append(*log, fmt.Sprintf("%s sees %s", p.Pkg.Name(), f.Label))
				}
			}
			if tok := p.Pkg.Scope().Lookup("Token"); tok != nil {
				p.ExportObjectFact(tok, &markFact{Label: p.Pkg.Name()})
				p.Reportf(tok.Pos(), "token in %s", p.Pkg.Name())
			}
			return nil
		},
	}
}

// TestFactsDiamondOrder proves facts flow in dependency order across a
// three-level diamond, deterministically across runs: every pass sees the
// facts of all its direct dependencies, and repeated runs produce an
// identical schedule.
func TestFactsDiamondOrder(t *testing.T) {
	dir := writeDiamond(t)

	var first []string
	for run := 0; run < 3; run++ {
		var log []string
		findings, err := analysis.RunPatterns(dir, []string{"./..."}, []*analysis.Analyzer{factTracer(&log)})
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"b sees d", "c sees d", "a sees b", "a sees c"} {
			if !slices.Contains(log, want) {
				t.Errorf("run %d: log %v missing %q", run, log, want)
			}
		}
		idx := func(s string) int { return slices.Index(log, s) }
		if idx("visit d") > idx("visit b") || idx("visit d") > idx("visit c") {
			t.Errorf("run %d: d analyzed after a dependent: %v", run, log)
		}
		if idx("visit b") > idx("visit a") || idx("visit c") > idx("visit a") {
			t.Errorf("run %d: a analyzed before a dependency: %v", run, log)
		}
		if len(findings) != 4 {
			t.Errorf("run %d: %d findings, want 4 (one Token per package)", run, len(findings))
		}
		if run == 0 {
			first = log
		} else if !slices.Equal(log, first) {
			t.Errorf("run %d schedule differs:\n  first: %v\n  now:   %v", run, first, log)
		}
	}
}

// TestFactsDependencyOnlyPasses pins the fact-analyzer schedule for
// dependency-only packages: targeting just fix/a still runs the analyzer
// over b, c and d (their facts must exist), but their diagnostics are
// discarded — only the target reports.
func TestFactsDependencyOnlyPasses(t *testing.T) {
	dir := writeDiamond(t)

	var log []string
	findings, err := analysis.RunPatterns(dir, []string{"./a"}, []*analysis.Analyzer{factTracer(&log)})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"visit d", "visit b", "visit c", "a sees b", "a sees c"} {
		if !slices.Contains(log, want) {
			t.Errorf("log %v missing %q", log, want)
		}
	}
	if len(findings) != 1 || !strings.Contains(findings[0].Message, "token in a") {
		t.Errorf("findings = %v; want exactly a's own token diagnostic", findings)
	}
}
