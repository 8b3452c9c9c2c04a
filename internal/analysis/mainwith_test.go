package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestMainSuppressedFindings pins how //stash:ignore shapes the text
// output: a suppressed finding is neither printed nor counted in the exit
// code. One suppressed and one open finding exit 1 and print only the open
// one; a fully suppressed tree exits 0 and prints nothing.
func TestMainSuppressedFindings(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module fix\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "a.go"), `package fix

var A = 1

var B = 2 //stash:ignore noisy fixture: keeps the suppressed path in view
`)
	t.Chdir(dir)
	noisy := []*analysis.Analyzer{{
		Name: "noisy",
		Doc:  "flags every var",
		Run: func(p *analysis.Pass) error {
			for _, f := range p.Files {
				for _, d := range f.Decls {
					p.Reportf(d.Pos(), "flagged")
				}
			}
			return nil
		},
	}}

	var out strings.Builder
	if code := analysis.Main(&out, noisy, []string{"./..."}); code != 1 {
		t.Fatalf("exit %d, want 1 (line 3 is unsuppressed); output: %s", code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], "a.go:3:1: [noisy] flagged") {
		t.Errorf("output %q, want only the unsuppressed finding at a.go:3", out.String())
	}

	writeFile(t, filepath.Join(dir, "a.go"), `package fix

var A = 1 //stash:ignore noisy fixture: fully suppressed tree
`)
	out.Reset()
	if code := analysis.Main(&out, noisy, []string{"./..."}); code != 0 || out.Len() != 0 {
		t.Errorf("fully suppressed tree: exit %d with output %q, want 0 and nothing", code, out.String())
	}
}

// TestMainBudget pins the -budget contract: directives within budget keep
// the run green, a breach exits 3 and names the offending lines, and the
// directives are counted with the old Makefile-gate scoping (testdata
// excluded everywhere; _test.go excluded for parallel/share but counted
// for ignore).
func TestMainBudget(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "internal", "p", "testdata"), 0o755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(dir, "go.mod"), "module fix\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "internal", "p", "a.go"), `package p

//stash:parallel worker spawn reviewed here
var A = 1

//stash:shared result store reviewed here
var B = 2
`)
	// Out of scope for parallel/share: a test file and a testdata fixture.
	writeFile(t, filepath.Join(dir, "internal", "p", "a_test.go"), `package p

//stash:parallel directives in tests never count
var T = 1
`)
	writeFile(t, filepath.Join(dir, "internal", "p", "testdata", "fix.go"), `package fixture

//stash:shared fixtures never count
var F = 1
`)
	t.Chdir(dir)

	quiet := []*analysis.Analyzer{{
		Name: "quiet",
		Doc:  "reports nothing",
		Run:  func(*analysis.Pass) error { return nil },
	}}

	budget := filepath.Join(dir, "budget")
	writeFile(t, budget, "# baselines\nignore 0\nparallel 1\nshare 1\n")
	var out strings.Builder
	if code := analysis.MainWith(&out, quiet, analysis.MainConfig{BudgetFile: budget}, []string{"./..."}); code != 0 {
		t.Errorf("within budget: exit %d, want 0 (output: %s)", code, out.String())
	}

	writeFile(t, budget, "ignore 0\nparallel 0\nshare 1\n")
	out.Reset()
	if code := analysis.MainWith(&out, quiet, analysis.MainConfig{BudgetFile: budget}, []string{"./..."}); code != 3 {
		t.Errorf("over budget: exit %d, want 3 (output: %s)", code, out.String())
	}
	if !strings.Contains(out.String(), "internal/p/a.go:3") || !strings.Contains(out.String(), "//stash:parallel") {
		t.Errorf("breach report should name the offending line: %q", out.String())
	}
	if strings.Contains(out.String(), "a_test.go") || strings.Contains(out.String(), "testdata") {
		t.Errorf("out-of-scope files leaked into the count: %q", out.String())
	}

	for name, content := range map[string]string{
		"missing class":  "ignore 0\nparallel 0\n",
		"unknown class":  "ignore 0\nparallel 0\nshare 1\nbogus 3\n",
		"negative count": "ignore -1\nparallel 0\nshare 1\n",
		"not a pair":     "ignore\nparallel 0\nshare 1\n",
	} {
		writeFile(t, budget, content)
		out.Reset()
		if code := analysis.MainWith(&out, quiet, analysis.MainConfig{BudgetFile: budget}, []string{"./..."}); code != 2 {
			t.Errorf("%s: exit %d, want 2 (output: %s)", name, code, out.String())
		}
	}

	out.Reset()
	if code := analysis.MainWith(&out, quiet, analysis.MainConfig{BudgetFile: filepath.Join(dir, "nope")}, []string{"./..."}); code != 2 {
		t.Errorf("missing budget file: exit %d, want 2 (output: %s)", code, out.String())
	}
}
