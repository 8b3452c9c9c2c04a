package determinism_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/determinism"
)

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, determinism.Analyzer, "./src/internal/coherence", "./src/internal/psim", "./src/runner")
}

func TestAppliesTo(t *testing.T) {
	for path, want := range map[string]bool{
		"repro/internal/sim":         true,
		"repro/internal/psim":        true,
		"repro/internal/coherence":   true,
		"fixture/src/internal/noc":   true,
		"repro/internal/mcheck":      true,
		"repro/internal/experiments": true,
		"repro/internal/runner":      false,
		"repro/internal/stashd":      false,
		"repro/cmd/stashvet":         false,
	} {
		if got := determinism.AppliesTo(path); got != want {
			t.Errorf("AppliesTo(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestParallelSanctionHygiene checks the //stash:parallel diagnostics that
// land on the directive's own line — a reasonless sanction and a sanction
// attached to no go statement — which the want-comment fixtures cannot
// express (a line comment cannot share its line with a want comment).
func TestParallelSanctionHygiene(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module fix\n\ngo 1.22\n")
	write("internal/psim/p.go", `package psim

func loop() {}

func bare() {
	//stash:parallel
	go loop()
}

func orphan() {
	//stash:parallel nothing spawns on this line or the next
	_ = 0
}
`)

	findings, err := analysis.RunPatterns(dir, []string{"./..."}, []*analysis.Analyzer{determinism.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	wantSubstrings := map[int]string{
		6:  "//stash:parallel needs a reason",
		11: "unused //stash:parallel",
	}
	for _, f := range findings {
		want, ok := wantSubstrings[f.Position.Line]
		if !ok {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		if !strings.Contains(f.Message, want) {
			t.Errorf("line %d: message %q does not contain %q", f.Position.Line, f.Message, want)
		}
		delete(wantSubstrings, f.Position.Line)
	}
	for line, want := range wantSubstrings {
		t.Errorf("line %d: missing finding containing %q", line, want)
	}
}
