package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/system"
	"repro/internal/testutil/leakcheck"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/tables.golden")

// TestTablesGolden renders every table and figure for a tiny two-workload
// harness, as cmd/experiments prints them, and compares the text with
// testdata/tables.golden at one and at two workers: neither the order in
// which the harness runs its simulations nor the number it runs at once
// may change a byte of what it reports. Regenerate with
// `go test ./internal/experiments -run TestTablesGolden -update` only for
// an intentional change to the model or to a table.
func TestTablesGolden(t *testing.T) {
	path := filepath.Join("testdata", "tables.golden")
	for _, parallel := range []int{1, 2} {
		t.Run(fmt.Sprintf("parallel-%d", parallel), func(t *testing.T) {
			leakcheck.Check(t)
			h := NewHarness(Options{
				Quick:     true,
				Workloads: []string{"blackscholes", "canneal"},
				Parallel:  parallel,
				ConfigHook: func(c *system.Config) {
					c.AccessesPerCore = 600
					c.WorkloadScale = 0.25
				},
			})
			t.Cleanup(h.Close)
			var b strings.Builder
			for _, e := range h.Experiments() {
				tb, err := e.Run()
				if err != nil {
					t.Fatalf("%s: %v", e.ID, err)
				}
				fmt.Fprintf(&b, "== %s ==\n%s\n", e.ID, tb)
			}
			got := b.String()
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("tables diverged from %s (run with -update only for an intentional change):\n%s",
					path, firstDiff(string(want), got))
			}
		})
	}
}

// firstDiff quotes the first line where got departs from want.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\nwant %q\ngot  %q", i+1, w, g)
		}
	}
	return "identical lines, different bytes"
}
