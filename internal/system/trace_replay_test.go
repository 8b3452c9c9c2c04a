package system

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/workloads"
)

// writeReplayFiles generates per-core streams for a 4-core machine and
// writes each one twice: text format and binary format. It returns the two
// path sets.
func writeReplayFiles(t *testing.T, cores, accesses int) (textFiles, binFiles []string) {
	t.Helper()
	dir := t.TempDir()
	mix, err := workloads.Get("barnes")
	if err != nil {
		t.Fatal(err)
	}
	mix = mix.Scaled(0.5)
	for c := 0; c < cores; c++ {
		gen := func() *trace.Stream {
			s, err := trace.NewStream(mix, c, cores, accesses, 7)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}

		tp := filepath.Join(dir, nameFor(c, ".trace"))
		tf, err := os.Create(tp)
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteStream(tf, gen()); err != nil {
			t.Fatal(err)
		}
		if err := tf.Close(); err != nil {
			t.Fatal(err)
		}
		textFiles = append(textFiles, tp)

		bp := filepath.Join(dir, nameFor(c, ".btrace"))
		bf, err := os.Create(bp)
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteBinarySource(bf, gen()); err != nil {
			t.Fatal(err)
		}
		if err := bf.Close(); err != nil {
			t.Fatal(err)
		}
		binFiles = append(binFiles, bp)
	}
	return textFiles, binFiles
}

func nameFor(core int, ext string) string {
	return "core" + string(rune('0'+core)) + ext
}

// TestTraceReplayTextBinaryEquivalence pins the tentpole's correctness
// claim: replaying the same trace from the text format (slurped into
// slices) and from the binary format (streamed zero-copy through the
// mmap-backed BinarySource) must produce byte-identical Results for every
// directory organization.
func TestTraceReplayTextBinaryEquivalence(t *testing.T) {
	const cores, accesses = 4, 3000
	textFiles, binFiles := writeReplayFiles(t, cores, accesses)

	for _, kind := range DirKinds() {
		cfg := QuickConfig("")
		cfg.Cores = cores
		cfg.DirKind = kind
		cfg.Workload = ""
		cfg.TraceFiles = textFiles
		cfg.Seed = 7

		textRes, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s/text: %v", kind, err)
		}
		cfg.TraceFiles = binFiles
		binRes, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s/binary: %v", kind, err)
		}
		// Mixed: each file's format is detected on its own.
		cfg.TraceFiles = []string{textFiles[0], binFiles[1], textFiles[2], binFiles[3]}
		mixedRes, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s/mixed: %v", kind, err)
		}

		// The recorded config necessarily embeds the input paths; blank
		// them so the comparison covers only simulation outcomes.
		textRes.Config.TraceFiles = nil
		binRes.Config.TraceFiles = nil
		mixedRes.Config.TraceFiles = nil

		tj, err := json.Marshal(textRes)
		if err != nil {
			t.Fatal(err)
		}
		for name, res := range map[string]*Results{"binary": binRes, "mixed": mixedRes} {
			j, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if string(tj) != string(j) {
				t.Errorf("%s: text and %s replay results differ\ntext:   %s\n%s: %s", kind, name, tj, name, j)
			}
		}
	}
}

// TestTraceReplayMissingFileFailsBuild: a trace file that does not exist
// fails Build with its path in the error, whichever format the other
// cores replay.
func TestTraceReplayMissingFileFailsBuild(t *testing.T) {
	const cores = 4
	textFiles, binFiles := writeReplayFiles(t, cores, 100)
	missing := filepath.Join(t.TempDir(), nameFor(3, ".btrace"))
	for _, files := range [][]string{textFiles, binFiles} {
		cfg := QuickConfig("")
		cfg.Cores = cores
		cfg.Workload = ""
		cfg.TraceFiles = append(files[:cores-1:cores-1], missing)
		_, _, err := Build(cfg)
		if err == nil || !strings.Contains(err.Error(), missing) {
			t.Fatalf("Build with a missing trace file: err %v, want one naming %s", err, missing)
		}
	}
}

// TestTraceReplayBinaryParallel re-runs one binary-replay config on the
// parallel engine: streamed sources must work under tile sharding too.
func TestTraceReplayBinaryParallel(t *testing.T) {
	const cores, accesses = 4, 2000
	_, binFiles := writeReplayFiles(t, cores, accesses)

	cfg := QuickConfig("")
	cfg.Cores = cores
	cfg.Workload = ""
	cfg.TraceFiles = binFiles
	cfg.Seed = 7
	cfg.Checker = false
	cfg.Shards = 2

	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestTraceReplayBinaryTruncatedSurfaces verifies a corrupt binary trace
// fails the run with a clean error instead of silently replaying short.
func TestTraceReplayBinaryTruncatedSurfaces(t *testing.T) {
	const cores = 4
	_, binFiles := writeReplayFiles(t, cores, 2000)

	// Chop the last byte off one core's trace: a mid-record EOF.
	b, err := os.ReadFile(binFiles[2])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(binFiles[2], b[:len(b)-1], 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := QuickConfig("")
	cfg.Cores = cores
	cfg.Workload = ""
	cfg.TraceFiles = binFiles
	cfg.Seed = 7

	if _, err := Run(cfg); err == nil {
		t.Fatal("want a mid-record truncation error from the run")
	}
}
