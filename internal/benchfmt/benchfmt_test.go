package benchfmt

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro/internal/sim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEngineAfter1            	100000000	        23.07 ns/op	       0 B/op	       0 allocs/op
BenchmarkEngineThroughput        	      43	  59853959 ns/op	   2917184 events/sec	15883548 B/op	  387899 allocs/op
--- some stray test log line
PASS
ok  	repro/internal/sim	22.562s
`

func TestParse(t *testing.T) {
	rep, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GoOS != "linux" || rep.GoArch != "amd64" {
		t.Fatalf("header = %+v", rep)
	}
	if !strings.Contains(rep.CPU, "Xeon") {
		t.Fatalf("cpu = %q", rep.CPU)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(rep.Benchmarks))
	}
	a := rep.Benchmarks[0]
	if a.Name != "BenchmarkEngineAfter1" || a.Iterations != 100000000 || a.Pkg != "repro/internal/sim" {
		t.Fatalf("bench[0] = %+v", a)
	}
	if a.Metrics["ns/op"] != 23.07 || a.Metrics["allocs/op"] != 0 {
		t.Fatalf("bench[0] metrics = %v", a.Metrics)
	}
	e2e := rep.Benchmarks[1]
	if e2e.Metrics["events/sec"] != 2917184 {
		t.Fatalf("custom metric lost: %v", e2e.Metrics)
	}
	if e2e.Metrics["B/op"] != 15883548 {
		t.Fatalf("alloc metric lost: %v", e2e.Metrics)
	}
}

// A run over several packages prints one header per package; each
// benchmark keeps the package it ran in.
func TestParseTwoPackages(t *testing.T) {
	const out = `goos: linux
goarch: amd64
pkg: repro/internal/coherence
BenchmarkProtocolReadMiss 	 1000000	 1040 ns/op	 0 allocs/op
PASS
ok  	repro/internal/coherence	1.2s
goos: linux
goarch: amd64
pkg: repro/internal/core
BenchmarkDirectoryConflict/stash 	 5000000	 240 ns/op	 0 allocs/op
PASS
ok  	repro/internal/core	1.5s
`
	rep, err := Parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"repro/internal/coherence", "repro/internal/core"}
	if len(rep.Benchmarks) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d", len(rep.Benchmarks), len(want))
	}
	for i, b := range rep.Benchmarks {
		if b.Pkg != want[i] {
			t.Errorf("%s: pkg %q, want %q", b.Name, b.Pkg, want[i])
		}
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := Parse(strings.NewReader("PASS\nok x 1s\n")); err == nil {
		t.Fatal("empty input did not error")
	}
}
