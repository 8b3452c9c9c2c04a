// Package benchfmt parses the text output of `go test -bench` into a
// structured report, so the Makefile can persist benchmark runs as JSON
// (BENCH_engine.json) and the repo records its performance trajectory
// across PRs.
package benchfmt

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the benchmark name with the leading "Benchmark" and any
	// -cpu suffix kept verbatim (e.g. "BenchmarkEngineAfter1-8").
	Name string `json:"name"`
	// Pkg is the import path of the package the benchmark ran in: the
	// "pkg:" line in effect when its result line was printed.
	Pkg string `json:"pkg,omitempty"`
	// Iterations is the b.N the reported averages were taken over.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit -> value, e.g. "ns/op": 23.07, "allocs/op": 0,
	// plus any custom b.ReportMetric units such as "events/sec".
	Metrics map[string]float64 `json:"metrics"`
}

// Report is one benchmark run: the environment header lines plus every
// benchmark result in input order.
type Report struct {
	GeneratedAt time.Time   `json:"generatedAt"`
	GoOS        string      `json:"goos,omitempty"`
	GoArch      string      `json:"goarch,omitempty"`
	CPU         string      `json:"cpu,omitempty"`
	Benchmarks  []Benchmark `json:"benchmarks"`
}

// Parse reads `go test -bench` text output. Unrecognized lines (PASS, ok,
// test logs) are skipped; a stream with no benchmark lines is an error.
func Parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.GoOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.GoArch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseBenchLine(line); ok {
				b.Pkg = pkg
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchfmt: no benchmark result lines in input")
	}
	return rep, nil
}

// parseBenchLine parses "BenchmarkName  N  v1 unit1  v2 unit2 ...".
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	// Need at least name, iterations and one value/unit pair.
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Iterations: iters, Metrics: make(map[string]float64)}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}
