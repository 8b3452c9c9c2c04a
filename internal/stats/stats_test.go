package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero counter = %d", c.Value())
	}
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatalf("after reset = %d", c.Value())
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	var c Counter
	c.Add(-1)
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, v := range []int64{4, 8, 6} {
		h.Observe(v)
	}
	if h.Count() != 3 || h.Sum() != 18 || h.Min() != 4 || h.Max() != 8 {
		t.Fatalf("got count=%d sum=%d min=%d max=%d", h.Count(), h.Sum(), h.Min(), h.Max())
	}
	if h.Mean() != 6 {
		t.Fatalf("mean = %v, want 6", h.Mean())
	}
	wantSD := math.Sqrt((4.0 + 0 + 4) / 3)
	if math.Abs(h.StdDev()-wantSD) > 1e-9 {
		t.Fatalf("sd = %v, want %v", h.StdDev(), wantSD)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.StdDev() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramNegativeSamples(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	h.Observe(5)
	if h.Min() != -5 || h.Max() != 5 || h.Sum() != 0 {
		t.Fatalf("got min=%d max=%d sum=%d", h.Min(), h.Max(), h.Sum())
	}
}

func TestHistogramPropertyMeanWithinBounds(t *testing.T) {
	f := func(samples []int16) bool {
		if len(samples) == 0 {
			return true
		}
		var h Histogram
		for _, s := range samples {
			h.Observe(int64(s))
		}
		m := h.Mean()
		return m >= float64(h.Min())-1e-9 && m <= float64(h.Max())+1e-9 && h.StdDev() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig X", "workload", "value")
	tb.AddRow("blackscholes", "1.00")
	tb.AddRowf("canneal", 0.5)
	out := tb.String()
	for _, want := range []string{"Fig X", "workload", "blackscholes", "0.500"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, two rows
		t.Errorf("got %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestTableShortRow(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("only")
	out := tb.String()
	if !strings.Contains(out, "only") {
		t.Fatalf("missing cell: %q", out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("title ignored", "a", "b")
	tb.AddRow("x", "1.0")
	tb.AddRow(`has,comma`, `has"quote`)
	out := tb.CSV()
	want := "a,b\nx,1.0\n\"has,comma\",\"has\"\"quote\"\n"
	if out != want {
		t.Fatalf("CSV = %q, want %q", out, want)
	}
}
