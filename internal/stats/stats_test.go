package stats

import (
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
	if h.Count() != 3 || h.Sum() != 18 {
		t.Fatalf("got count=%d sum=%d, want 3 and 18", h.Count(), h.Sum())
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramNegativeSamples(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	h.Observe(5)
	if h.Count() != 2 || h.Sum() != 0 {
		t.Fatalf("got count=%d sum=%d, want 2 and 0", h.Count(), h.Sum())
	}
}

// TestHistogramPropertyMeanWithinBounds: the mean a report derives,
// Sum/Count, lies between the smallest and largest sample.
func TestHistogramPropertyMeanWithinBounds(t *testing.T) {
	f := func(samples []int16) bool {
		if len(samples) == 0 {
			return true
		}
		var h Histogram
		lo, hi := samples[0], samples[0]
		for _, s := range samples {
			h.Observe(int64(s))
			lo, hi = min(lo, s), max(hi, s)
		}
		m := float64(h.Sum()) / float64(h.Count())
		return h.Count() == int64(len(samples)) && m >= float64(lo) && m <= float64(hi)
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
