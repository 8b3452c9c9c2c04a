// Package stats provides the metric-collection substrate used by every
// simulator component: counters and histograms that each component embeds
// as named fields of its own stat struct (cache.Stats, noc.Stats,
// coherence.L1Stats, core.DirStats, ...), so every counter is read back by
// field and a misspelled name is a compile error. Collection is
// allocation-free, and table.go renders aligned plain-text tables so
// experiment harnesses can print paper-style rows.
package stats

import "math"

// Counter is a monotonically increasing event count. The zero value is
// ready to use. Counters are not safe for concurrent use; the simulator is
// single-threaded by design (deterministic discrete-event execution).
type Counter struct {
	n int64
}

// Add increments the counter by d, which must be non-negative.
func (c *Counter) Add(d int64) {
	if d < 0 {
		panic("stats: negative increment")
	}
	c.n += d
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// Histogram accumulates integer samples and reports distribution summaries.
// The zero value is ready to use.
type Histogram struct {
	count int64
	sum   int64
	sumSq float64
	min   int64
	max   int64
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.sumSq += float64(v) * float64(v)
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 { return h.sum }

// Min returns the smallest sample, or 0 if empty.
func (h *Histogram) Min() int64 { return h.min }

// Max returns the largest sample, or 0 if empty.
func (h *Histogram) Max() int64 { return h.max }

// Mean returns the arithmetic mean, or 0 if empty.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// StdDev returns the population standard deviation, or 0 if empty.
func (h *Histogram) StdDev() float64 {
	if h.count == 0 {
		return 0
	}
	m := h.Mean()
	v := h.sumSq/float64(h.count) - m*m
	if v < 0 {
		v = 0 // numerical noise
	}
	return math.Sqrt(v)
}
