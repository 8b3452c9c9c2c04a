// Package stats provides the metric-collection substrate used by every
// simulator component: counters and histograms that each component embeds
// as named fields of its own stat struct (cache.Stats, noc.Stats,
// coherence.L1Stats, core.DirStats, ...), so every counter is read back by
// field and a misspelled name is a compile error. Collection is
// allocation-free, and table.go renders aligned plain-text tables so
// experiment harnesses can print paper-style rows.
package stats

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

// Histogram accumulates integer samples: their count and their sum, from
// which a report derives the mean. The zero value is ready to use.
type Histogram struct {
	count int64
	sum   int64
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	h.count++
	h.sum += v
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 { return h.sum }
