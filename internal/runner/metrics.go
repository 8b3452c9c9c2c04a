package runner

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// latencyWindow keeps the most recent real-run latencies for percentile
// estimates; a fixed ring bounds memory on long-lived servers.
const latencyWindow = 1024

// counters is the runner's internal mutable metric state. Every counter is
// a lock-free atomic — hot-path increments must not contend on a mutex —
// and only the latency ring, whose three fields mutate together, takes a
// lock.
type counters struct {
	queued    atomic.Int64
	started   atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	coalesced atomic.Int64

	hitsMemory atomic.Int64
	hitsDisk   atomic.Int64
	misses     atomic.Int64
	diskErrors atomic.Int64

	inFlight atomic.Int64

	latMu  sync.Mutex
	lats   [latencyWindow]time.Duration //stash:guardedby latMu
	latLen int                          //stash:guardedby latMu
	latPos int                          //stash:guardedby latMu
}

func (c *counters) recordLatency(d time.Duration) {
	c.latMu.Lock()
	c.lats[c.latPos] = d
	c.latPos = (c.latPos + 1) % latencyWindow
	if c.latLen < latencyWindow {
		c.latLen++
	}
	c.latMu.Unlock()
}

func (c *counters) percentiles() (p50, p95 time.Duration) {
	c.latMu.Lock()
	sorted := make([]time.Duration, c.latLen)
	copy(sorted, c.lats[:c.latLen])
	c.latMu.Unlock()
	if len(sorted) == 0 {
		return 0, 0
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := func(q float64) time.Duration {
		i := int(q * float64(len(sorted)-1))
		return sorted[i]
	}
	return at(0.50), at(0.95)
}

// Metrics is a point-in-time snapshot of the runner's aggregate counters.
type Metrics struct {
	// Job lifecycle totals.
	JobsQueued    int64
	JobsStarted   int64
	JobsCompleted int64
	JobsFailed    int64
	// JobsCoalesced counts submissions that attached to an identical job
	// already queued or running instead of spawning their own.
	JobsCoalesced int64

	// Cache outcomes, judged at submission time.
	CacheHitsMemory int64
	CacheHitsDisk   int64
	CacheMisses     int64
	// CacheWriteErrors counts failed disk-cache persists (the run itself
	// still succeeds).
	CacheWriteErrors int64

	// InFlight is the number of workers currently simulating.
	InFlight int64
	// QueueDepth is the number of jobs queued but not yet started.
	QueueDepth int64

	// Latency percentiles over the last real (non-cached) runs.
	RunLatencyP50 time.Duration
	RunLatencyP95 time.Duration
}

// Metrics snapshots the runner's counters.
func (r *Runner) Metrics() Metrics {
	c := &r.met
	p50, p95 := c.percentiles()
	return Metrics{
		JobsQueued:       c.queued.Load(),
		JobsStarted:      c.started.Load(),
		JobsCompleted:    c.completed.Load(),
		JobsFailed:       c.failed.Load(),
		JobsCoalesced:    c.coalesced.Load(),
		CacheHitsMemory:  c.hitsMemory.Load(),
		CacheHitsDisk:    c.hitsDisk.Load(),
		CacheMisses:      c.misses.Load(),
		CacheWriteErrors: c.diskErrors.Load(),
		InFlight:         c.inFlight.Load(),
		QueueDepth:       int64(r.QueueDepth()),
		RunLatencyP50:    p50,
		RunLatencyP95:    p95,
	}
}

// CacheHits returns the combined memory+disk hit count.
func (m Metrics) CacheHits() int64 { return m.CacheHitsMemory + m.CacheHitsDisk }
