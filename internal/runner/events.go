package runner

import (
	"fmt"
	"time"

	"repro/internal/system"
)

// EventKind enumerates the lifecycle notifications a Runner emits.
type EventKind int

const (
	// EventQueued fires when a job is accepted (also for jobs satisfied
	// immediately from a cache, which queue and finish in one step).
	EventQueued EventKind = iota
	// EventStarted fires when a worker begins simulating a job.
	EventStarted
	// EventFinished fires when a job completes successfully, whether from
	// a cache (CacheHit non-empty) or from a real run (Duration set).
	EventFinished
	// EventFailed fires when a job's simulation fails, panics, times out
	// or is cancelled, or when the job is cancelled before running.
	EventFailed
)

// String returns the event name used in logs and metrics documentation.
func (k EventKind) String() string {
	switch k {
	case EventQueued:
		return "queued"
	case EventStarted:
		return "started"
	case EventFinished:
		return "finished"
	case EventFailed:
		return "failed"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one structured lifecycle notification. Events are delivered
// synchronously from runner goroutines: handlers must be fast and safe for
// concurrent calls.
type Event struct {
	Kind   EventKind
	JobID  string
	Key    string
	Config system.Config
	// CacheHit is HitMemory or HitDisk when the result came from a cache,
	// empty when it was simulated.
	CacheHit string
	// Duration is the wall-clock simulation time (zero for cache hits).
	Duration time.Duration
	// Result accompanies EventFinished.
	Result *system.Results
	// Err accompanies EventFailed.
	Err error
}

func (r *Runner) emit(e Event) {
	if r.opts.Events != nil {
		r.opts.Events(e)
	}
}
