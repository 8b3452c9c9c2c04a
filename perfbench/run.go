package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	stashsim "repro"
	"repro/internal/coherence"
	"repro/internal/mcheck"
	"repro/internal/system"
)

// outcome is what one job produced: its simulated work and its digest.
type outcome struct {
	accesses    int64 // simulated memory accesses completed
	l1Misses    int64 // coherence transactions (L1 misses)
	states      int64 // model checker: distinct states
	transitions int64 // model checker: transitions applied
	digest      string
	err         error
}

// runJob executes a job the way a library user does: a simulation through
// the public facade stashsim.Run (which goes through internal/runner), a
// model-checker slice through mcheck.Run.
func runJob(j job) outcome {
	if j.sim != nil {
		return simOutcome(stashsim.Run(*j.sim))
	}
	var rs []*mcheck.Result
	var o outcome
	for _, c := range j.mc {
		r, err := mcheck.Run(c)
		if err != nil {
			return outcome{err: err}
		}
		rs = append(rs, r)
		o.states += int64(r.States)
		o.transitions += int64(r.Transitions)
	}
	o.digest = mcheckJobDigest(rs)
	return o
}

func simOutcome(r *system.Results, err error) outcome {
	if err != nil {
		return outcome{err: err}
	}
	return outcome{
		accesses: r.Loads + r.Stores,
		l1Misses: r.L1Misses,
		digest:   simDigest(r),
	}
}

// built is a machine assembled but not driven.
type built struct {
	fab   *coherence.Fabric
	pfab  *coherence.ParallelFabric
	procs []*coherence.Processor
}

func build(cfg system.Config) (built, error) {
	if cfg.Shards > 0 {
		pf, procs, err := system.BuildParallel(cfg)
		return built{pfab: pf, procs: procs}, err
	}
	fab, procs, err := system.Build(cfg)
	return built{fab: fab, procs: procs}, err
}

func (b built) drive() error {
	if b.pfab != nil {
		return b.pfab.Drive(b.procs, 0)
	}
	return b.fab.Drive(b.procs, 0)
}

func (b built) root() *coherence.Fabric {
	if b.pfab != nil {
		return b.pfab.Root
	}
	return b.fab
}

// close releases file-backed access sources (mmapped binary traces).
func (b built) close() {
	for _, p := range b.procs {
		if c, ok := p.Source().(io.Closer); ok {
			c.Close()
		}
	}
}

// setupOnce builds the machine of every job (each model-checker slice's
// root world, via MaxStates 1) passes times and returns the time spent
// building. Teardown is not timed.
func setupOnce(jobs []job, passes int) (time.Duration, error) {
	var total time.Duration
	for p := 0; p < passes; p++ {
		for _, j := range jobs {
			if j.sim != nil {
				t0 := time.Now()
				b, err := build(*j.sim)
				total += time.Since(t0)
				if err != nil {
					return 0, err
				}
				b.close()
				continue
			}
			for _, c := range j.mc {
				c.MaxStates = 1
				t0 := time.Now()
				_, err := mcheck.Run(c)
				total += time.Since(t0)
				if err != nil {
					return 0, err
				}
			}
		}
	}
	return total, nil
}

// setupReps is the fewest set-up measurements a run takes the median of.
const setupReps = 9

// measureSetup is one set-up measurement, started from a collected heap.
func measureSetup(w workload, jobs []job) (float64, error) {
	runtime.GC()
	d, err := setupOnce(jobs, w.setupPasses)
	return d.Seconds(), err
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of v.
// It refuses when fewer than minBeyond samples lie beyond that rank,
// because such a tail figure would rest on a handful of samples.
func percentile(v []float64, p float64) (float64, error) {
	n := len(v)
	rank := int(float64(n)*p/100+0.999999999) - 1 // nearest rank, 0-based
	if rank < 0 {
		rank = 0
	}
	if beyond := n - 1 - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[rank], nil
}

// heapSampler records the host heap's high-water mark: the largest
// live-plus-unswept object bytes seen, sampled every millisecond.
type heapSampler struct {
	mark chan chan float64
	stop chan struct{}
	done chan struct{}
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func readHeap(s []metrics.Sample) float64 {
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{mark: make(chan chan float64), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		peak := readHeap(s)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case reply := <-h.mark:
				now := readHeap(s)
				reply <- max(peak, now)
				peak = now
			case <-t.C:
				peak = max(peak, readHeap(s))
			}
		}
	}()
	return h
}

// peakMB returns the high-water mark since the previous call (or the
// start) and begins a new one from the current heap.
func (h *heapSampler) peakMB() float64 {
	reply := make(chan float64)
	h.mark <- reply
	return <-reply / (1 << 20)
}

// close stops the sampler and waits for it to exit.
func (h *heapSampler) close() {
	close(h.stop)
	<-h.done
}

func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
