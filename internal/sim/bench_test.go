package sim

import "testing"

// The BenchmarkEngine* benchmarks measure the scheduling hot paths the
// coherence protocol hits constantly; the BenchmarkEngineLegacy* twins run
// the identical workloads through the original container/heap queue so one
// `go test -bench BenchmarkEngine -benchmem` run prints the before/after
// comparison recorded in DESIGN.md.

// benchDelays mixes the common short hops (0, 1, 2) with occasional long
// latencies (bank, memory) the way protocol traffic does.
var benchDelays = [16]Cycle{0, 1, 1, 2, 1, 0, 3, 1, 8, 1, 0, 21, 2, 1, 5, 97}

// farDelays are all at least wheelSize cycles, forcing every event
// through the heap.
var farDelays = [8]Cycle{
	wheelSize + 13, wheelSize + 97, wheelSize + 29, wheelSize + 211,
	wheelSize + 53, wheelSize + 7, wheelSize + 151, wheelSize + 23,
}

func BenchmarkEngineAfter1(b *testing.B) {
	e := NewEngine()
	var fn Event
	fn = func() { e.After(1, "tick", fn) }
	e.After(1, "tick", fn)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(uint64(b.N))
}

func BenchmarkEngineAfter0Burst(b *testing.B) {
	e := NewEngine()
	worker := Event(func() {})
	var driver Event
	driver = func() {
		for i := 0; i < 8; i++ {
			e.After(0, "w", worker)
		}
		e.After(1, "d", driver)
	}
	e.After(1, "d", driver)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(uint64(b.N))
}

func BenchmarkEngineMixed(b *testing.B) {
	e := NewEngine()
	var i int
	var fn Event
	fn = func() {
		d := benchDelays[i&15]
		i++
		e.After(d, "m", fn)
	}
	for j := 0; j < 16; j++ {
		e.After(Cycle(j), "m", fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(uint64(b.N))
}

func BenchmarkEngineFarFuture(b *testing.B) {
	e := NewEngine()
	var i int
	var fn Event
	fn = func() {
		d := farDelays[i&7]
		i++
		e.After(d, "f", fn)
	}
	for j := 0; j < 64; j++ {
		e.After(Cycle(j), "f", fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(uint64(b.N))
}

func BenchmarkEngineLegacyAfter1(b *testing.B) {
	e := newLegacyEngine()
	var fn Event
	fn = func() { e.After(1, "tick", fn) }
	e.After(1, "tick", fn)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(uint64(b.N))
}

func BenchmarkEngineLegacyAfter0Burst(b *testing.B) {
	e := newLegacyEngine()
	worker := Event(func() {})
	var driver Event
	driver = func() {
		for i := 0; i < 8; i++ {
			e.After(0, "w", worker)
		}
		e.After(1, "d", driver)
	}
	e.After(1, "d", driver)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(uint64(b.N))
}

func BenchmarkEngineLegacyMixed(b *testing.B) {
	e := newLegacyEngine()
	var i int
	var fn Event
	fn = func() {
		d := benchDelays[i&15]
		i++
		e.After(d, "m", fn)
	}
	for j := 0; j < 16; j++ {
		e.After(Cycle(j), "m", fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(uint64(b.N))
}

func BenchmarkEngineLegacyFarFuture(b *testing.B) {
	e := newLegacyEngine()
	var i int
	var fn Event
	fn = func() {
		d := farDelays[i&7]
		i++
		e.After(d, "f", fn)
	}
	for j := 0; j < 64; j++ {
		e.After(Cycle(j), "f", fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(uint64(b.N))
}
