package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profiles runtime/pprof writes (gzipped
// profile.proto) far enough to attribute sampled CPU time to the
// simulator's layers. It decodes only samples, locations, functions and the
// string table.

// stackSample is one profile sample: its frames leaf first (inlined calls
// expanded) and the CPU nanoseconds it stands for.
type stackSample struct {
	frames []string
	cpuNS  int64
}

func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []rawSample
		strs    []string
		funcs   = map[uint64]int64{}    // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = eachField(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, v, data)
				case 2:
					var u []uint64
					if err := appendVarints(&u, v, data); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) < 2 {
			return nil, errors.New("profile: sample without a cpu value")
		}
		ss := stackSample{cpuNS: s.values[1]}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i >= 0 && int(i) < len(strs) {
					ss.frames = append(ss.frames, strs[i])
				}
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// eachField calls fn for every field of a protobuf message: v is the value
// of a varint field, data the payload of a length-delimited one.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints handles a repeated integer field, packed or not.
func appendVarints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst, data = append(*dst, x), data[n:]
	}
	return nil
}

// layers are the rows of the self-time table, in print order.
var layers = []string{"sim", "noc", "coherence", "core", "cache", "trace", "psim", "mcheck", "system", "runner", "runtime", "other"}

// funcPackage returns the import path of a symbol such as
// "repro/internal/coherence.(*Fabric).Drive".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOf names the layer a frame's self time belongs to, or "" for
// standard-library code, whose time is charged to its nearest caller that
// has a layer.
func layerOf(fn string) string {
	pkg := funcPackage(fn)
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "repro/internal/"):
		l := strings.TrimPrefix(pkg, "repro/internal/")
		for _, known := range layers {
			if l == known {
				return l
			}
		}
		return "other"
	case pkg == "repro":
		return "runner" // the stashsim facade
	case strings.HasPrefix(pkg, "repro/"):
		return "other"
	}
	return ""
}

// gcRoots and schedFuncs classify runtime time: a sample with any frame in
// gcRoots is garbage collection; otherwise one with a frame in schedFuncs
// is goroutine scheduling (parking, waking, idle spinning).
var (
	gcRoots    = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.sweepone", "runtime.markroot"}
	schedFuncs = []string{"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.gopark", "runtime.goready", "runtime.ready", "runtime.wakep", "runtime.notesleep", "runtime.notewakeup", "runtime.futexsleep", "runtime.futexwakeup", "runtime.mcall", "runtime.gosched_m", "runtime.semasleep", "runtime.semawakeup"}
)

// profileSummary is a profile folded into layer self times.
type profileSummary struct {
	totalNS   int64
	selfNS    map[string]int64 // layer -> self time
	gcNS      int64
	schedNS   int64
	collectNS int64 // under system.collect: the results walk after a drive
}

func hasFrame(frames []string, names []string) bool {
	for _, f := range frames {
		for _, n := range names {
			if f == n {
				return true
			}
		}
	}
	return false
}

func summarize(samples []stackSample) profileSummary {
	ps := profileSummary{selfNS: map[string]int64{}}
	for _, s := range samples {
		ps.totalNS += s.cpuNS
		layer := "other"
		for _, f := range s.frames {
			if l := layerOf(f); l != "" {
				layer = l
				break
			}
		}
		ps.selfNS[layer] += s.cpuNS
		switch {
		case hasFrame(s.frames, gcRoots):
			ps.gcNS += s.cpuNS
		case hasFrame(s.frames, schedFuncs):
			ps.schedNS += s.cpuNS
		}
		if hasFrame(s.frames, []string{"repro/internal/system.collect"}) {
			ps.collectNS += s.cpuNS
		}
	}
	return ps
}

func (ps profileSummary) share(layer string) float64 {
	if ps.totalNS == 0 {
		return 0
	}
	return float64(ps.selfNS[layer]) / float64(ps.totalNS)
}
