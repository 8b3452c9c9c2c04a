// Command tracegen prints a workload's synthetic access stream, one access
// per line, for inspection or for feeding external tools:
//
//	tracegen -workload barnes -core 0 -n 20
//	tracegen -workload barnes -summary            # region/write statistics
//	tracegen -workload barnes -raw                # machine-readable format
//	tracegen -workload barnes -raw -binary        # compact binary format
//	tracegen -workload barnes -out traces/ -n 5000 -cores 16
//	                                              # one replayable file per core
//	tracegen -workload barnes -out traces/ -binary -cores 128
//	                                              # binary files (mmap replay)
//	tracegen -convert old.trace -o new.btrace     # text<->binary (by magic)
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "canneal", "workload name")
		core     = flag.Int("core", 0, "core whose stream to generate")
		cores    = flag.Int("cores", 16, "total core count")
		n        = flag.Int("n", 100, "number of accesses")
		seed     = flag.Int64("seed", 1, "stream seed")
		scale    = flag.Float64("scale", 1, "working-set scale factor")
		summary  = flag.Bool("summary", false, "print region/write statistics instead of the raw stream")
		raw      = flag.Bool("raw", false, "emit the machine-readable trace format (L/S <hex-addr>)")
		binary   = flag.Bool("binary", false, "emit the compact binary trace format instead of text (with -raw, -out, or -convert)")
		out      = flag.String("out", "", "write one trace file per core into this directory")
		convert  = flag.String("convert", "", "convert this trace file between text and binary (direction auto-detected by magic; -binary forces binary output)")
		convOut  = flag.String("o", "", "output path for -convert (default stdout)")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}

	if *convert != "" {
		if err := convertTrace(*convert, *convOut, *binary); err != nil {
			fail(err)
		}
		return
	}

	mix, err := workloads.Get(*workload)
	if err != nil {
		fail(err)
	}
	mix = mix.Scaled(*scale)

	// writeStream emits a stream in the selected on-disk format.
	writeStream := func(w io.Writer, st *trace.Stream) error {
		if *binary {
			return trace.WriteBinarySource(w, st)
		}
		return trace.WriteStream(w, st)
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fail(err)
		}
		ext := ".trace"
		if *binary {
			ext = ".btrace"
		}
		for c := 0; c < *cores; c++ {
			st, err := trace.NewStream(mix, c, *cores, *n, *seed)
			if err != nil {
				fail(err)
			}
			path := filepath.Join(*out, fmt.Sprintf("core%02d%s", c, ext))
			f, err := os.Create(path)
			if err != nil {
				fail(err)
			}
			if err := writeStream(f, st); err != nil {
				fail(err)
			}
			if err := f.Close(); err != nil {
				fail(err)
			}
		}
		fmt.Printf("wrote %d trace files to %s\n", *cores, *out)
		return
	}

	s, err := trace.NewStream(mix, *core, *cores, *n, *seed)
	if err != nil {
		fail(err)
	}

	if *raw || *binary {
		if err := writeStream(os.Stdout, s); err != nil {
			fail(err)
		}
		return
	}

	if *summary {
		regions := map[trace.Region]int{}
		writes, total := 0, 0
		blocks := map[uint64]bool{}
		for {
			a, ok := s.Next()
			if !ok {
				break
			}
			total++
			regions[trace.RegionOf(a.Block())]++
			blocks[uint64(a.Block())] = true
			if a.Write {
				writes++
			}
		}
		fmt.Printf("workload=%s core=%d accesses=%d distinct-blocks=%d write-ratio=%.3f\n",
			*workload, *core, total, len(blocks), float64(writes)/float64(total))
		for r := trace.RegionPrivate; r <= trace.RegionMigratory; r++ {
			fmt.Printf("  %-18s %6.3f\n", r, float64(regions[r])/float64(total))
		}
		return
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for {
		a, ok := s.Next()
		if !ok {
			break
		}
		fmt.Fprintf(w, "%s  region=%s\n", a, trace.RegionOf(a.Block()))
	}
}

// convertTrace rewrites a trace file in the other representation: binary
// input becomes text, text input becomes binary (or binary stays binary
// when -binary is forced — a normalizing re-encode).
func convertTrace(in, out string, forceBinary bool) (err error) {
	bs, err := trace.OpenBinary(in)
	if err != nil && !errors.Is(err, trace.ErrNotBinary) {
		return err
	}
	if bs != nil {
		defer bs.Close()
	}

	w := io.Writer(os.Stdout)
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		w = f
	}

	if bs != nil {
		var werr error
		if forceBinary {
			werr = trace.WriteBinarySource(w, bs)
		} else {
			werr = writeTextSource(w, bs)
		}
		if werr != nil {
			return werr
		}
		return bs.Err()
	}

	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	fs := trace.NewFileSource(f)
	if werr := trace.WriteBinarySource(w, fs); werr != nil {
		return werr
	}
	return fs.Err()
}

// writeTextSource drains any access source into the text trace format.
func writeTextSource(w io.Writer, s trace.Source) error {
	bw := bufio.NewWriter(w)
	for {
		a, ok := s.Next()
		if !ok {
			break
		}
		op := byte('L')
		if a.Write {
			op = 'S'
		}
		if _, err := fmt.Fprintf(bw, "%c %x\n", op, uint64(a.Addr)); err != nil {
			return err
		}
	}
	return bw.Flush()
}
