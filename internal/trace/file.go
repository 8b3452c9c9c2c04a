package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/mem"
)

// Trace file format: one access per line, `L <hex-addr>` or `S <hex-addr>`
// (load/store), with `#`-prefixed comment lines and blank lines ignored.
// The format is what cmd/tracegen -raw emits and what FileSource consumes,
// so externally captured traces can drive the simulator.

// WriteText drains any access source into w in the trace file format.
func WriteText(w io.Writer, src Source) error {
	bw := bufio.NewWriter(w)
	for {
		a, ok := src.Next()
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

// FileSource replays a trace file as an access source. It reads lazily, so
// arbitrarily long traces stream without being held in memory.
type FileSource struct {
	sc   *bufio.Scanner
	line int
	err  error
}

// NewFileSource wraps a reader of trace-format text.
func NewFileSource(r io.Reader) *FileSource {
	return &FileSource{sc: bufio.NewScanner(r)}
}

// Next implements the access-source contract. A malformed line ends the
// stream; Err reports it.
func (f *FileSource) Next() (mem.Access, bool) {
	if f.err != nil {
		return mem.Access{}, false
	}
	for f.sc.Scan() {
		f.line++
		text := strings.TrimSpace(f.sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		a, err := parseLine(text)
		if err != nil {
			f.err = fmt.Errorf("trace: line %d: %w", f.line, err)
			return mem.Access{}, false
		}
		return a, true
	}
	f.err = f.sc.Err()
	return mem.Access{}, false
}

// Err returns the first parse or read error, or nil at a clean end.
func (f *FileSource) Err() error { return f.err }

func parseLine(text string) (mem.Access, error) {
	fields := strings.Fields(text)
	if len(fields) != 2 {
		return mem.Access{}, fmt.Errorf("want %q, got %q", "L|S <hex-addr>", text)
	}
	var write bool
	switch fields[0] {
	case "L", "l":
		write = false
	case "S", "s":
		write = true
	default:
		return mem.Access{}, fmt.Errorf("unknown op %q (want L or S)", fields[0])
	}
	addr, err := strconv.ParseUint(strings.TrimPrefix(fields[1], "0x"), 16, 64)
	if err != nil {
		return mem.Access{}, fmt.Errorf("bad address %q: %v", fields[1], err)
	}
	return mem.Access{Addr: mem.Addr(addr), Write: write}, nil
}

// ParseAccesses reads a whole trace into memory; tests and small tools use
// it.
func ParseAccesses(r io.Reader) ([]mem.Access, error) {
	f := NewFileSource(r)
	var out []mem.Access
	for {
		a, ok := f.Next()
		if !ok {
			break
		}
		out = append(out, a)
	}
	return out, f.Err()
}
