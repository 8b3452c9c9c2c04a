package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"syscall"

	"repro/internal/mem"
)

// Binary trace format. The text format (file.go) costs an allocation and a
// strconv parse per access — fine for inspection, hostile to big-config
// replay. The binary format is the hot-path twin: a fixed header followed by
// one varint-delta record per access, decoded in batches with zero
// allocations per access, so trace replay is never the bottleneck of a
// 128/256-core run.
//
// Layout:
//
//	offset 0: magic "STRB" (4 bytes)
//	offset 4: version (1 byte, currently 1)
//	offset 5: reserved (3 bytes, zero)
//	offset 8: records until EOF
//
// Each record is a single unsigned varint (binary.Uvarint) encoding
//
//	u = zigzag(addr - prevAddr) << 1 | writeBit
//
// where prevAddr starts at 0 and zigzag is the usual signed-to-unsigned
// fold (0,-1,1,-2 → 0,1,2,3). Consecutive accesses are close in the address
// space, so most records are 1-3 bytes — about 4x smaller than the text
// form. The op bit rides in the varint's low bit, which caps addresses at
// 2^62; the writer rejects anything larger (no simulated machine comes
// close). A record split by EOF is a hard error: truncation never passes as
// a short trace.

// binaryMagic identifies a binary trace file.
var binaryMagic = [4]byte{'S', 'T', 'R', 'B'}

// ErrNotBinary reports input that does not start with the binary trace
// magic, including input shorter than the magic. Callers that accept either
// format fall back to the text parser on it.
var ErrNotBinary = errors.New("trace: not a binary trace (no STRB magic)")

const (
	// binaryVersion is the current format version.
	binaryVersion = 1
	// binaryHeaderLen is the fixed header size in bytes.
	binaryHeaderLen = 8
	// binaryMaxAddr bounds encodable addresses: the op bit occupies the
	// varint's low bit, leaving 63 bits for the zigzag delta, which covers
	// signed deltas of magnitude < 2^62.
	binaryMaxAddr = 1 << 62
	// binaryBatch is how many records a BinarySource decodes per refill.
	binaryBatch = 512
)

// zigzag folds a signed delta into an unsigned varint-friendly value.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// BinaryWriter encodes accesses into the binary trace format. Create one
// with NewBinaryWriter, Write each access, then Flush.
type BinaryWriter struct {
	bw      *bufio.Writer
	prev    uint64
	started bool
	scratch [binary.MaxVarintLen64]byte
}

// NewBinaryWriter returns a writer; the header is emitted on the first
// Write (or Flush), so an abandoned writer leaves w untouched.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{bw: bufio.NewWriter(w)}
}

// header emits the magic/version header once.
func (w *BinaryWriter) header() error {
	if w.started {
		return nil
	}
	w.started = true
	var h [binaryHeaderLen]byte
	copy(h[:], binaryMagic[:])
	h[4] = binaryVersion
	_, err := w.bw.Write(h[:])
	return err
}

// Write appends one access.
func (w *BinaryWriter) Write(a mem.Access) error {
	if uint64(a.Addr) >= binaryMaxAddr {
		return fmt.Errorf("trace: address %#x exceeds the binary format's 2^62 range", uint64(a.Addr))
	}
	if err := w.header(); err != nil {
		return err
	}
	u := zigzag(int64(uint64(a.Addr)-w.prev)) << 1
	if a.Write {
		u |= 1
	}
	w.prev = uint64(a.Addr)
	n := binary.PutUvarint(w.scratch[:], u)
	_, err := w.bw.Write(w.scratch[:n])
	return err
}

// Flush writes any buffered records (and the header, so an empty trace is
// still a well-formed file).
func (w *BinaryWriter) Flush() error {
	if err := w.header(); err != nil {
		return err
	}
	return w.bw.Flush()
}

// WriteBinaryAccesses writes accesses as one binary trace.
func WriteBinaryAccesses(w io.Writer, accs []mem.Access) error {
	bw := NewBinaryWriter(w)
	for _, a := range accs {
		if err := bw.Write(a); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Source is the access-stream contract shared by generators, text replay
// and binary replay (it mirrors coherence.AccessSource, which this package
// cannot import).
type Source interface {
	Next() (mem.Access, bool)
}

// WriteBinarySource drains any access source into w as a binary trace.
func WriteBinarySource(w io.Writer, src Source) error {
	bw := NewBinaryWriter(w)
	for {
		a, ok := src.Next()
		if !ok {
			break
		}
		if err := bw.Write(a); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// checkBinaryHeader validates the magic and version at the start of a
// trace; h may be shorter than the header when the input is. Input without
// the magic is ErrNotBinary; input with it but cut inside the header is
// truncated.
func checkBinaryHeader(h []byte) error {
	if len(h) < len(binaryMagic) || [4]byte(h[:4]) != binaryMagic {
		return ErrNotBinary
	}
	if len(h) < binaryHeaderLen {
		return fmt.Errorf("trace: truncated binary trace: %d-byte file, want at least the %d-byte header", len(h), binaryHeaderLen)
	}
	if h[4] != binaryVersion {
		return fmt.Errorf("trace: unsupported binary trace version %d (want %d)", h[4], binaryVersion)
	}
	return nil
}

// BinarySource replays a binary trace as an access source, decoding records
// in batches with zero allocations per access. The fast path serves whole
// files mapped (or held) in memory; the io.ReaderAt fallback streams chunks
// through a fixed window buffer, so either way Next never allocates.
//
//stash:tileowned
type BinarySource struct {
	// data is the decode window: the whole payload in mapped/bytes mode, a
	// sliding chunk in ReaderAt mode.
	data []byte
	off  int

	// ReaderAt streaming state. r == nil means data holds the whole payload.
	r      io.ReaderAt
	roff   int64 // file offset of data[len(data)] (next byte to fetch)
	rsize  int64 // total file size
	window []byte

	prev  uint64
	batch [binaryBatch]mem.Access
	bi    int
	bn    int
	err   error
	done  bool

	// mapped and f hold mmap-mode resources for Close.
	mapped []byte
	f      *os.File
}

// NewBinaryBytes replays a binary trace held in memory. The source aliases
// b; the caller must keep it immutable until the source is drained.
func NewBinaryBytes(b []byte) (*BinarySource, error) {
	if err := checkBinaryHeader(b); err != nil {
		return nil, err
	}
	return &BinarySource{data: b[binaryHeaderLen:]}, nil
}

// NewBinaryReaderAt replays a binary trace through an io.ReaderAt of the
// given total size — the fallback for platforms or files where mmap is
// unavailable. It reads fixed-size chunks into one reusable window buffer.
func NewBinaryReaderAt(r io.ReaderAt, size int64) (*BinarySource, error) {
	const windowSize = 1 << 20
	var h [binaryHeaderLen]byte
	n := int(min(max(size, 0), binaryHeaderLen))
	if m, err := r.ReadAt(h[:n], 0); m < n {
		return nil, fmt.Errorf("trace: reading binary trace header: %w", err)
	}
	if err := checkBinaryHeader(h[:n]); err != nil {
		return nil, err
	}
	return &BinarySource{
		r:      r,
		roff:   binaryHeaderLen,
		rsize:  size,
		window: make([]byte, 0, windowSize),
	}, nil
}

// OpenBinary opens the binary trace at path for zero-copy replay: the file
// is mapped read-only (syscall.Mmap) and decoded in place; when mapping
// fails (exotic filesystems) or the file is shorter than the header, it
// degrades to the ReaderAt window path over the same descriptor. Close
// releases the mapping and the file. A file without the magic fails with
// an error that wraps ErrNotBinary, so a caller accepting either format
// opens a binary trace once and tries the text parser only on that error.
func OpenBinary(path string) (*BinarySource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := st.Size()
	if size >= binaryHeaderLen {
		if m, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED); err == nil {
			s, err := NewBinaryBytes(m)
			if err != nil {
				syscall.Munmap(m)
				f.Close()
				return nil, fmt.Errorf("trace: %s: %w", path, err)
			}
			s.mapped = m
			s.f = f
			return s, nil
		}
	}
	s, err := NewBinaryReaderAt(f, size)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	s.f = f
	return s, nil
}

// Next implements the access-source contract. A decode error ends the
// stream; Err reports it.
//
//stash:hotpath
func (s *BinarySource) Next() (mem.Access, bool) {
	if s.bi < s.bn {
		a := s.batch[s.bi]
		s.bi++
		return a, true
	}
	if s.done || s.err != nil {
		return mem.Access{}, false
	}
	s.fill()
	if s.bi < s.bn {
		a := s.batch[s.bi]
		s.bi++
		return a, true
	}
	return mem.Access{}, false
}

// fill decodes the next batch of records from the window, refilling it from
// the ReaderAt when streaming. The varint decode is inlined (the loop from
// binary.Uvarint) so the whole batch runs without a call per record.
//
//stash:hotpath
func (s *BinarySource) fill() {
	s.bi, s.bn = 0, 0
	for s.bn < binaryBatch {
		if s.off >= len(s.data) {
			if !s.refill() {
				return
			}
		}
		var u uint64
		var shift uint
		i := s.off
		ok := false
		for i < len(s.data) {
			b := s.data[i]
			i++
			if b < 0x80 {
				if shift == 63 && b > 1 {
					s.failOverflow(s.off)
					return
				}
				u |= uint64(b) << shift
				ok = true
				break
			}
			u |= uint64(b&0x7f) << shift
			shift += 7
			if shift >= 64 {
				s.failOverflow(s.off)
				return
			}
		}
		if !ok {
			// The window ended mid-varint. Streaming mode may just need more
			// bytes; a whole-payload window means the file was cut short.
			if s.refill() {
				continue
			}
			if s.err == nil {
				s.failTruncated(s.off)
			}
			return
		}
		start := s.off
		s.off = i
		s.prev += uint64(unzigzag(u >> 1))
		// The writer never emits an address at or beyond binaryMaxAddr, so
		// an accumulated delta landing there (including any wrap through
		// zero) is corruption, not data.
		if s.prev >= binaryMaxAddr {
			s.failRange(start)
			return
		}
		s.batch[s.bn] = mem.Access{Addr: mem.Addr(s.prev), Write: u&1 != 0}
		s.bn++
	}
}

// refill slides the streaming window forward, carrying over any partial
// record tail. It reports whether new bytes are available; in
// whole-payload mode it only marks the stream done.
//
//stash:hotpath
func (s *BinarySource) refill() bool {
	if s.r == nil {
		if s.off >= len(s.data) {
			s.done = true
		}
		return false
	}
	if s.roff >= s.rsize && s.off >= len(s.data) {
		s.done = true
		return false
	}
	if s.roff >= s.rsize {
		return false // tail bytes remain but no more file: caller reports mid-record EOF
	}
	// Move the undecoded tail to the front of the window and top up.
	tail := len(s.data) - s.off
	copy(s.window[:cap(s.window)], s.data[s.off:])
	want := cap(s.window) - tail
	if max := s.rsize - s.roff; int64(want) > max {
		want = int(max)
	}
	n, err := s.r.ReadAt(s.window[tail:tail+want], s.roff)
	if err != nil && (err != io.EOF || n != want) {
		s.failRead(s.roff, err)
		return false
	}
	s.roff += int64(n)
	s.data = s.window[:tail+n]
	s.off = 0
	return n > 0
}

// The fail helpers build decode errors off the annotated hot path (error
// construction boxes its operands; it only ever runs once, on a corrupt
// trace).

func (s *BinarySource) failOverflow(off int) {
	s.err = fmt.Errorf("trace: binary record at payload offset %d overflows 64 bits", off)
}

func (s *BinarySource) failRange(off int) {
	s.err = fmt.Errorf("trace: binary record at payload offset %d decodes to an address outside the format's 2^62 range", off)
}

func (s *BinarySource) failTruncated(off int) {
	s.err = fmt.Errorf("trace: binary trace ends mid-record at payload offset %d", off)
}

func (s *BinarySource) failRead(off int64, err error) {
	s.err = fmt.Errorf("trace: reading binary trace at offset %d: %w", off, err)
}

// Err returns the first decode or read error, or nil at a clean end.
func (s *BinarySource) Err() error { return s.err }

// Close unmaps and closes the underlying file, if any. The source must not
// be used afterwards.
func (s *BinarySource) Close() error {
	var err error
	if s.mapped != nil {
		err = syscall.Munmap(s.mapped)
		s.mapped = nil
		s.data = nil
	}
	if s.f != nil {
		if cerr := s.f.Close(); err == nil {
			err = cerr
		}
		s.f = nil
	}
	return err
}

// Reset rewinds the source to the first record, clearing any error. Used
// by benchmarks that replay one trace repeatedly.
func (s *BinarySource) Reset() {
	s.prev, s.bi, s.bn, s.err, s.done = 0, 0, 0, nil, false
	if s.r != nil {
		s.roff = binaryHeaderLen
		s.data = s.window[:0]
		s.off = 0
		return
	}
	if s.mapped != nil {
		s.data = s.mapped[binaryHeaderLen:]
	}
	s.off = 0
}

// ReadBinaryAccesses decodes a whole binary trace into memory; tests and
// small tools use it.
func ReadBinaryAccesses(b []byte) ([]mem.Access, error) {
	s, err := NewBinaryBytes(b)
	if err != nil {
		return nil, err
	}
	var out []mem.Access
	for {
		a, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, a)
	}
	return out, s.Err()
}
