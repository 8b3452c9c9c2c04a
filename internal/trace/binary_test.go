package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mem"
)

// encodeBinary is a test helper: accesses -> binary bytes.
func encodeBinary(t *testing.T, accs []mem.Access) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinaryAccesses(&buf, accs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// drain pulls a source dry and returns the accesses plus its Err.
func drain(s *BinarySource) ([]mem.Access, error) {
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

func sampleAccesses() []mem.Access {
	return []mem.Access{
		{Addr: 0x1000, Write: false},
		{Addr: 0x1040, Write: true},
		{Addr: 0x0, Write: false},
		{Addr: 0xdead_beef_00, Write: true},
		{Addr: 0x1000, Write: false},
		{Addr: (1 << 62) - 64, Write: true}, // largest encodable block start
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	want := sampleAccesses()
	b := encodeBinary(t, want)
	got, err := ReadBinaryAccesses(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d accesses, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("access %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

// TestBinaryRoundTripProperty fuzzes text -> binary -> text over random
// streams: the three representations must agree access for access.
func TestBinaryRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(2000)
		accs := make([]mem.Access, n)
		for i := range accs {
			// Mix nearby and far addresses to exercise short and long deltas.
			var addr uint64
			if rng.Intn(2) == 0 && i > 0 {
				addr = uint64(accs[i-1].Addr) + uint64(rng.Intn(1<<12))
			} else {
				addr = rng.Uint64() % binaryMaxAddr
			}
			accs[i] = mem.Access{Addr: mem.Addr(addr), Write: rng.Intn(2) == 0}
		}

		var text bytes.Buffer
		if err := WriteAccesses(&text, accs); err != nil {
			t.Fatal(err)
		}
		parsed, err := ParseAccesses(bytes.NewReader(text.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := ReadBinaryAccesses(encodeBinary(t, accs))
		if err != nil {
			t.Fatal(err)
		}
		if len(parsed) != len(decoded) {
			t.Fatalf("trial %d: text got %d accesses, binary got %d", trial, len(parsed), len(decoded))
		}
		for i := range parsed {
			if parsed[i] != decoded[i] {
				t.Fatalf("trial %d access %d: text %v, binary %v", trial, i, parsed[i], decoded[i])
			}
		}
	}
}

func TestBinaryWriterRejectsHugeAddress(t *testing.T) {
	w := NewBinaryWriter(&bytes.Buffer{})
	if err := w.Write(mem.Access{Addr: 1 << 62}); err == nil {
		t.Fatal("want an error for an address outside the 2^62 format range")
	}
}

func TestBinaryEmptyTrace(t *testing.T) {
	b := encodeBinary(t, nil)
	if len(b) != binaryHeaderLen {
		t.Fatalf("empty trace is %d bytes, want the bare %d-byte header", len(b), binaryHeaderLen)
	}
	s, err := NewBinaryBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := drain(s)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty trace: got %d accesses, err %v; want 0, nil", len(got), err)
	}
}

// TestBinaryCorruptHeader: input without the whole magic is ErrNotBinary,
// so replay callers hand it to the text parser; input with the magic but a
// bad header is a binary trace in error, never ErrNotBinary. Both
// constructors agree.
func TestBinaryCorruptHeader(t *testing.T) {
	cases := map[string]struct {
		b         []byte
		notBinary bool
	}{
		"zero-byte file":         {nil, true},
		"shorter than the magic": {binaryMagic[:3], true},
		"bad magic":              {[]byte("NOPE\x01\x00\x00\x00"), true},
		"truncated header":       {[]byte{'S', 'T', 'R', 'B', 1}, false},
		"bad version":            {[]byte{'S', 'T', 'R', 'B', 99, 0, 0, 0}, false},
	}
	for name, c := range cases {
		_, err := NewBinaryBytes(c.b)
		_, raErr := NewBinaryReaderAt(bytes.NewReader(c.b), int64(len(c.b)))
		for _, e := range []error{err, raErr} {
			if e == nil {
				t.Errorf("%s: want a header error", name)
			} else if errors.Is(e, ErrNotBinary) != c.notBinary {
				t.Errorf("%s: error %q; want errors.Is(err, ErrNotBinary) = %v", name, e, c.notBinary)
			}
		}
	}
}

func TestBinaryMidRecordEOF(t *testing.T) {
	// A multi-byte varint cut after its continuation byte.
	full := encodeBinary(t, []mem.Access{{Addr: 0x12345678, Write: true}})
	cut := full[:len(full)-1]
	s, err := NewBinaryBytes(cut)
	if err != nil {
		t.Fatal(err)
	}
	got, err := drain(s)
	if err == nil {
		t.Fatalf("want a mid-record error, got %d accesses and nil", len(got))
	}
	if !strings.Contains(err.Error(), "mid-record") {
		t.Fatalf("error %q does not name the mid-record truncation", err)
	}
}

func TestBinaryOverflowRecord(t *testing.T) {
	// Ten 0xff bytes: a varint past 64 bits.
	b := append(encodeBinary(t, nil), bytes.Repeat([]byte{0xff}, 10)...)
	s, err := NewBinaryBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drain(s); err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("want an overflow error, got %v", err)
	}
}

// TestBinaryRangeRecord pins the decoder's address-range check (found by
// FuzzBinarySource): two in-format deltas whose sum crosses the writer's
// 2^62 ceiling must be rejected, not silently decoded into an address the
// writer could never have produced.
func TestBinaryRangeRecord(t *testing.T) {
	b := encodeBinary(t, nil)
	for i := 0; i < 2; i++ {
		b = binary.AppendUvarint(b, zigzag(1<<61)<<1) // read at prev + 2^61
	}
	s, err := NewBinaryBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := drain(s)
	if err == nil || !strings.Contains(err.Error(), "range") {
		t.Fatalf("want a range error, got %d accesses and %v", len(got), err)
	}
}

// TestBinaryReaderAtMatchesBytes runs the streaming window path over the
// same payload, including one sized to split records across window refills.
func TestBinaryReaderAtMatchesBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	accs := make([]mem.Access, 10_000)
	for i := range accs {
		accs[i] = mem.Access{Addr: mem.Addr(rng.Uint64() % binaryMaxAddr), Write: rng.Intn(2) == 0}
	}
	b := encodeBinary(t, accs)

	s, err := NewBinaryReaderAt(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := drain(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(accs) {
		t.Fatalf("streamed %d accesses, want %d", len(got), len(accs))
	}
	for i := range accs {
		if got[i] != accs[i] {
			t.Fatalf("access %d: got %v, want %v", i, got[i], accs[i])
		}
	}
}

func TestBinaryReaderAtMidRecordEOF(t *testing.T) {
	full := encodeBinary(t, []mem.Access{{Addr: 0x1234567890, Write: true}})
	cut := full[:len(full)-1]
	s, err := NewBinaryReaderAt(bytes.NewReader(cut), int64(len(cut)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drain(s); err == nil || !strings.Contains(err.Error(), "mid-record") {
		t.Fatalf("want a mid-record error, got %v", err)
	}
}

func TestOpenBinaryMmapAndDetect(t *testing.T) {
	dir := t.TempDir()
	accs := sampleAccesses()

	binPath := filepath.Join(dir, "bin.trace")
	if err := os.WriteFile(binPath, encodeBinary(t, accs), 0o644); err != nil {
		t.Fatal(err)
	}
	textPath := filepath.Join(dir, "text.trace")
	var text bytes.Buffer
	if err := WriteAccesses(&text, accs); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(textPath, text.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// Detection is OpenBinary's own error: a file without the magic, however
	// short, is ErrNotBinary; one with the magic but cut inside the header
	// is a truncated binary trace; a missing file is neither.
	shortPath := filepath.Join(dir, "short.trace")
	if err := os.WriteFile(shortPath, []byte("L 1"), 0o644); err != nil {
		t.Fatal(err)
	}
	cutPath := filepath.Join(dir, "cut.btrace")
	if err := os.WriteFile(cutPath, []byte{'S', 'T', 'R', 'B', 1}, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{textPath, shortPath} {
		if s, err := OpenBinary(p); !errors.Is(err, ErrNotBinary) {
			t.Fatalf("OpenBinary(%s) = %v, %v; want ErrNotBinary", filepath.Base(p), s, err)
		}
	}
	if _, err := OpenBinary(cutPath); err == nil || errors.Is(err, ErrNotBinary) || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("OpenBinary(5-byte file with the magic) = %v; want a truncation error", err)
	}
	if _, err := OpenBinary(filepath.Join(dir, "missing.btrace")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("OpenBinary(missing file) = %v; want os.ErrNotExist", err)
	}

	s, err := OpenBinary(binPath)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := drain(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(accs) {
		t.Fatalf("mmap replay got %d accesses, want %d", len(got), len(accs))
	}
	for i := range accs {
		if got[i] != accs[i] {
			t.Fatalf("access %d: got %v, want %v", i, got[i], accs[i])
		}
	}

	// Reset rewinds to the first record.
	s.Reset()
	again, err := drain(s)
	if err != nil || len(again) != len(accs) {
		t.Fatalf("after Reset: %d accesses, err %v", len(again), err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBinaryReplayAllocFree pins the replay hot path at zero allocations
// per access, for both the in-memory (mmap) and streaming window paths.
func TestBinaryReplayAllocFree(t *testing.T) {
	accs := make([]mem.Access, 50_000)
	rng := rand.New(rand.NewSource(3))
	for i := range accs {
		accs[i] = mem.Access{Addr: mem.Addr(rng.Uint64() % (1 << 32)), Write: rng.Intn(2) == 0}
	}
	var buf bytes.Buffer
	if err := WriteBinaryAccesses(&buf, accs); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()

	check := func(name string, mk func() *BinarySource) {
		s := mk()
		n := 0
		allocs := testing.AllocsPerRun(10, func() {
			s.Reset()
			for {
				if _, ok := s.Next(); !ok {
					break
				}
				n++
			}
			if s.Err() != nil {
				t.Fatal(s.Err())
			}
		})
		if n == 0 {
			t.Fatalf("%s: replayed nothing", name)
		}
		if allocs != 0 {
			t.Errorf("%s: %v allocs per full replay, want 0", name, allocs)
		}
	}
	check("bytes", func() *BinarySource {
		s, err := NewBinaryBytes(b)
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
	check("reader-at", func() *BinarySource {
		s, err := NewBinaryReaderAt(bytes.NewReader(b), int64(len(b)))
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
}
