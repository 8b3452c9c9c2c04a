package trace

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/mem"
)

// FuzzBinarySource hammers the .btrace decoder with arbitrary bytes. The
// corpus seeds are the corruption cases the unit tests pin (bad magic,
// input shorter than the magic, bad version, mid-record cut, varint
// overflow) plus well-formed traces, so mutation starts from both sides of
// the validity boundary. Properties:
//
//   - decoding never panics, whatever the input;
//   - the in-memory decoder and the windowed ReaderAt decoder agree on
//     the decoded accesses, on whether the input is in error, and on
//     whether it is ErrNotBinary;
//   - anything the decoder accepts survives a re-encode/re-decode round
//     trip unchanged (decode is a left inverse of encode on its image).
func FuzzBinarySource(f *testing.F) {
	mustEncode := func(accs []mem.Access) []byte {
		var buf bytes.Buffer
		if err := WriteBinaryAccesses(&buf, accs); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}

	f.Add([]byte{})
	f.Add([]byte(binaryMagic[:3]))
	f.Add([]byte("NOPE\x01\x00\x00\x00"))
	f.Add([]byte{'S', 'T', 'R', 'B', 99, 0, 0, 0})
	f.Add(mustEncode(nil))
	valid := mustEncode([]mem.Access{
		{Addr: 0x1000, Write: false},
		{Addr: 0x1040, Write: true},
		{Addr: 0xdead_beef_00, Write: true},
		{Addr: (1 << 62) - 64, Write: true},
	})
	f.Add(valid)
	f.Add(valid[:len(valid)-1])                                       // mid-record cut
	f.Add(append(mustEncode(nil), bytes.Repeat([]byte{0xff}, 10)...)) // varint overflow

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := NewBinaryBytes(data)
		if err != nil {
			// Header rejection, and whether it calls the input text, must be
			// mirrored by the windowed path.
			_, raErr := NewBinaryReaderAt(bytes.NewReader(data), int64(len(data)))
			if raErr == nil {
				t.Fatalf("NewBinaryBytes rejected the header (%v) but NewBinaryReaderAt accepted it", err)
			}
			if errors.Is(err, ErrNotBinary) != errors.Is(raErr, ErrNotBinary) {
				t.Fatalf("decoders disagree on ErrNotBinary: bytes err %v, readerAt err %v", err, raErr)
			}
			return
		}
		var accs []mem.Access
		for {
			a, ok := s.Next()
			if !ok {
				break
			}
			accs = append(accs, a)
		}
		decErr := s.Err()

		// Differential check: the streaming-window decoder must agree.
		ra, err := NewBinaryReaderAt(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatalf("NewBinaryBytes accepted the header but NewBinaryReaderAt rejected it: %v", err)
		}
		var raAccs []mem.Access
		for {
			a, ok := ra.Next()
			if !ok {
				break
			}
			raAccs = append(raAccs, a)
		}
		if (decErr == nil) != (ra.Err() == nil) {
			t.Fatalf("decoders disagree on validity: bytes err %v, readerAt err %v", decErr, ra.Err())
		}
		if len(accs) != len(raAccs) {
			t.Fatalf("decoders disagree on length: bytes %d, readerAt %d", len(accs), len(raAccs))
		}
		for i := range accs {
			if accs[i] != raAccs[i] {
				t.Fatalf("access %d: bytes decoder %v, readerAt decoder %v", i, accs[i], raAccs[i])
			}
		}
		if decErr != nil {
			return
		}

		// Accepted input: re-encode and re-decode must reproduce it.
		var buf bytes.Buffer
		if err := WriteBinaryAccesses(&buf, accs); err != nil {
			t.Fatalf("decoder emitted accesses the writer rejects: %v", err)
		}
		again, err := ReadBinaryAccesses(buf.Bytes())
		if err != nil {
			t.Fatalf("re-decode of a re-encoded trace failed: %v", err)
		}
		if len(again) != len(accs) {
			t.Fatalf("round trip changed length: %d -> %d", len(accs), len(again))
		}
		for i := range accs {
			if again[i] != accs[i] {
				t.Fatalf("round trip changed access %d: %v -> %v", i, accs[i], again[i])
			}
		}
	})
}
