package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/mem"
)

func TestWriteParseRoundTrip(t *testing.T) {
	in := []mem.Access{
		{Addr: 0x40},
		{Addr: 0x1234c0, Write: true},
		{Addr: 0},
		{Addr: 0xffff_ffff_ffc0, Write: true},
	}
	out, err := ParseAccesses(bytes.NewReader(encodeText(t, in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d accesses, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("access %d: %v != %v", i, in[i], out[i])
		}
	}
}

func TestWriteStreamRoundTrip(t *testing.T) {
	mk := func() *Stream {
		s, err := NewStream(validMix(), 0, 4, 100, 3)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	var buf bytes.Buffer
	if err := WriteText(&buf, mk()); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseAccesses(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ref := mk()
	for i := 0; ; i++ {
		a, ok := ref.Next()
		if !ok {
			if i != len(parsed) {
				t.Fatalf("length mismatch: %d vs %d", i, len(parsed))
			}
			break
		}
		if parsed[i] != a {
			t.Fatalf("access %d: %v != %v", i, parsed[i], a)
		}
	}
}

func TestFileSourceSkipsCommentsAndBlank(t *testing.T) {
	src := NewFileSource(strings.NewReader("# header\n\nL 40\n  # indented comment\nS 80\n"))
	var got []mem.Access
	for {
		a, ok := src.Next()
		if !ok {
			break
		}
		got = append(got, a)
	}
	if src.Err() != nil {
		t.Fatal(src.Err())
	}
	if len(got) != 2 || got[0].Write || !got[1].Write {
		t.Fatalf("parsed %v", got)
	}
}

func TestFileSourceAcceptsHexPrefixAndLowercase(t *testing.T) {
	accs, err := ParseAccesses(strings.NewReader("l 0x40\ns FF00\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(accs) != 2 || accs[0].Addr != 0x40 || accs[1].Addr != 0xff00 {
		t.Fatalf("parsed %v", accs)
	}
}

func TestFileSourceErrors(t *testing.T) {
	bad := []string{
		"X 40\n",       // unknown op
		"L\n",          // missing address
		"L zz\n",       // bad hex
		"L 40 extra\n", // trailing junk
	}
	for _, text := range bad {
		if _, err := ParseAccesses(strings.NewReader(text)); err == nil {
			t.Errorf("accepted malformed line %q", strings.TrimSpace(text))
		}
	}
}

func TestFileSourceStopsAfterError(t *testing.T) {
	src := NewFileSource(strings.NewReader("L 40\nbogus line here\nL 80\n"))
	if _, ok := src.Next(); !ok {
		t.Fatal("first line should parse")
	}
	if _, ok := src.Next(); ok {
		t.Fatal("malformed line should end the stream")
	}
	if src.Err() == nil {
		t.Fatal("no error reported")
	}
	if _, ok := src.Next(); ok {
		t.Fatal("stream resumed after error")
	}
}
