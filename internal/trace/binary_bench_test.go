package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// benchAccessCount is the 1M-access trace size the acceptance bar is
// measured at: binary replay must be >= 5x the text FileSource.
const benchAccessCount = 1_000_000

func benchStream(b *testing.B) *Stream {
	b.Helper()
	mix := Mix{
		Name:        "bench",
		PrivateFrac: 0.5, SharedReadFrac: 0.2, SharedRWFrac: 0.1,
		ProdConsFrac: 0.1, MigratoryFrac: 0.1,
		WriteFrac:     0.3,
		PrivateBlocks: 4096, SharedBlocks: 2048, ProdConsBlocks: 256, MigratoryBlocks: 64,
		MigratoryPhase: 8,
		ZipfS:          1.5,
	}
	s, err := NewStream(mix, 0, 1, benchAccessCount, 42)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func benchTraceFiles(b *testing.B) (textPath, binPath string) {
	b.Helper()
	dir := b.TempDir()

	textPath = filepath.Join(dir, "bench.trace")
	tf, err := os.Create(textPath)
	if err != nil {
		b.Fatal(err)
	}
	if err := WriteText(tf, benchStream(b)); err != nil {
		b.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		b.Fatal(err)
	}

	binPath = filepath.Join(dir, "bench.btrace")
	bf, err := os.Create(binPath)
	if err != nil {
		b.Fatal(err)
	}
	if err := WriteBinarySource(bf, benchStream(b)); err != nil {
		b.Fatal(err)
	}
	if err := bf.Close(); err != nil {
		b.Fatal(err)
	}
	return textPath, binPath
}

// BenchmarkTraceReplayText is the baseline: the line-oriented ASCII
// format through FileSource, one alloc-heavy parse per access.
func BenchmarkTraceReplayText(b *testing.B) {
	textPath, _ := benchTraceFiles(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := os.Open(textPath)
		if err != nil {
			b.Fatal(err)
		}
		src := NewFileSource(f)
		n := 0
		for {
			if _, ok := src.Next(); !ok {
				break
			}
			n++
		}
		if src.Err() != nil {
			b.Fatal(src.Err())
		}
		f.Close()
		if n != benchAccessCount {
			b.Fatalf("replayed %d accesses, want %d", n, benchAccessCount)
		}
	}
	b.ReportMetric(float64(benchAccessCount), "accesses/op")
}

// BenchmarkTraceReplayBinary replays the same trace from its file through
// OpenBinary's read window.
func BenchmarkTraceReplayBinary(b *testing.B) {
	_, binPath := benchTraceFiles(b)
	src, err := OpenBinary(binPath)
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset()
		n := 0
		for {
			if _, ok := src.Next(); !ok {
				break
			}
			n++
		}
		if src.Err() != nil {
			b.Fatal(src.Err())
		}
		if n != benchAccessCount {
			b.Fatalf("replayed %d accesses, want %d", n, benchAccessCount)
		}
	}
	b.ReportMetric(float64(benchAccessCount), "accesses/op")
}

// BenchmarkTraceReplayBinaryReaderAt streams the same window from an
// in-memory io.ReaderAt, which leaves out the file reads.
func BenchmarkTraceReplayBinaryReaderAt(b *testing.B) {
	_, binPath := benchTraceFiles(b)
	payload, err := os.ReadFile(binPath)
	if err != nil {
		b.Fatal(err)
	}
	src, err := NewBinaryReaderAt(bytes.NewReader(payload), int64(len(payload)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset()
		n := 0
		for {
			if _, ok := src.Next(); !ok {
				break
			}
			n++
		}
		if src.Err() != nil {
			b.Fatal(src.Err())
		}
		if n != benchAccessCount {
			b.Fatalf("replayed %d accesses, want %d", n, benchAccessCount)
		}
	}
	b.ReportMetric(float64(benchAccessCount), "accesses/op")
}
