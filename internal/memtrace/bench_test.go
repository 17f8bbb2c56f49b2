package memtrace

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// benchTraceBytes encodes an n-record trace once for the decode benchmarks.
func benchTraceBytes(b *testing.B, n int) []byte {
	b.Helper()
	t := make(Trace, n)
	for i := range t {
		op := Read
		if i%7 == 0 {
			op = Write
		}
		t[i] = Access{Addr: uint64(i) * 32, Op: op, Think: uint32(i % 3)}
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, t); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkDecodeNext replays the stream one Next call per record — the
// per-record baseline the batched path is measured against.
func BenchmarkDecodeNext(b *testing.B) {
	data := benchTraceBytes(b, 4096)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	for b.Loop() {
		d := NewDecoder(bytes.NewReader(data))
		for {
			if _, err := d.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDecodeBatch replays the stream through a reused 1024-record
// buffer. The per-iteration allocations must stay flat as the trace grows:
// the batch buffer is reused across chunks, so the loop allocates only the
// decoder itself.
func BenchmarkDecodeBatch(b *testing.B) {
	data := benchTraceBytes(b, 4096)
	batch := make([]Access, 1024)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	for b.Loop() {
		d := NewDecoder(bytes.NewReader(data))
		for {
			if _, err := d.DecodeBatch(batch); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkReadBinary reads a 1Mi-record trace file whole, as colsim
// loads its inputs: the decoder sees the file's size, so the trace is
// allocated once and the bytes allocated per record stay near the size of
// one Access.
func BenchmarkReadBinary(b *testing.B) {
	const records = 1 << 20
	path := filepath.Join(b.TempDir(), "trace.bin")
	if err := os.WriteFile(path, benchTraceBytes(b, records), 0o644); err != nil {
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for b.Loop() {
		f, err := os.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		tr, err := ReadBinary(f)
		f.Close()
		if err != nil || len(tr) != records {
			b.Fatalf("read %d records, err %v", len(tr), err)
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(b.N) * records
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/record")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/record")
}
