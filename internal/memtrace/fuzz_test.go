package memtrace

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"testing/iotest"
)

// FuzzReadText: arbitrary input must never panic, and anything that parses
// must round-trip through WriteText.
func FuzzReadText(f *testing.F) {
	f.Add("R 100 5\nW ff\n")
	f.Add("# comment\n\nr 0\n")
	f.Add("R zz\n")
	f.Add("W 1 2 3 4\n")
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ReadText(bytes.NewReader([]byte(in)))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, tr); err != nil {
			t.Fatalf("WriteText failed on parsed trace: %v", err)
		}
		tr2, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if len(tr2) != len(tr) {
			t.Fatalf("round trip changed length: %d vs %d", len(tr), len(tr2))
		}
		for i := range tr {
			if tr[i] != tr2[i] {
				t.Fatalf("record %d changed: %+v vs %+v", i, tr[i], tr2[i])
			}
		}
	})
}

// FuzzDecoder: the decoder must never panic on arbitrary bytes and must
// agree with the per-record reference decoder on every input, whatever the
// read sizes and batch sizes: the same records, then the same error. This
// is the decode path a service runs on uploaded request bodies, so
// "malformed input errors, never panics" is a hard requirement. The input
// is decoded in large batches, in batches of one record, and one byte per
// read through DecodeBatch with the fuzzed batch size, so
// records straddle every buffer refill.
func FuzzDecoder(f *testing.F) {
	var seed bytes.Buffer
	WriteBinary(&seed, Trace{{Addr: 7, Op: Write, Think: 1}, {Addr: 0xdeadbeef, Op: Read}})
	f.Add(seed.Bytes(), uint16(1))
	f.Add([]byte("CCTRACE1"), uint16(4096))
	f.Add([]byte("CCTRACE1\x00\x01"), uint16(2))
	f.Add([]byte(""), uint16(0))
	f.Fuzz(func(t *testing.T, in []byte, batch uint16) {
		want, wantErr := refDecode(bytes.NewReader(in))

		decode := func(how string, r io.Reader, size int) {
			d := NewDecoder(r)
			dst := make([]Access, size)
			var got Trace
			var err error
			for err == nil {
				var n int
				n, err = d.DecodeBatch(dst)
				got = append(got, dst[:n]...)
			}
			if err == io.EOF {
				err = nil
			}
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: error %v, reference %v", how, err, wantErr)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d records, reference %d", how, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: record %d = %+v, reference %+v", how, i, got[i], want[i])
				}
			}
		}
		decode("whole", bytes.NewReader(in), 4096)
		decode("batches of one", bytes.NewReader(in), 1)
		decode("one byte per read", iotest.OneByteReader(bytes.NewReader(in)), 1+int(batch)%1024)

		tr, err := ReadBinary(bytes.NewReader(in))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("ReadBinary err %v, reference %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if len(tr) != len(want) {
			t.Fatalf("ReadBinary decoded %d records, reference %d", len(tr), len(want))
		}
		if _, err := ReadBinaryLimit(bytes.NewReader(in), len(want)); err != nil {
			t.Fatalf("ReadBinaryLimit at exact size failed: %v", err)
		}
	})
}

// FuzzReadBinary: arbitrary bytes must never panic; valid parses must
// re-encode to the identical byte stream.
func FuzzReadBinary(f *testing.F) {
	var seed bytes.Buffer
	WriteBinary(&seed, Trace{{Addr: 1, Op: Read, Think: 2}, {Addr: 99, Op: Write}})
	f.Add(seed.Bytes())
	f.Add([]byte("CCTRACE1"))
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, in []byte) {
		tr, err := ReadBinary(bytes.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), in) {
			t.Fatalf("binary round trip not identical")
		}
	})
}
