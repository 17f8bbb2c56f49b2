package memtrace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"unsafe"
)

func sampleTrace(n int) Trace {
	t := make(Trace, n)
	for i := range t {
		op := Read
		if i%3 == 0 {
			op = Write
		}
		t[i] = Access{Addr: uint64(i) * 64, Think: uint32(i % 7), Op: op}
	}
	return t
}

func TestDecoderMatchesReadBinary(t *testing.T) {
	tr := sampleTrace(100)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	want, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(bytes.NewReader(buf.Bytes()))
	var got Trace
	for {
		a, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next after %d records: %v", d.Decoded(), err)
		}
		got = append(got, a)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: %+v vs %+v", i, got[i], want[i])
		}
	}
	if d.Decoded() != int64(len(want)) {
		t.Fatalf("Decoded() = %d, want %d", d.Decoded(), len(want))
	}
}

func TestDecoderErrors(t *testing.T) {
	var valid bytes.Buffer
	WriteBinary(&valid, sampleTrace(3))
	cases := []struct {
		name string
		in   []byte
	}{
		{"empty", nil},
		{"short magic", []byte("CCT")},
		{"bad magic", []byte("NOTATRACEXXXXXXXXXXXXXXXX")},
		{"truncated record", valid.Bytes()[:len(valid.Bytes())-5]},
		{"bad op", append(append([]byte{}, valid.Bytes()...), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 99)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDecoder(bytes.NewReader(tc.in))
			var err error
			for err == nil {
				_, err = d.Next()
			}
			if err == io.EOF {
				t.Fatalf("decoder accepted malformed input %q", tc.in)
			}
			// The error must be sticky.
			if _, err2 := d.Next(); err2 == nil || err2.Error() != err.Error() {
				t.Fatalf("error not sticky: %v then %v", err, err2)
			}
		})
	}
}

func TestReadBinaryLimit(t *testing.T) {
	tr := sampleTrace(50)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}

	got, err := ReadBinaryLimit(bytes.NewReader(buf.Bytes()), 50)
	if err != nil || len(got) != 50 {
		t.Fatalf("at-limit decode: %d records, err %v", len(got), err)
	}
	got, err = ReadBinaryLimit(bytes.NewReader(buf.Bytes()), 0)
	if err != nil || len(got) != 50 {
		t.Fatalf("unlimited decode: %d records, err %v", len(got), err)
	}
	if _, err = ReadBinaryLimit(bytes.NewReader(buf.Bytes()), 49); !errors.Is(err, ErrTraceTooLarge) {
		t.Fatalf("over-limit decode err = %v, want ErrTraceTooLarge", err)
	}
	if !strings.Contains(err.Error(), "49") {
		t.Fatalf("limit missing from error: %v", err)
	}
}

// refDecode is the per-record reference decoder: one io.ReadFull of each
// 13-byte record through a bufio.Reader. It returns every record before
// the first error, and that error (nil at a clean end).
func refDecode(r io.Reader) (Trace, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("memtrace: reading magic: %w", err)
	}
	if string(magic[:]) != binaryMagic {
		return nil, fmt.Errorf("memtrace: bad magic %q", magic[:])
	}
	var t Trace
	var rec [13]byte
	for {
		_, err := io.ReadFull(br, rec[:])
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return t, fmt.Errorf("memtrace: truncated record %d: %w", len(t), err)
		}
		op := Op(rec[12])
		if op != Read && op != Write {
			return t, fmt.Errorf("memtrace: record %d: invalid op byte %d", len(t), rec[12])
		}
		t = append(t, Access{
			Addr:  binary.LittleEndian.Uint64(rec[0:8]),
			Think: binary.LittleEndian.Uint32(rec[8:12]),
			Op:    op,
		})
	}
}

// failAfter passes the first n bytes of r through, then fails every read
// with err, wherever the reads fall relative to record boundaries.
type failAfter struct {
	r   io.Reader
	n   int
	err error
}

func (f *failAfter) Read(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, f.err
	}
	if len(p) > f.n {
		p = p[:f.n]
	}
	m, err := f.r.Read(p)
	f.n -= m
	return m, err
}

var errMidStream = errors.New("mid-stream read failure")

// decodeBatches drains d through DecodeBatch with random batch sizes and
// checks the batch contract on the way: a short count with a nil error
// only at end of stream, then (0, io.EOF); every error sticky.
func decodeBatches(t *testing.T, d *Decoder, rng *rand.Rand, maxBatch int) (Trace, error) {
	t.Helper()
	var got Trace
	ended := false
	for {
		dst := make([]Access, 1+rng.Intn(maxBatch))
		n, err := d.DecodeBatch(dst)
		got = append(got, dst[:n]...)
		if ended && (n != 0 || err != io.EOF) {
			t.Fatalf("after a short batch: (%d, %v), want (0, EOF)", n, err)
		}
		if err == io.EOF {
			if n != 0 {
				t.Fatalf("EOF returned with %d records", n)
			}
			return got, nil
		}
		if err != nil {
			if n2, err2 := d.DecodeBatch(dst); n2 != 0 || err2 == nil || err2.Error() != err.Error() {
				t.Fatalf("error not sticky: %v then (%d, %v)", err, n2, err2)
			}
			return got, err
		}
		ended = n < len(dst)
	}
}

// decodeInputs returns named encoded inputs: clean traces on both sides
// of a buffer refill, and every kind of malformed one.
func decodeInputs(t *testing.T) []namedInput {
	t.Helper()
	enc := func(tr Trace) []byte {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	big := enc(randomTrace(rand.New(rand.NewSource(3)), 3*decodeBufBytes/recordBytes+17))
	badOp := bytes.Clone(big)
	badOp[len(binaryMagic)+5041*recordBytes+12] = 7
	return []namedInput{
		{"empty", nil},
		{"short magic", []byte("CCTR")},
		{"bad magic", []byte("CCTRACE9\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00")},
		{"magic only", enc(nil)},
		{"one record", enc(sampleTrace(1))},
		{"small", enc(sampleTrace(300))},
		{"big", big},
		{"big truncated", big[:len(big)-6]},
		{"big bad op", badOp},
		{"one buffer full", enc(sampleTrace((decodeBufBytes - len(binaryMagic)) / recordBytes))},
		{"one small buffer full", enc(sampleTrace((smallDecodeBufBytes - len(binaryMagic)) / recordBytes))},
	}
}

type namedInput struct {
	name string
	data []byte
}

// TestDecoderMatchesReference decodes every input through every reader
// shape and random batch sizes, and requires the records and the error of
// the per-record reference, byte for byte.
func TestDecoderMatchesReference(t *testing.T) {
	// failing returns a reader that fails with errMidStream after n bytes.
	failing := func(n int) func([]byte) io.Reader {
		return func(b []byte) io.Reader { return &failAfter{bytes.NewReader(b), n, errMidStream} }
	}
	readers := []struct {
		name string
		mk   func([]byte) io.Reader
	}{
		{"bytes", func(b []byte) io.Reader { return bytes.NewReader(b) }},
		{"one byte", func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }},
		{"half", func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) }},
		{"data+err", func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) }},
		{"fail in magic", failing(5)},
		{"fail after magic", failing(8)},
		{"fail at a record boundary", failing(8 + 40*recordBytes)},
		{"fail mid-record", failing(8 + 4000*recordBytes + 6)},
		{"fail with data", func(b []byte) io.Reader {
			return iotest.DataErrReader(&failAfter{bytes.NewReader(b), 70001, errMidStream})
		}},
	}
	rng := rand.New(rand.NewSource(1))
	for _, input := range decodeInputs(t) {
		name, in := input.name, input.data
		for _, rd := range readers {
			rname, mk := rd.name, rd.mk
			want, wantErr := refDecode(mk(in))
			check := func(how string, got Trace, err error) {
				t.Helper()
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("%s via %s, %s: error %v, reference %v", name, rname, how, err, wantErr)
				}
				if len(got) != len(want) {
					t.Fatalf("%s via %s, %s: %d records, reference %d", name, rname, how, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s via %s, %s: record %d = %+v, reference %+v", name, rname, how, i, got[i], want[i])
					}
				}
			}
			for _, maxBatch := range []int{1, 7, 600, 20000} {
				d := NewDecoder(mk(in))
				got, err := decodeBatches(t, d, rng, maxBatch)
				check(fmt.Sprintf("batches up to %d", maxBatch), got, err)
				if d.Decoded() != int64(len(got)) {
					t.Fatalf("%s via %s: Decoded() = %d, want %d", name, rname, d.Decoded(), len(got))
				}
			}
			var got Trace
			d := NewDecoder(mk(in))
			var err error
			for {
				var a Access
				if a, err = d.Next(); err != nil {
					break
				}
				got = append(got, a)
			}
			if err == io.EOF {
				err = nil
			}
			check("Next", got, err)
			// ReadBinary returns the whole trace or an error, never both.
			tr, err := ReadBinary(mk(in))
			if err != nil && tr != nil {
				t.Fatalf("%s via %s: ReadBinary returned %d records with %v", name, rname, len(tr), err)
			}
			if err != nil {
				tr = want
			}
			check("ReadBinary", tr, err)
		}
	}
}

// TestDecoderNoProgress: a reader that returns no data and no error must
// end the decode with io.ErrNoProgress, not spin.
func TestDecoderNoProgress(t *testing.T) {
	_, err := NewDecoder(readerFunc(func([]byte) (int, error) { return 0, nil })).Next()
	if !errors.Is(err, io.ErrNoProgress) {
		t.Fatalf("err = %v, want io.ErrNoProgress", err)
	}
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

// TestReadBinaryPresized: where the input shows its size, the trace is
// allocated once at exactly that size and never regrown.
func TestReadBinaryPresized(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(2)), 10007)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.bin")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fromFile, err := ReadBinary(f)
	if err != nil {
		t.Fatal(err)
	}
	fromBytes, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]Trace{"*os.File": fromFile, "bytes.Reader": fromBytes} {
		if len(got) != len(tr) || cap(got) != len(tr) {
			t.Errorf("%s: len %d cap %d, want both %d", name, len(got), cap(got), len(tr))
		}
		for i := range tr {
			if got[i] != tr[i] {
				t.Fatalf("%s: record %d = %+v, want %+v", name, i, got[i], tr[i])
			}
		}
	}
}

// TestDecoderBufferFitsInput: the read buffer fits an input that shows
// its size, up to decodeBufBytes, and is smallDecodeBufBytes for one that
// does not, so a small upload is not decoded through a 64 KiB buffer.
func TestDecoderBufferFitsInput(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "trace")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Truncate(1 << 20); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		r    io.Reader
		want int
	}{
		{"empty bytes.Reader", bytes.NewReader(nil), recordBytes},
		{"small bytes.Reader", bytes.NewReader(make([]byte, 300)), 300},
		{"large bytes.Reader", bytes.NewReader(make([]byte, 1<<20)), decodeBufBytes},
		{"large file", f, decodeBufBytes},
		{"no size", iotest.OneByteReader(bytes.NewReader(make([]byte, 1<<20))), smallDecodeBufBytes},
	}
	for _, c := range cases {
		if got := len(NewDecoder(c.r).buf); got != c.want {
			t.Errorf("%s: buffer %d bytes, want %d", c.name, got, c.want)
		}
	}
}

// TestReadBinaryLimitClampsHint: a Len hint far above the limit must not
// size the allocation; the decode allocates at most the limit's worth of
// records (plus the decoder's buffer) and still fails as too large.
func TestReadBinaryLimitClampsHint(t *testing.T) {
	const records, limit = 1 << 20, 1000
	data := make([]byte, len(binaryMagic)+records*recordBytes)
	copy(data, binaryMagic)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := ReadBinaryLimit(bytes.NewReader(data), limit)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTraceTooLarge) {
		t.Fatalf("err = %v, want ErrTraceTooLarge", err)
	}
	const budget = limit*uint64(unsafe.Sizeof(Access{})) + decodeBufBytes + 4<<10
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Fatalf("allocated %d bytes, budget %d for a %d-record limit", got, budget, limit)
	}
}
