package memtrace

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func randomTrace(r *rand.Rand, n int) Trace {
	tr := make(Trace, n)
	for i := range tr {
		op := Read
		if r.Intn(2) == 1 {
			op = Write
		}
		tr[i] = Access{Addr: r.Uint64(), Op: op, Think: uint32(r.Intn(1000))}
	}
	return tr
}

func TestTextRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	tr := randomTrace(r, 500)
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tr) {
		t.Fatalf("len=%d want %d", len(got), len(tr))
	}
	for i := range tr {
		if got[i] != tr[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], tr[i])
		}
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(addrs []uint64, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := make(Trace, len(addrs))
		for i, a := range addrs {
			op := Read
			if r.Intn(2) == 1 {
				op = Write
			}
			tr[i] = Access{Addr: a, Op: op, Think: uint32(r.Intn(1 << 20))}
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(tr) {
			return false
		}
		for i := range tr {
			if got[i] != tr[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReadTextComments(t *testing.T) {
	in := "# header\n\nR 100 5\n  w ff\n"
	tr, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 2 {
		t.Fatalf("len=%d", len(tr))
	}
	if tr[0].Addr != 0x100 || tr[0].Think != 5 || tr[0].Op != Read {
		t.Errorf("tr[0]=%+v", tr[0])
	}
	if tr[1].Addr != 0xff || tr[1].Op != Write {
		t.Errorf("tr[1]=%+v", tr[1])
	}
}

func TestReadTextErrors(t *testing.T) {
	for _, in := range []string{
		"X 100\n",
		"R zz\n",
		"R\n",
		"R 1 2 3 4\n",
		"R 1 bad\n",
	} {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("ReadText(%q) succeeded", in)
		}
	}
}

func TestReadTextLimit(t *testing.T) {
	in := "# three records\nR 0\nW 20 3\nR 40\n"
	for _, limit := range []int{0, 3, 4} {
		tr, err := ReadTextLimit(strings.NewReader(in), limit)
		if err != nil || len(tr) != 3 {
			t.Errorf("limit %d: len=%d err=%v", limit, len(tr), err)
		}
	}
	if _, err := ReadTextLimit(strings.NewReader(in), 2); !errors.Is(err, ErrTraceTooLarge) {
		t.Errorf("limit 2: err=%v, want ErrTraceTooLarge", err)
	}
}

func TestReadBinaryErrors(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("short"))); err == nil {
		t.Error("short magic accepted")
	}
	if _, err := ReadBinary(bytes.NewReader([]byte("BADMAGIC"))); err == nil {
		t.Error("bad magic accepted")
	}
	// Valid magic, truncated record.
	var buf bytes.Buffer
	if err := WriteBinary(&buf, Trace{{Addr: 1}}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := ReadBinary(bytes.NewReader(b[:len(b)-1])); err == nil {
		t.Error("truncated record accepted")
	}
	// Corrupt op byte.
	b[len(b)-1] = 99
	if _, err := ReadBinary(bytes.NewReader(b)); err == nil {
		t.Error("invalid op byte accepted")
	}
}

func TestEmptyTraceCodecs(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil || len(got) != 0 {
		t.Errorf("empty binary round trip: %v %v", got, err)
	}
	buf.Reset()
	if err := WriteText(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err = ReadText(&buf)
	if err != nil || len(got) != 0 {
		t.Errorf("empty text round trip: %v %v", got, err)
	}
}
