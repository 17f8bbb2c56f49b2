package memtrace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// Text format: one access per line, "R|W <hex-addr> [think]". Lines starting
// with '#' and blank lines are ignored. Think defaults to 0.
//
// Binary format: a 8-byte magic header followed by 13-byte records of
// {addr uint64, think uint32, op uint8} in little-endian order. Every
// binary read (ReadBinary, ReadBinaryLimit, Decoder.Next) goes through the
// one bulk decoder, Decoder.DecodeBatch, in decoder.go.

const binaryMagic = "CCTRACE1"

// WriteText writes t in the human-readable text format.
func WriteText(w io.Writer, t Trace) error {
	bw := bufio.NewWriter(w)
	for _, a := range t {
		var err error
		if a.Think != 0 {
			_, err = fmt.Fprintf(bw, "%s %x %d\n", a.Op, a.Addr, a.Think)
		} else {
			_, err = fmt.Fprintf(bw, "%s %x\n", a.Op, a.Addr)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses the text format produced by WriteText.
func ReadText(r io.Reader) (Trace, error) { return ReadTextLimit(r, 0) }

// ReadTextLimit is ReadText bounded to maxAccesses records: parsing stops
// at the first record past the limit, so an oversized trace never
// materializes beyond it. maxAccesses <= 0 means no limit. A trace with
// more records fails with an error wrapping ErrTraceTooLarge.
func ReadTextLimit(r io.Reader, maxAccesses int) (Trace, error) {
	var t Trace
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("memtrace: line %d: want 'OP ADDR [THINK]', got %q", lineNo, line)
		}
		var op Op
		switch fields[0] {
		case "R", "r":
			op = Read
		case "W", "w":
			op = Write
		default:
			return nil, fmt.Errorf("memtrace: line %d: unknown op %q", lineNo, fields[0])
		}
		var addr uint64
		if _, err := fmt.Sscanf(fields[1], "%x", &addr); err != nil {
			return nil, fmt.Errorf("memtrace: line %d: bad address %q: %v", lineNo, fields[1], err)
		}
		var think uint32
		if len(fields) == 3 {
			var v uint64
			if _, err := fmt.Sscanf(fields[2], "%d", &v); err != nil {
				return nil, fmt.Errorf("memtrace: line %d: bad think count %q: %v", lineNo, fields[2], err)
			}
			think = uint32(v)
		}
		if maxAccesses > 0 && len(t) == maxAccesses {
			return nil, fmt.Errorf("%w (limit %d)", ErrTraceTooLarge, maxAccesses)
		}
		t = append(t, Access{Addr: addr, Op: op, Think: think})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// WriteBinary writes t in the compact binary format.
func WriteBinary(w io.Writer, t Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	var rec [13]byte
	for _, a := range t {
		binary.LittleEndian.PutUint64(rec[0:8], a.Addr)
		binary.LittleEndian.PutUint32(rec[8:12], a.Think)
		rec[12] = byte(a.Op)
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary parses the binary format produced by WriteBinary. It is
// ReadBinaryLimit without a limit: the Decoder is the one decode path.
func ReadBinary(r io.Reader) (Trace, error) { return ReadBinaryLimit(r, 0) }
