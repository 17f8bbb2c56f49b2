package memtrace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// The one decode path for the binary trace format. Decoder keeps its own
// byte buffer and DecodeBatch turns every whole record in it into accesses
// in one loop, with no call per record; Next and ReadBinaryLimit (and so
// ReadBinary) are thin wrappers over DecodeBatch. It is written for readers
// that must not trust the sender: a service decoding an uploaded trace
// needs a record cap enforced while reading (not after buffering the whole
// body) and must treat every malformed input as an error, never a panic.

// ErrTraceTooLarge is returned (wrapped) when a decode exceeds its record
// limit.
var ErrTraceTooLarge = errors.New("memtrace: trace exceeds record limit")

const (
	// recordBytes is the encoded size of one access: addr, think, op.
	recordBytes = 13
	// decodeBufBytes caps the Decoder's read buffer.
	decodeBufBytes = 64 << 10
	// smallDecodeBufBytes sizes the read buffer for a reader that does not
	// show its size, such as an uploaded request body.
	smallDecodeBufBytes = 4 << 10
	// growRecords is the first capacity ReadBinaryLimit gives a trace
	// whose size it cannot see in its input.
	growRecords = 4096
	// maxEmptyReads bounds consecutive (0, nil) reads before the decoder
	// gives up with io.ErrNoProgress, as bufio does.
	maxEmptyReads = 100
)

// Decoder reads binary-format accesses in batches.
type Decoder struct {
	r        io.Reader
	buf      []byte
	off, end int   // buf[off:end] holds bytes read but not yet decoded
	rerr     error // first read error; surfaces once the buffer runs dry
	started  bool
	count    int64
	err      error // sticky: io.EOF after a clean end, else terminal
}

// NewDecoder returns a Decoder reading the binary format from r. The magic
// header is consumed and checked on the first Next or DecodeBatch call.
// The read buffer fits the input where the input shows its size (see
// inputBytes), up to decodeBufBytes; otherwise it is smallDecodeBufBytes.
func NewDecoder(r io.Reader) *Decoder { return newDecoder(r, inputBytes(r)) }

// newDecoder is NewDecoder for an input of size unread bytes, or of
// unknown size when size < 0.
func newDecoder(r io.Reader, size int64) *Decoder {
	n := smallDecodeBufBytes
	if size >= 0 {
		n = int(max(min(size, decodeBufBytes), recordBytes))
	}
	return &Decoder{r: r, buf: make([]byte, n)}
}

// Next returns the next access. It returns io.EOF at a clean end of
// stream; any other error (bad magic, truncated record, invalid op byte)
// is terminal and repeated by later calls.
func (d *Decoder) Next() (Access, error) {
	var a [1]Access
	if _, err := d.DecodeBatch(a[:]); err != nil {
		return Access{}, err
	}
	return a[0], nil
}

// DecodeBatch fills dst with decoded accesses and returns how many it
// wrote. It returns a short count with a nil error only when the stream
// ended mid-batch; (0, io.EOF) signals a clean end of stream, and any other
// error is terminal as for Next, returned with the records that preceded
// it. The caller owns dst and reuses it across calls, so a replay loop
// decodes with zero allocations per record.
func (d *Decoder) DecodeBatch(dst []Access) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	if !d.started {
		d.start()
	}
	n := 0
	for n < len(dst) && d.err == nil {
		n += d.decodeBuffered(dst[n:])
		if n == len(dst) || d.err != nil {
			break
		}
		if d.rerr == nil {
			d.fill(recordBytes)
			continue
		}
		// Fewer than one record is buffered and the stream is over.
		err := d.rerr
		if err == io.EOF && d.off == d.end {
			d.err = io.EOF
			break
		}
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		d.err = fmt.Errorf("memtrace: truncated record %d: %w", d.count, err)
	}
	if d.err == io.EOF && n > 0 {
		return n, nil
	}
	return n, d.err
}

// start reads and checks the magic header.
func (d *Decoder) start() {
	d.started = true
	d.fill(len(binaryMagic))
	if d.end-d.off < len(binaryMagic) {
		err := d.rerr
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		d.err = fmt.Errorf("memtrace: reading magic: %w", err)
		return
	}
	magic := d.buf[d.off : d.off+len(binaryMagic)]
	if string(magic) != binaryMagic {
		d.err = fmt.Errorf("memtrace: bad magic %q", magic)
		return
	}
	d.off += len(binaryMagic)
}

// decodeBuffered decodes as many whole buffered records as fit in dst and
// returns how many it wrote. An invalid op byte stops it and sets d.err.
func (d *Decoder) decodeBuffered(dst []Access) int {
	src := d.buf[d.off:d.end]
	k := min(len(dst), len(src)/recordBytes)
	dst = dst[:k]
	for i := range dst {
		rec := src[i*recordBytes : (i+1)*recordBytes]
		op := Op(rec[12])
		if op != Read && op != Write {
			d.err = fmt.Errorf("memtrace: record %d: invalid op byte %d", d.count+int64(i), rec[12])
			k = i
			break
		}
		dst[i] = Access{
			Addr:  binary.LittleEndian.Uint64(rec[0:8]),
			Think: binary.LittleEndian.Uint32(rec[8:12]),
			Op:    op,
		}
	}
	d.off += k * recordBytes
	d.count += int64(k)
	return k
}

// fill moves the undecoded tail to the front of the buffer and reads until
// at least need bytes are buffered or the reader fails; the first read
// error is kept in d.rerr, behind the bytes that came with it.
func (d *Decoder) fill(need int) {
	d.end = copy(d.buf, d.buf[d.off:d.end])
	d.off = 0
	for empty := 0; d.end < need && d.rerr == nil; {
		m, err := d.r.Read(d.buf[d.end:])
		d.end += m
		if err != nil {
			d.rerr = err
		} else if m > 0 {
			empty = 0
		} else if empty++; empty == maxEmptyReads {
			d.rerr = io.ErrNoProgress
		}
	}
}

// Decoded reports how many records have been successfully decoded.
func (d *Decoder) Decoded() int64 { return d.count }

// ReadBinaryLimit decodes a binary trace of at most maxAccesses records,
// streaming: the limit is enforced as records arrive, so an oversized or
// adversarial body never materializes past the cap. maxAccesses <= 0 means
// no limit (equivalent to ReadBinary). A trace with more records fails
// with an error wrapping ErrTraceTooLarge.
//
// The trace is presized from the input's size where the input shows it
// (Len, as on a bytes.Reader, or Stat on a regular *os.File), clamped to
// the limit, and records are decoded straight into its spare capacity.
// End of stream is checked before the trace grows, so a trace of exactly
// its presized length is never copied into a larger one.
func ReadBinaryLimit(r io.Reader, maxAccesses int) (Trace, error) {
	in := inputBytes(r)
	d := newDecoder(r, in)
	size := int(max(0, (in-int64(len(binaryMagic)))/recordBytes))
	var t Trace
	var one [1]Access
	for {
		if len(t) == cap(t) {
			if _, err := d.DecodeBatch(one[:]); err == io.EOF {
				return t, nil
			} else if err != nil {
				return nil, err
			}
			if maxAccesses > 0 && len(t) == maxAccesses {
				return nil, fmt.Errorf("%w (limit %d)", ErrTraceTooLarge, maxAccesses)
			}
			if size <= len(t) {
				size = max(2*cap(t), growRecords)
			}
			if maxAccesses > 0 {
				size = min(size, maxAccesses)
			}
			t = append(append(make(Trace, 0, size), t...), one[0])
		}
		n, err := d.DecodeBatch(t[len(t):cap(t)])
		t = t[:len(t)+n]
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// inputBytes returns how many unread bytes r shows it holds, or -1 when r
// does not show its size.
func inputBytes(r io.Reader) int64 {
	switch v := r.(type) {
	case interface{ Len() int }:
		return int64(v.Len())
	case *os.File:
		fi, err := v.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return -1
		}
		off, err := v.Seek(0, io.SeekCurrent)
		if err != nil {
			return -1
		}
		return max(0, fi.Size()-off)
	}
	return -1
}
