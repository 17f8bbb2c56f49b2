// Package memtrace defines the memory-reference trace format that drives the
// simulator. A trace is the sequence of loads and stores a program issues;
// each access also carries the number of non-memory instructions executed
// since the previous access ("think" time), so a trace fully determines the
// instruction count and therefore CPI.
package memtrace

import (
	"colcache/internal/memory"
)

// Op is the kind of memory operation.
type Op uint8

const (
	Read Op = iota
	Write
)

func (o Op) String() string {
	switch o {
	case Read:
		return "R"
	case Write:
		return "W"
	default:
		return "?"
	}
}

// Access is one memory reference. Think counts the non-memory instructions
// executed immediately before this access; the access itself counts as one
// instruction.
type Access struct {
	Addr  memory.Addr
	Op    Op
	Think uint32
}

// Trace is an ordered sequence of accesses.
type Trace []Access

// Instructions returns the total dynamic instruction count of the trace:
// every access is one instruction plus its preceding think instructions.
func (t Trace) Instructions() int64 {
	var n int64
	for _, a := range t {
		n += int64(a.Think) + 1
	}
	return n
}

// Reads returns the number of load accesses.
func (t Trace) Reads() int64 {
	var n int64
	for _, a := range t {
		if a.Op == Read {
			n++
		}
	}
	return n
}

// Writes returns the number of store accesses.
func (t Trace) Writes() int64 { return int64(len(t)) - t.Reads() }

// Footprint returns the number of distinct cache lines touched under g.
func (t Trace) Footprint(g memory.Geometry) int {
	lines := make(map[uint64]struct{})
	for _, a := range t {
		lines[g.LineNumber(a.Addr)] = struct{}{}
	}
	return len(lines)
}

// Slice returns the sub-trace [from, to). Bounds are clamped.
func (t Trace) Slice(from, to int) Trace {
	if from < 0 {
		from = 0
	}
	if to > len(t) {
		to = len(t)
	}
	if from >= to {
		return nil
	}
	return t[from:to]
}

// Concat appends the given traces into one.
func Concat(traces ...Trace) Trace {
	var total int
	for _, t := range traces {
		total += len(t)
	}
	out := make(Trace, 0, total)
	for _, t := range traces {
		out = append(out, t...)
	}
	return out
}

// Recorder accumulates a trace. Workload kernels call Load/Store/Think as
// they execute; the zero value is ready to use.
type Recorder struct {
	trace Trace
	think uint32
}

// NewRecorder returns a Recorder with room for accesses records, so a
// caller that knows its trace length records without regrowing.
func NewRecorder(accesses int) *Recorder {
	return &Recorder{trace: make(Trace, 0, accesses)}
}

// Think accrues n non-memory instructions before the next access.
func (r *Recorder) Think(n int) {
	if n < 0 {
		return
	}
	r.think += uint32(n)
}

// Load records a read of addr.
func (r *Recorder) Load(addr memory.Addr) { r.record(addr, Read) }

// Store records a write of addr.
func (r *Recorder) Store(addr memory.Addr) { r.record(addr, Write) }

func (r *Recorder) record(addr memory.Addr, op Op) {
	r.trace = append(r.trace, Access{Addr: addr, Op: op, Think: r.think})
	r.think = 0
}

// LoadRegion records a read of region r at byte offset off.
func (r *Recorder) LoadRegion(reg memory.Region, off uint64) { r.Load(reg.Base + off) }

// StoreRegion records a write of region r at byte offset off.
func (r *Recorder) StoreRegion(reg memory.Region, off uint64) { r.Store(reg.Base + off) }

// Trace returns the recorded trace. The recorder may continue to be used;
// further records append to the same backing store, so callers that need a
// stable snapshot should copy.
func (r *Recorder) Trace() Trace { return r.trace }

// Len returns the number of accesses recorded so far.
func (r *Recorder) Len() int { return len(r.trace) }

// Reset discards everything recorded so far.
func (r *Recorder) Reset() {
	r.trace = nil
	r.think = 0
}
