package multicore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"colcache/internal/memsys"
	"colcache/internal/memtrace"
)

// encode returns tr in the binary trace format.
func encode(t testing.TB, tr memtrace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := memtrace.WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decoders returns one decoder per encoded trace, each reading its own
// bytes.Reader.
func decoders(encoded [][]byte) []*memtrace.Decoder {
	out := make([]*memtrace.Decoder, len(encoded))
	for i, b := range encoded {
		out[i] = memtrace.NewDecoder(bytes.NewReader(b))
	}
	return out
}

// streamPair builds two machines over the same traces: one reading them
// in memory, one streaming them through decoders.
func streamPair(t *testing.T, traces []memtrace.Trace, checks bool) (mem, streamed *Machine) {
	t.Helper()
	cfg := sharedConfig(1, 1, checks)
	cfg.Traces = traces
	mem = MustNew(cfg)
	encoded := make([][]byte, len(traces))
	for i, tr := range traces {
		encoded[i] = encode(t, tr)
	}
	cfg.Traces = nil
	cfg.Decoders = decoders(encoded)
	return mem, MustNew(cfg)
}

// requireSameProgress fails unless a and b agree on every counter, the
// access count and Done.
func requireSameProgress(t *testing.T, label string, a, b *Machine) {
	t.Helper()
	if sa, sb := a.Stats(), b.Stats(); !reflect.DeepEqual(sa, sb) {
		t.Fatalf("%s: stats diverge:\nin memory: %+v\nstreamed:  %+v", label, sa, sb)
	}
	if da, db := a.AccessesDone(), b.AccessesDone(); da != db {
		t.Fatalf("%s: AccessesDone %d in memory, %d streamed", label, da, db)
	}
	if da, db := a.Done(), b.Done(); da != db {
		t.Fatalf("%s: Done %v in memory, %v streamed", label, da, db)
	}
}

// A streamed machine is the in-memory machine: every trace length around
// the window (empty, one record, one short of a window, exactly one, one
// over, several and a remainder) on 1 to 8 cores, under Run, a checked
// Step loop and RunContext with an inspector stride that cuts across the
// windows.
func TestStreamedMatchesInMemory(t *testing.T) {
	w := memsys.DefaultCheckEvery
	lengths := []int{0, 1, w - 1, w, w + 1, 3*w + 7}
	const stride = 1000 // does not divide the window
	if w%stride == 0 {
		t.Fatalf("inspector stride %d divides the window %d", stride, w)
	}
	for cores := 1; cores <= 8; cores++ {
		// Core i gets lengths[(cores+i) % 6], so every length meets
		// several core counts and the cores run out at different times.
		// The cores share one address window, so the bus is busy.
		traces := make([]memtrace.Trace, cores)
		for i := range traces {
			traces[i] = synthTrace(int64(10*cores+i), lengths[(cores+i)%len(lengths)], 0, 0x2000)
		}
		t.Run(fmt.Sprintf("Run/cores=%d", cores), func(t *testing.T) {
			mem, streamed := streamPair(t, traces, false)
			if err := mem.Run(); err != nil {
				t.Fatal(err)
			}
			if err := streamed.Run(); err != nil {
				t.Fatal(err)
			}
			requireSameProgress(t, "Run", mem, streamed)
			requireMachinesEqual(t, "Run", mem, streamed)
		})
		t.Run(fmt.Sprintf("Step/cores=%d", cores), func(t *testing.T) {
			mem, streamed := streamPair(t, traces, true)
			for step := 0; ; step++ {
				more, err := mem.Step()
				if err != nil {
					t.Fatalf("step %d in memory: %v", step, err)
				}
				smore, serr := streamed.Step()
				if serr != nil {
					t.Fatalf("step %d streamed: %v", step, serr)
				}
				if more != smore {
					t.Fatalf("step %d: Step() = %v in memory, %v streamed", step, more, smore)
				}
				if mem.AccessesDone() != streamed.AccessesDone() || mem.Done() != streamed.Done() {
					t.Fatalf("step %d: progress diverges", step)
				}
				if step%997 == 0 {
					requireSameProgress(t, fmt.Sprintf("step %d", step), mem, streamed)
				}
				if !more {
					break
				}
			}
			requireSameProgress(t, "Step", mem, streamed)
			requireMachinesEqual(t, "Step", mem, streamed)
		})
		t.Run(fmt.Sprintf("RunContext/cores=%d", cores), func(t *testing.T) {
			mem, streamed := streamPair(t, traces, false)
			frames := func(m *Machine) (fired []int64, final []bool, stats []Stats) {
				m.SetInspector(stride, func(done int64) {
					fired = append(fired, done)
					final = append(final, m.Done())
					stats = append(stats, m.Stats())
				})
				if err := m.RunContext(context.Background(), 0, nil); err != nil {
					t.Fatal(err)
				}
				return fired, final, stats
			}
			mf, mfinal, mst := frames(mem)
			sf, sfinal, sst := frames(streamed)
			if !reflect.DeepEqual(mf, sf) || !reflect.DeepEqual(mfinal, sfinal) {
				t.Fatalf("inspector fired at %v (final %v) in memory, %v (final %v) streamed", mf, mfinal, sf, sfinal)
			}
			if want := strideGrid(stride, mem.AccessesDone()); !reflect.DeepEqual(sf, want) {
				t.Fatalf("inspector fired at %v, want %v", sf, want)
			}
			for k := range mfinal {
				if mfinal[k] != (k == len(mfinal)-1) {
					t.Fatalf("frame %d of %d: Done() = %v", k, len(mfinal), mfinal[k])
				}
			}
			if !reflect.DeepEqual(mst, sst) {
				t.Fatal("inspector frames see different stats")
			}
			requireSameProgress(t, "RunContext", mem, streamed)
			requireMachinesEqual(t, "RunContext", mem, streamed)
		})
	}
	for _, n := range lengths {
		t.Run(fmt.Sprintf("step-after-run/len=%d", n), func(t *testing.T) {
			// A 1-core Run crosses every window and must leave core 0
			// exhausted.
			mem, streamed := streamPair(t, []memtrace.Trace{synthTrace(int64(n), n, 0, 0x2000)}, false)
			for _, m := range []*Machine{mem, streamed} {
				if err := m.Run(); err != nil {
					t.Fatal(err)
				}
				if more, err := m.Step(); more || err != nil {
					t.Fatalf("Step() after Run() = %v, %v; want false, nil", more, err)
				}
			}
			requireSameProgress(t, "Run+Step", mem, streamed)
			if got := streamed.AccessesDone(); got != int64(n) {
				t.Fatalf("AccessesDone = %d, want %d", got, n)
			}
		})
	}
}

// corruptCore2 streams three traces of w+300 records; corrupt damages
// core 2's encoded stream.
func corruptCore2(t *testing.T, checks bool, corrupt func(b []byte) []byte) *Machine {
	t.Helper()
	n := memsys.DefaultCheckEvery + 300
	encoded := make([][]byte, 3)
	for i := range encoded {
		encoded[i] = encode(t, synthTrace(int64(i), n, 0, 0x2000))
	}
	encoded[2] = corrupt(encoded[2])
	cfg := sharedConfig(1, 1, checks)
	cfg.Traces = nil
	cfg.Decoders = decoders(encoded)
	return MustNew(cfg)
}

// A decode error in core 2's stream stops every runner after core 2's
// records before the fault, with an error naming core 2 and the record;
// the stopped machine stays stopped.
func TestStreamDecodeErrors(t *testing.T) {
	n := memsys.DefaultCheckEvery + 300
	header := len(encode(t, nil))
	const badRecord = memsys.DefaultCheckEvery + 100 // in the second window
	cases := []struct {
		name    string
		corrupt func(b []byte) []byte
		ran     int // core 2's records before the fault
		want    string
	}{
		{"truncated-final-record", func(b []byte) []byte { return b[:len(b)-5] }, n - 1,
			fmt.Sprintf("truncated record %d", n-1)},
		{"bad-op-mid-stream", func(b []byte) []byte {
			b[header+badRecord*13+12] = 7
			return b
		}, badRecord, fmt.Sprintf("record %d: invalid op byte 7", badRecord)},
	}
	runners := []struct {
		name   string
		checks bool
		run    func(m *Machine) error
	}{
		{"Run", false, (*Machine).Run},
		{"RunContext", false, func(m *Machine) error {
			m.SetInspector(1000, func(int64) {})
			return m.RunContext(context.Background(), 0, nil)
		}},
		{"Step", true, func(m *Machine) error {
			for {
				more, err := m.Step()
				if err != nil {
					return err
				}
				if !more {
					return errors.New("Step ran out without an error")
				}
			}
		}},
	}
	for _, tc := range cases {
		var first *Stats
		for _, r := range runners {
			t.Run(tc.name+"/"+r.name, func(t *testing.T) {
				m := corruptCore2(t, r.checks, tc.corrupt)
				err := r.run(m)
				var te *TraceError
				if !errors.As(err, &te) || te.Core != 2 {
					t.Fatalf("error %v, want a TraceError for core 2", err)
				}
				if msg := err.Error(); !strings.Contains(msg, "core 2") || !strings.Contains(msg, tc.want) {
					t.Fatalf("error %q does not name core 2 and %q", msg, tc.want)
				}
				if got := m.CoreStatsAt(2).MemAccesses; got != int64(tc.ran) {
					t.Fatalf("core 2 ran %d records, want the %d before the fault", got, tc.ran)
				}
				if more, err := m.Step(); more || !errors.Is(err, te) {
					t.Fatalf("Step() after the fault = %v, %v; want false and the fault", more, err)
				}
				if err := m.Run(); !errors.Is(err, te) {
					t.Fatalf("Run() after the fault = %v; want the fault", err)
				}
				if err := m.CheckInvariants(); err != nil {
					t.Fatalf("invariants after the fault: %v", err)
				}
				// Every runner stops at the same access.
				st := m.Stats()
				if first == nil {
					first = &st
				} else if !reflect.DeepEqual(*first, st) {
					t.Fatalf("%s stopped elsewhere than %s", r.name, runners[0].name)
				}
			})
		}
	}
}

// A stream whose header is bad has no record to run, so New fails.
func TestStreamBadMagicFailsInNew(t *testing.T) {
	good := encode(t, synthTrace(1, 10, 0, 0x2000))
	header := len(encode(t, nil))
	bad := append(bytes.Repeat([]byte("X"), header), good[header:]...)
	cfg := sharedConfig(1, 1, false)
	cfg.Traces = nil
	cfg.Decoders = decoders([][]byte{good, bad})
	_, err := New(cfg)
	var te *TraceError
	if !errors.As(err, &te) || te.Core != 1 || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("New = %v, want a bad-magic TraceError for core 1", err)
	}

	cfg.Traces = []memtrace.Trace{nil, nil}
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted Traces and Decoders together")
	}
	cfg.Traces = nil
	cfg.Decoders = []*memtrace.Decoder{nil}
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted a nil decoder")
	}
}
