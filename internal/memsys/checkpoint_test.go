package memsys

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"colcache/internal/memtrace"
)

// mixedTrace exercises hits, misses, evictions and writebacks so a resume
// that failed to rebuild any piece of machine state would diverge.
func mixedTrace(n int) memtrace.Trace {
	tr := make(memtrace.Trace, n)
	for i := range tr {
		op := memtrace.Read
		if i%3 == 0 {
			op = memtrace.Write
		}
		// Two interleaved working sets, one larger than the cache, with
		// periodic revisits — a realistic mix of locality and conflict.
		addr := uint64(i%97) * 32
		if i%5 == 0 {
			addr = uint64(i%1031)*64 + 1<<20
		}
		tr[i] = memtrace.Access{Addr: addr, Op: op, Think: uint32(i % 3)}
	}
	return tr
}

// A run resumed from any checkpoint must produce exactly the cycles and
// stats of an uninterrupted run — the guarantee crash recovery rides on.
func TestRunContextFromMatchesUninterrupted(t *testing.T) {
	tr := mixedTrace(20000)
	ref := testSystem(t)
	wantCycles, err := ref.RunContext(context.Background(), tr, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantStats := ref.Stats()

	for _, cutoff := range []int64{1, 512, 4096, 9999, 19999, 20000} {
		// Simulate the interrupted run to harvest a genuine checkpoint.
		pre := testSystem(t)
		var cp Checkpoint
		for _, a := range tr[:cutoff] {
			cp.Cycles += pre.Access(a)
		}
		cp.Done = cutoff

		sys := testSystem(t)
		got, err := sys.RunContextFrom(context.Background(), tr, cp, RunOptions{CheckEvery: 1024})
		if err != nil {
			t.Fatalf("cutoff %d: %v", cutoff, err)
		}
		if got != wantCycles {
			t.Fatalf("cutoff %d: cycles = %d, uninterrupted = %d", cutoff, got, wantCycles)
		}
		if sys.Stats() != wantStats {
			t.Fatalf("cutoff %d: stats diverged:\n resumed %+v\n    want %+v", cutoff, sys.Stats(), wantStats)
		}
	}
}

// A resume from a checkpoint off both stride grids, with an inspector
// attached, must fire the inspections and checkpoints the uninterrupted run
// fires after that point — same positions, same statistics — and end with
// the same cycles and stats.
func TestRunContextFromOffGridWithInspector(t *testing.T) {
	tr := mixedTrace(20000)
	type event struct {
		inspect bool
		done    int
		st      Stats
	}
	record := func(evs *[]event) RunOptions {
		return RunOptions{
			CheckEvery:   1024,
			InspectEvery: 700,
			OnInspect:    func(done int, st Stats) { *evs = append(*evs, event{true, done, st}) },
			OnCheckpoint: func(done int, st Stats) { *evs = append(*evs, event{false, done, st}) },
		}
	}
	var want []event
	ref := testSystem(t)
	wantCycles, err := ref.RunContext(context.Background(), tr, record(&want))
	if err != nil {
		t.Fatal(err)
	}

	const cutoff = 5001 // a multiple of neither 1024 nor 700
	pre := testSystem(t)
	cp := Checkpoint{Done: cutoff}
	for _, a := range tr[:cutoff] {
		cp.Cycles += pre.Access(a)
	}
	var got []event
	sys := testSystem(t)
	gotCycles, err := sys.RunContextFrom(context.Background(), tr, cp, record(&got))
	if err != nil {
		t.Fatal(err)
	}
	if gotCycles != wantCycles || sys.Stats() != ref.Stats() {
		t.Fatalf("resumed run: %d cycles %+v, uninterrupted %d cycles %+v", gotCycles, sys.Stats(), wantCycles, ref.Stats())
	}
	var tail []event
	for _, e := range want {
		if e.done > cutoff {
			tail = append(tail, e)
		}
	}
	if !reflect.DeepEqual(got, tail) {
		t.Fatalf("resumed events diverge from the uninterrupted run's tail: got %d events, want %d", len(got), len(tail))
	}
	if len(tail) < 20 || tail[0].done != 5120 || !tail[1].inspect || tail[1].done != 5600 {
		t.Fatalf("degenerate event tail: %d events, first %+v", len(tail), tail[0])
	}
}

// Progress callbacks after a resume must report absolute trace positions.
func TestRunContextFromAbsoluteProgress(t *testing.T) {
	tr := mixedTrace(10000)
	pre := testSystem(t)
	var cp Checkpoint
	for _, a := range tr[:6000] {
		cp.Cycles += pre.Access(a)
	}
	cp.Done = 6000

	sys := testSystem(t)
	var dones []int
	if _, err := sys.RunContextFrom(context.Background(), tr, cp, RunOptions{
		CheckEvery:   2048,
		OnCheckpoint: func(done int, _ Stats) { dones = append(dones, done) },
	}); err != nil {
		t.Fatal(err)
	}
	if len(dones) == 0 {
		t.Fatal("no checkpoints fired after resume")
	}
	for _, d := range dones {
		if d <= 6000 && d != 6000 {
			t.Fatalf("checkpoint at %d inside the fast-forwarded prefix", d)
		}
	}
	if dones[len(dones)-1] != len(tr) {
		t.Fatalf("final checkpoint at %d, want %d", dones[len(dones)-1], len(tr))
	}
}

// A checkpoint that does not belong to this trace must fail the
// cross-check, not silently resume into a wrong result.
func TestRunContextFromRejectsForeignCheckpoint(t *testing.T) {
	tr := mixedTrace(5000)
	sys := testSystem(t)
	if _, err := sys.RunContextFrom(context.Background(), tr, Checkpoint{Done: 1000, Cycles: 123456789}, RunOptions{}); err == nil {
		t.Fatal("foreign checkpoint accepted")
	}
	sys2 := testSystem(t)
	if _, err := sys2.RunContextFrom(context.Background(), tr, Checkpoint{Done: 99999, Cycles: 1}, RunOptions{}); err == nil {
		t.Fatal("checkpoint past trace end accepted")
	}
}

// Checkpoints must round-trip through JSON unchanged (they live in WAL
// records).
func TestCheckpointSerialization(t *testing.T) {
	cp := Checkpoint{Done: 123456, Cycles: 9876543210}
	b, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	var back Checkpoint
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != cp {
		t.Fatalf("round trip %+v -> %s -> %+v", cp, b, back)
	}
}
