package multicore

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"colcache/internal/cache"
	"colcache/internal/memory"
	"colcache/internal/memsys"
	"colcache/internal/memtrace"
	"colcache/internal/replacement"
)

// dumpLines copies every line's metadata so two machines' cache contents can
// be compared wholesale.
func dumpLines(c *cache.Cache) []cache.LineState {
	cfg := c.Config()
	out := make([]cache.LineState, 0, cfg.NumSets*cfg.NumWays)
	for s := 0; s < cfg.NumSets; s++ {
		for w := 0; w < cfg.NumWays; w++ {
			out = append(out, c.LineAt(s, w))
		}
	}
	return out
}

// requireMachinesEqual fails the test unless a and b are observably identical:
// every counter in Stats, every L1 and L2 line, and every L2 column mask.
func requireMachinesEqual(t *testing.T, label string, a, b *Machine) {
	t.Helper()
	sa, sb := a.Stats(), b.Stats()
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("%s: stats diverge:\nwant: %+v\ngot:  %+v", label, sa, sb)
	}
	for i := 0; i < a.NumCores(); i++ {
		if la, lb := dumpLines(a.L1(i)), dumpLines(b.L1(i)); !reflect.DeepEqual(la, lb) {
			t.Fatalf("%s: core %d L1 contents diverge", label, i)
		}
		if ma, mb := a.L2Mask(i), b.L2Mask(i); ma != mb {
			t.Fatalf("%s: core %d L2 mask diverges: %s vs %s", label, i, ma, mb)
		}
	}
	if la, lb := dumpLines(a.L2()), dumpLines(b.L2()); !reflect.DeepEqual(la, lb) {
		t.Fatalf("%s: L2 contents diverge", label)
	}
}

// sharedConfig builds a contended machine config: every core mixes accesses
// to one shared window with a private window, guaranteeing cross-core bus
// traffic.
func sharedConfig(seed int64, cores int, checks bool) Config {
	rng := rand.New(rand.NewSource(seed))
	var traces []memtrace.Trace
	for c := 0; c < cores; c++ {
		n := 200 + rng.Intn(100)
		privLo := 0x10000 * uint64(c+1)
		shared := synthTrace(rng.Int63(), n, 0, 0x600)
		private := synthTrace(rng.Int63(), n, privLo, privLo+0x800)
		mixed := make(memtrace.Trace, 0, 2*n)
		for i := 0; i < n; i++ {
			mixed = append(mixed, shared[i], private[i])
		}
		traces = append(traces, mixed)
	}
	return Config{
		Geometry:    memory.MustGeometry(32, 1024),
		L1:          cache.Config{LineBytes: 32, NumSets: 8, NumWays: 2},
		L2:          cache.Config{LineBytes: 32, NumSets: 16, NumWays: 4},
		Timing:      memsys.DefaultTiming,
		L2HitCycles: 4,
		Traces:      traces,
		Checks:      checks,
	}
}

// disjointConfig is sharedConfig with each core in a private 4GB-aligned
// window: no coherence traffic, only shared-L2 capacity contention.
func disjointConfig(seed int64, cores int, checks bool) Config {
	var traces []memtrace.Trace
	for c := 0; c < cores; c++ {
		lo := uint64(c+1) << 32
		traces = append(traces, synthTrace(seed+int64(c)*997, 300, lo, lo+0x1000))
	}
	cfg := sharedConfig(seed, cores, checks)
	cfg.Traces = traces
	return cfg
}

// remapped partitions the shared L2 one column per core and installs a
// deterministic mid-run repartition schedule.
func remapped(t *testing.T, m *Machine) *Machine {
	t.Helper()
	for c := 0; c < m.NumCores(); c++ {
		if err := m.SetL2Mask(c, replacement.Range(c, c+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.SetRemapSchedule([]RemapEvent{
		{AfterL2Accesses: 40, Core: 0, Mask: replacement.Range(2, 4)},
		{AfterL2Accesses: 40, Core: 1, Mask: replacement.Range(0, 2)},
		{AfterL2Accesses: 90, Core: 2, Mask: replacement.Of(3)},
	}); err != nil {
		t.Fatal(err)
	}
	return m
}

// strideGrid is where an inspector of the given stride must fire over a run
// of total accesses: every multiple of the stride, plus the end when the
// run stops off the grid.
func strideGrid(stride, total int64) []int64 {
	var out []int64
	for p := stride; p <= total; p += stride {
		out = append(out, p)
	}
	if total%stride != 0 {
		out = append(out, total)
	}
	return out
}

// machineBuilder names a fresh-machine constructor for requireRunLoopsAgree.
type machineBuilder struct {
	name  string
	build func() *Machine
}

// Run, a Step loop and RunContext are three drivers of one arbitration:
// with checks on and off, contended and disjoint, they must leave identical
// machines. RunContext at every pair of checkpoint and inspector strides
// must also fire the inspector exactly on the stride grid, seeing there the
// state the Step loop had at the same access count.
func TestRunLoopsAgree(t *testing.T) {
	requireRunLoopsAgree(t, []machineBuilder{
		{"shared-checks", func() *Machine { return MustNew(sharedConfig(42, 3, true)) }},
		{"shared-nochecks", func() *Machine { return MustNew(sharedConfig(42, 3, false)) }},
		{"disjoint-nochecks", func() *Machine { return MustNew(disjointConfig(42, 4, false)) }},
		{"single-core", func() *Machine { return MustNew(sharedConfig(5, 1, false)) }},
	})
}

// The run loops also agree on a partitioned L2 whose column masks change
// mid-run on a remap schedule.
func TestRunLoopsAgreeWithRemap(t *testing.T) {
	requireRunLoopsAgree(t, []machineBuilder{
		{"remap-checks", func() *Machine { return remapped(t, MustNew(sharedConfig(7, 4, true))) }},
		{"remap-nochecks", func() *Machine { return remapped(t, MustNew(sharedConfig(7, 4, false))) }},
	})
}

// requireRunLoopsAgree runs every builder's machine through a Step loop, Run
// and RunContext at each pair of strides, and fails unless they agree.
func requireRunLoopsAgree(t *testing.T, builders []machineBuilder) {
	t.Helper()
	strides := []int64{1, 7, 4096}
	for _, b := range builders {
		// The reference: Step one access at a time, remembering the
		// machine's counters after every access.
		ref := b.build()
		history := []Stats{ref.Stats()}
		for {
			more, err := ref.Step()
			if err != nil {
				t.Fatalf("%s: Step: %v", b.name, err)
			}
			if !more {
				break
			}
			history = append(history, ref.Stats())
		}
		total := ref.AccessesDone()
		if total == 0 || ref.Stats().L2.Accesses == 0 {
			t.Fatalf("%s: degenerate machine", b.name)
		}

		run := b.build()
		if err := run.Run(); err != nil {
			t.Fatalf("%s: Run: %v", b.name, err)
		}
		requireMachinesEqual(t, b.name+" Run", ref, run)

		for _, check := range strides {
			for _, every := range strides {
				m := b.build()
				var fired []int64
				m.SetInspector(every, func(done int64) {
					fired = append(fired, done)
					if got, want := m.Stats(), history[done]; !reflect.DeepEqual(got, want) {
						t.Fatalf("%s check=%d inspect=%d: state at access %d diverges from the Step loop",
							b.name, check, every, done)
					}
				})
				var last int64
				if err := m.RunContext(context.Background(), int(check), func(done int64) {
					if done != total && done%check != 0 {
						t.Fatalf("%s: checkpoint at %d is off the %d stride", b.name, done, check)
					}
					last = done
				}); err != nil {
					t.Fatalf("%s check=%d inspect=%d: RunContext: %v", b.name, check, every, err)
				}
				if last != total {
					t.Fatalf("%s: final checkpoint at %d, want %d", b.name, last, total)
				}
				if want := strideGrid(every, total); !reflect.DeepEqual(fired, want) {
					t.Fatalf("%s check=%d inspect=%d: inspector fired at %v, want %v",
						b.name, check, every, fired, want)
				}
				requireMachinesEqual(t, b.name+" RunContext", ref, m)
			}
		}
	}
}

// Cancelling RunContext mid-run stops at a checkpoint with a consistent
// machine — every invariant holds and the writeback ledger balances — and a
// resumed RunContext continues the same inspector grid to the machine an
// uninterrupted Run builds. Checks-on machines take the Step path of each
// batch, so cancellation and resume are exercised there too.
func TestRunContextCancellationStress(t *testing.T) {
	rounds := 40
	if testing.Short() {
		rounds = 8
	}
	for seed := int64(1); seed <= int64(rounds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		cores := 2 + rng.Intn(3)
		check := 1 + rng.Intn(64)
		every := int64(1 + rng.Intn(100))
		cfg := sharedConfig(seed, cores, seed%2 == 0)

		ref := MustNew(cfg)
		if err := ref.Run(); err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		total := ref.AccessesDone()

		m := MustNew(cfg)
		var fired []int64
		m.SetInspector(every, func(done int64) { fired = append(fired, done) })
		stop := int64(16 + rng.Intn(256))
		ctx, cancel := context.WithCancel(context.Background())
		err := m.RunContext(ctx, check, func(done int64) {
			if done > stop {
				cancel()
			}
		})
		cancel()
		if err != nil && err != context.Canceled {
			t.Fatalf("seed %d: cancelled run: %v", seed, err)
		}
		if err == nil && !m.Done() {
			t.Fatalf("seed %d: run stopped without error or completion", seed)
		}
		if err != nil && m.AccessesDone()%int64(check) != 0 {
			t.Fatalf("seed %d: cancelled at %d, off the %d checkpoint stride", seed, m.AccessesDone(), check)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: post-cancel invariants: %v", seed, err)
		}
		if err := m.RunContext(context.Background(), 1+rng.Intn(64), nil); err != nil {
			t.Fatalf("seed %d: resume: %v", seed, err)
		}
		requireMachinesEqual(t, "resume", ref, m)
		if want := strideGrid(every, total); !reflect.DeepEqual(fired, want) {
			t.Fatalf("seed %d: inspector fired at %v across the resume, want %v", seed, fired, want)
		}
	}
}
