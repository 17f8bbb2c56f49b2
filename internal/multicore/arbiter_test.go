package multicore

import (
	"fmt"
	"testing"

	"colcache/internal/memtrace"
)

// linearScan is an independent reference arbiter: it walks the cores
// themselves rather than the clock array, skipping exhausted cores, and
// takes the smallest cycle count under strict < so the lowest index wins a
// tie. It returns -1 when every trace is exhausted.
func linearScan(m *Machine) int {
	next := -1
	for i, c := range m.cores {
		if c.pos >= len(c.trace) {
			continue
		}
		if next < 0 || c.cycles < m.cores[next].cycles {
			next = i
		}
	}
	return next
}

// stepAgainstLinearScan steps m to the end and fails unless every Step
// advanced exactly the core linearScan chose beforehand.
func stepAgainstLinearScan(t *testing.T, m *Machine) {
	t.Helper()
	before := make([]int, m.NumCores())
	step := 0
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("step %d panicked: %v", step, r)
		}
	}()
	for ; ; step++ {
		want := linearScan(m)
		for i, c := range m.cores {
			before[i] = c.pos
		}
		more, err := m.Step()
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if more != (want >= 0) {
			t.Fatalf("step %d: Step() = %v, reference arbiter picked core %d", step, more, want)
		}
		if !more {
			if !m.Done() {
				t.Fatalf("step %d: Step() returned false but Done() is false", step)
			}
			return
		}
		for i, c := range m.cores {
			moved := c.pos - before[i]
			if (i == want && moved != 1) || (i != want && moved != 0) {
				t.Fatalf("step %d: reference arbiter picked core %d, but core %d advanced by %d", step, want, i, moved)
			}
		}
	}
}

// replicated gives every one of cores the same trace in its own 4GB
// window, so the cores stay in lockstep and every pick is a tie.
func replicated(tr memtrace.Trace, cores int) []memtrace.Trace {
	out := make([]memtrace.Trace, cores)
	for i := range out {
		out[i] = make(memtrace.Trace, len(tr))
		for k, a := range tr {
			a.Addr |= uint64(i) << 32
			out[i][k] = a
		}
	}
	return out
}

func TestArbiterMatchesLinearScan(t *testing.T) {
	for cores := 1; cores <= 8; cores++ {
		for _, checks := range []bool{false, true} {
			t.Run(fmt.Sprintf("shared/cores=%d/checks=%v", cores, checks), func(t *testing.T) {
				// sharedConfig draws each core's trace length at random, so
				// the cores also run out at different times.
				stepAgainstLinearScan(t, MustNew(sharedConfig(int64(cores), cores, checks)))
			})
		}
		t.Run(fmt.Sprintf("replicated/cores=%d", cores), func(t *testing.T) {
			cfg := sharedConfig(1, 1, false)
			cfg.Traces = replicated(synthTrace(int64(cores), 300, 0, 0x2000), cores)
			stepAgainstLinearScan(t, MustNew(cfg))
		})
		t.Run(fmt.Sprintf("unequal/cores=%d", cores), func(t *testing.T) {
			// Core i replays 40·i accesses: core 0's trace is empty and
			// the rest run out one after another.
			cfg := sharedConfig(1, 1, true)
			cfg.Traces = make([]memtrace.Trace, cores)
			for i := range cfg.Traces {
				cfg.Traces[i] = synthTrace(int64(i), 40*i, 0, 0x800)
			}
			stepAgainstLinearScan(t, MustNew(cfg))
		})
	}
	t.Run("all-empty", func(t *testing.T) {
		cfg := sharedConfig(1, 1, false)
		cfg.Traces = make([]memtrace.Trace, 3)
		stepAgainstLinearScan(t, MustNew(cfg))
	})
	for _, cores := range []int{1, 3} {
		t.Run(fmt.Sprintf("step-after-run/cores=%d", cores), func(t *testing.T) {
			// Run must leave every clock entry exhausted, on one core as
			// on several.
			m := MustNew(sharedConfig(7, cores, false))
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if more, err := m.Step(); more || err != nil {
				t.Fatalf("Step() after Run() = %v, %v; want false, nil", more, err)
			}
			if !m.Done() {
				t.Fatal("Done() = false after Run()")
			}
		})
	}
}
