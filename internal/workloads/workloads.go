// Package workloads defines the common shape of the benchmark programs that
// drive the experiments: a program is a memory-reference trace plus the
// address map of the variables it touches, so the layout algorithm can
// reason about which variable each access belongs to.
//
// The kernels in the sub-packages perform their real computation on Go data
// while recording the address of every simulated array reference, so the
// traces are the genuine reference streams of the algorithms, and the
// kernels themselves are testable against reference implementations.
package workloads

import (
	"fmt"
	"math"

	"colcache/internal/memory"
	"colcache/internal/memtrace"
)

// Program is a workload ready to run on the simulator.
type Program struct {
	Name  string
	Trace memtrace.Trace
	Vars  []memory.Region // every simulated variable, in allocation order
}

// Var returns the named variable's region.
func (p *Program) Var(name string) (memory.Region, bool) {
	for _, r := range p.Vars {
		if r.Name == name {
			return r, true
		}
	}
	return memory.Region{}, false
}

// MustVar is Var that panics when the variable is missing; for experiment
// code whose variable set is fixed.
func (p *Program) MustVar(name string) memory.Region {
	r, ok := p.Var(name)
	if !ok {
		panic(fmt.Sprintf("workloads: program %s has no variable %q", p.Name, name))
	}
	return r
}

// DataBytes returns the total footprint of the program's variables.
func (p *Program) DataBytes() uint64 {
	var total uint64
	for _, r := range p.Vars {
		total += r.Size
	}
	return total
}

// Env couples an address-space allocator with a trace recorder; kernels
// allocate their variables and record their references through it.
type Env struct {
	Space *memory.Space
	Rec   *memtrace.Recorder
}

// NewEnv returns an Env allocating from base whose recorder has room for
// exactly accesses records: every generator computes its trace length from
// its knobs first, so the trace is one allocation that never regrows.
func NewEnv(base memory.Addr, accesses int) *Env {
	return &Env{Space: memory.NewSpace(base), Rec: memtrace.NewRecorder(accesses)}
}

// Finish packages the recorded trace and variables into a Program.
func (e *Env) Finish(name string) *Program {
	return &Program{Name: name, Trace: e.Rec.Trace(), Vars: e.Space.Regions()}
}

// Access counts are computed from a generator's knobs before it runs, so a
// caller can refuse a trace that would be too long without building it.
// Their arithmetic saturates at math.MaxInt instead of wrapping, so a count
// past any limit stays past it, and a negative factor counts as zero, as a
// loop with a negative bound never runs.

// SatMul returns a·b, saturated.
func SatMul(a, b int) int {
	if a <= 0 || b <= 0 {
		return 0
	}
	if a > math.MaxInt/b {
		return math.MaxInt
	}
	return a * b
}

// SatAdd returns a+b, saturated.
func SatAdd(a, b int) int {
	a, b = max(a, 0), max(b, 0)
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}

// SatInt converts a uint64 count to int, saturated.
func SatInt(u uint64) int {
	if u > math.MaxInt {
		return math.MaxInt
	}
	return int(u)
}
