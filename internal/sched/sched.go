// Package sched implements the multitasking substrate of the paper's
// Figure 5 experiment: several jobs share one processor and one cache under
// round-robin scheduling with a configurable time quantum. Each job replays
// its memory-reference trace cyclically until it has executed a target
// number of instructions; per-job cycle and instruction counts give the
// per-job CPI the paper plots.
package sched

import (
	"fmt"

	"colcache/internal/memsys"
	"colcache/internal/memtrace"
	"colcache/internal/replacement"
)

// Job is one runnable task.
type Job struct {
	Name string
	// Trace is replayed cyclically.
	Trace memtrace.Trace
	// TargetInstructions is how many instructions the job must execute
	// before it completes.
	TargetInstructions int64
	// Mask, when non-zero, applies to every access of this job in place of
	// the tint-derived mask — process-granularity partitioning, the Sun
	// patent scheme the paper contrasts with (§5.1). It cannot distinguish
	// the job's own data structures from each other; per-region tints can.
	Mask replacement.Mask

	pos      int
	executed int64
	cycles   int64
	misses   int64
	accesses int64
	energyPJ int64
}

// Done reports whether the job has reached its target.
func (j *Job) Done() bool { return j.executed >= j.TargetInstructions }

// Stats summarizes one job's run.
type Stats struct {
	Name         string
	Instructions int64
	Cycles       int64
	Accesses     int64
	Misses       int64
	Quanta       int64 // times the job was scheduled
	// EnergyPJ is the memory-system energy the job's own accesses consumed
	// (memsys.Energy model), so multitasking experiments can plot energy
	// per job next to CPI per job.
	EnergyPJ int64
}

// CPI returns the job's clocks per instruction.
func (s Stats) CPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instructions)
}

// MissRate returns the job's cache misses per access.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// EPI returns the job's memory-system energy per instruction, in picojoules.
func (s Stats) EPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.EnergyPJ) / float64(s.Instructions)
}

func (s Stats) String() string {
	return fmt.Sprintf("%s: instrs=%d cycles=%d CPI=%.3f missrate=%.3f EPI=%.1fpJ quanta=%d",
		s.Name, s.Instructions, s.Cycles, s.CPI(), s.MissRate(), s.EPI(), s.Quanta)
}

// RoundRobin schedules jobs on a shared machine.
type RoundRobin struct {
	Sys *memsys.System
	// Quantum is the time slice in instructions. Each scheduled job runs
	// until its executed instructions for this quantum reach Quantum (the
	// final access may overshoot, as a real instruction is atomic).
	Quantum int64
	// FlushTLBOnSwitch models a TLB without address-space tags.
	FlushTLBOnSwitch bool
	// UseASIDs tags TLB entries with the running job's index instead of
	// flushing on switch — the hardware alternative to FlushTLBOnSwitch.
	UseASIDs bool
	// JitterFrac, when positive, perturbs every quantum uniformly within
	// ±JitterFrac of Quantum — modeling the paper's observation that "due
	// to interrupts and exceptions the effective time quantum can vary
	// significantly" (§4.2). Deterministic per JitterSeed.
	JitterFrac float64
	JitterSeed uint64

	jitterState uint64
	jobs        []*Job
	quanta      []int64
}

// effectiveQuantum returns this dispatch's quantum, jittered if configured.
func (rr *RoundRobin) effectiveQuantum() int64 {
	if rr.JitterFrac <= 0 {
		return rr.Quantum
	}
	if rr.jitterState == 0 {
		rr.jitterState = rr.JitterSeed
		if rr.jitterState == 0 {
			rr.jitterState = 0x9e3779b97f4a7c15
		}
	}
	// xorshift64*
	x := rr.jitterState
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	rr.jitterState = x
	u := float64(x*0x2545f4914f6cdd1d>>11) / float64(1<<53) // [0,1)
	q := float64(rr.Quantum) * (1 + rr.JitterFrac*(2*u-1))
	if q < 1 {
		q = 1
	}
	return int64(q)
}

// NewRoundRobin returns a scheduler over sys with the given quantum.
func NewRoundRobin(sys *memsys.System, quantum int64) (*RoundRobin, error) {
	if quantum < 1 {
		return nil, fmt.Errorf("sched: quantum %d < 1", quantum)
	}
	return &RoundRobin{Sys: sys, Quantum: quantum}, nil
}

// Add registers a job. Jobs run in registration order each round.
func (rr *RoundRobin) Add(j *Job) error {
	if len(j.Trace) == 0 {
		return fmt.Errorf("sched: job %s has an empty trace", j.Name)
	}
	if j.TargetInstructions < 1 {
		return fmt.Errorf("sched: job %s has target %d < 1", j.Name, j.TargetInstructions)
	}
	rr.jobs = append(rr.jobs, j)
	rr.quanta = append(rr.quanta, 0)
	return nil
}

// runQuantum executes one quantum of job j and returns whether it ran.
func (rr *RoundRobin) runQuantum(idx int) bool {
	j := rr.jobs[idx]
	if j.Done() {
		return false
	}
	rr.quanta[idx]++
	if cs := rr.Sys.Timing().ContextSwitch; cs > 0 {
		rr.Sys.AddCycles(int64(cs))
		j.cycles += int64(cs)
	}
	if rr.FlushTLBOnSwitch {
		rr.Sys.TLB().FlushAll()
	}
	if rr.UseASIDs {
		rr.Sys.TLB().SetASID(uint16(idx))
	}
	// The quantum stops at whichever comes first, its own length or the
	// job's target; the access that reaches it may overshoot.
	budget := min(rr.effectiveQuantum(), j.TargetInstructions-j.executed)
	// Nothing but the scheduler runs the machine during a quantum, so the
	// job's misses and energy are the deltas of the machine counters
	// across it, read once per quantum.
	missesBefore := rr.Sys.Cache().Misses()
	energyBefore := rr.Sys.EnergyPJ()
	var ran int64
	for ran < budget {
		// One batch to the budget or the end of the trace; a trace that
		// wraps within the quantum continues from its start.
		n, instrs, cycles := rr.Sys.RunBudget(j.Trace[j.pos:], budget-ran, j.Mask)
		if j.pos += n; j.pos == len(j.Trace) {
			j.pos = 0
		}
		ran += instrs
		j.cycles += cycles
		j.accesses += int64(n)
	}
	j.executed += ran
	j.misses += rr.Sys.Cache().Misses() - missesBefore
	j.energyPJ += rr.Sys.EnergyPJ() - energyBefore
	return true
}

// Run schedules all jobs round-robin until every job completes, then
// returns per-job statistics in registration order.
func (rr *RoundRobin) Run() []Stats {
	for {
		anyRan := false
		for i := range rr.jobs {
			if rr.runQuantum(i) {
				anyRan = true
			}
		}
		if !anyRan {
			break
		}
	}
	out := make([]Stats, len(rr.jobs))
	for i, j := range rr.jobs {
		out[i] = Stats{
			Name:         j.Name,
			Instructions: j.executed,
			Cycles:       j.cycles,
			Accesses:     j.accesses,
			Misses:       j.misses,
			Quanta:       rr.quanta[i],
			EnergyPJ:     j.energyPJ,
		}
	}
	return out
}
