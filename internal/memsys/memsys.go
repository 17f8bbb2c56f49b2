// Package memsys composes the simulated machine: CPU port → TLB → column
// cache and/or scratchpad → main memory, with cycle accounting. It is the
// trace-driven substrate all experiments run on.
//
// The timing model is deliberately simple — a fixed hit latency and a fixed
// miss penalty — because every effect the paper measures (Figures 4 and 5)
// is a hit-rate effect produced by the replacement mechanism. Penalties are
// configurable so the crossover ablations can sweep them.
package memsys

import (
	"context"
	"fmt"
	"math"

	"colcache/internal/cache"
	"colcache/internal/memory"
	"colcache/internal/memtrace"
	"colcache/internal/replacement"
	"colcache/internal/scratchpad"
	"colcache/internal/tint"
	"colcache/internal/vm"
)

// Timing fixes the cycle costs of the machine. Zero-valued fields are legal
// (a cost of zero cycles); use DefaultTiming for a realistic starting point.
type Timing struct {
	NonMemInstr   int // cycles per non-memory instruction
	CacheHit      int // cycles for an L1 hit (and the L1 probe on a miss)
	MissPenalty   int // additional cycles to fetch a line from main memory
	Writeback     int // additional cycles when a miss evicts a dirty line
	ScratchpadHit int // cycles for a dedicated-scratchpad access
	Uncached      int // cycles for an uncached access
	TLBMiss       int // additional cycles for a page-table walk on TLB miss
	ContextSwitch int // cycles charged by the scheduler per switch
	// WriteThroughStore is the additional cost of every store under a
	// write-through cache (the memory/bus trip a write buffer cannot fully
	// hide under sustained stores). Zero models a perfect write buffer.
	WriteThroughStore int
}

// DefaultTiming models a small embedded core: single-cycle execute and L1
// hit, a 20-cycle main-memory access, single-cycle scratchpad.
var DefaultTiming = Timing{
	NonMemInstr:   1,
	CacheHit:      1,
	MissPenalty:   20,
	Writeback:     5,
	ScratchpadHit: 1,
	Uncached:      20,
	TLBMiss:       0,
	ContextSwitch: 0,
}

// Config assembles a System.
type Config struct {
	Geometry memory.Geometry
	Cache    cache.Config
	TLB      vm.TLBConfig
	Timing   Timing
	// ScratchpadBytes sizes the dedicated scratchpad SRAM; 0 means none.
	ScratchpadBytes uint64
}

// Stats aggregates machine-level counters.
type Stats struct {
	Instructions       int64
	Cycles             int64
	MemAccesses        int64
	ScratchpadAccesses int64
	UncachedAccesses   int64
	Cache              cache.Stats
	TLB                vm.TLBStats
	// L2 holds the second-level counters and HasL2 whether one is attached;
	// the zero value means a machine with no L2.
	L2    cache.Stats
	HasL2 bool
}

// CPI returns cycles per instruction, the paper's Figure 5 metric.
func (s Stats) CPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instructions)
}

func (s Stats) String() string {
	out := fmt.Sprintf("instrs=%d cycles=%d CPI=%.3f mem=%d scratch=%d cache{%s}",
		s.Instructions, s.Cycles, s.CPI(), s.MemAccesses, s.ScratchpadAccesses, s.Cache)
	if s.HasL2 {
		out += fmt.Sprintf(" l2{%s}", s.L2)
	}
	return out + fmt.Sprintf(" tlb{hit=%.2f%%}", 100*s.TLB.HitRate())
}

// AccessObserver receives every access that reaches the cache, after it
// resolved, attributed to the tint that governed its replacement mask.
// Scratchpad and uncached accesses bypass the cache and are not reported.
// Observers may remap tints from inside the callback (the adaptive
// controller does); the new masks apply from the next access on.
type AccessObserver interface {
	ObserveAccess(id tint.Tint, addr memory.Addr, miss bool)
}

// System is the simulated machine. It is not safe for concurrent use.
type System struct {
	g         memory.Geometry
	cache     *cache.Cache
	tints     *tint.Table
	pt        *vm.PageTable
	tlb       *vm.TLB
	scratch   *scratchpad.Scratchpad
	timing    Timing
	l2        *l2
	tintStats map[tint.Tint]*tintEntry
	observer  AccessObserver
	energy    Energy
	energyPJ  int64

	instructions int64
	cycles       int64
	memAccesses  int64
	scratchAcc   int64
	uncachedAcc  int64
}

// New builds a System from cfg.
func New(cfg Config) (*System, error) {
	if cfg.Geometry.LineBytes == 0 {
		return nil, fmt.Errorf("memsys: geometry not initialized")
	}
	if cfg.Geometry.LineBytes != cfg.Cache.LineBytes {
		return nil, fmt.Errorf("memsys: geometry line size %d != cache line size %d",
			cfg.Geometry.LineBytes, cfg.Cache.LineBytes)
	}
	c, err := cache.New(cfg.Cache)
	if err != nil {
		return nil, err
	}
	pt := vm.NewPageTable(cfg.Geometry)
	tlbCfg := cfg.TLB
	if tlbCfg.Entries == 0 {
		tlbCfg = vm.DefaultTLBConfig
	}
	tlb, err := vm.NewTLB(tlbCfg, pt)
	if err != nil {
		return nil, err
	}
	return &System{
		g:       cfg.Geometry,
		cache:   c,
		tints:   tint.NewTable(cfg.Cache.NumWays),
		pt:      pt,
		tlb:     tlb,
		scratch: scratchpad.New(cfg.ScratchpadBytes),
		timing:  cfg.Timing,
		energy:  DefaultEnergy,
	}, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Geometry returns the machine geometry.
func (s *System) Geometry() memory.Geometry { return s.g }

// Cache returns the column cache.
func (s *System) Cache() *cache.Cache { return s.cache }

// Tints returns the tint table.
func (s *System) Tints() *tint.Table { return s.tints }

// PageTable returns the page table.
func (s *System) PageTable() *vm.PageTable { return s.pt }

// TLB returns the TLB.
func (s *System) TLB() *vm.TLB { return s.tlb }

// Scratchpad returns the dedicated scratchpad model.
func (s *System) Scratchpad() *scratchpad.Scratchpad { return s.scratch }

// Timing returns the machine's cycle costs.
func (s *System) Timing() Timing { return s.timing }

// SetAccessObserver registers o to receive every cached access; nil
// detaches. This is the hook the adaptive column-allocation controller
// (internal/controller) rides: the machine pushes tint-attributed accesses
// out, so the controller never needs to import the machine.
func (s *System) SetAccessObserver(o AccessObserver) { s.observer = o }

// Stats snapshots all counters. The snapshot is a detached copy — value
// types all the way down, no pointers into the live machine — so it can be
// published to another goroutine (a metrics scraper, a job-status handler)
// while the simulation keeps running. It is a full snapshot, not for
// per-access use: a caller that needs one counter around a batch reads
// that counter (Cache().Misses(), EnergyPJ) or takes deltas across it.
func (s *System) Stats() Stats {
	st := Stats{
		Instructions:       s.instructions,
		Cycles:             s.cycles,
		MemAccesses:        s.memAccesses,
		ScratchpadAccesses: s.scratchAcc,
		UncachedAccesses:   s.uncachedAcc,
		Cache:              s.cache.Stats(),
		TLB:                s.tlb.Stats(),
	}
	if s.l2 != nil {
		st.L2 = s.l2.cache.Stats()
		st.HasL2 = true
	}
	return st
}

// ResetStats zeroes the machine, L1, L2 and TLB counters without touching
// any cache or TLB contents, so measurement can exclude warmup. It does not
// reset the accumulated energy (EnergyPJ), the per-tint statistics
// (ResetTintStats) or the scratchpad's access count.
func (s *System) ResetStats() {
	s.instructions, s.cycles, s.memAccesses, s.scratchAcc, s.uncachedAcc = 0, 0, 0, 0, 0
	s.cache.ResetStats()
	if s.l2 != nil {
		s.l2.cache.ResetStats()
	}
	s.tlb.ResetStats()
}

// AddCycles charges overhead cycles (e.g. context-switch cost) without
// executing instructions.
func (s *System) AddCycles(n int64) { s.cycles += n }

// Access executes one trace access (plus its think instructions) and returns
// the cycles it consumed.
func (s *System) Access(a memtrace.Access) int64 {
	_, _, cyc := s.RunBudget([]memtrace.Access{a}, math.MaxInt64, 0)
	return cyc
}

// AccessMasked is Access with the tint-derived column mask replaced by the
// given one. This models process-granularity partitioning — the Sun patent
// scheme the paper contrasts with (§5.1): the running process's bit mask
// applies to every one of its accesses, regardless of address. A zero mask
// falls back to the tint mechanism.
func (s *System) AccessMasked(a memtrace.Access, override replacement.Mask) int64 {
	_, _, cyc := s.RunBudget([]memtrace.Access{a}, math.MaxInt64, override)
	return cyc
}

// Run executes an entire trace and returns the cycles consumed.
func (s *System) Run(t memtrace.Trace) int64 {
	_, _, cyc := s.RunBudget(t, math.MaxInt64, 0)
	return cyc
}

// RunBudget is the machine's one run loop. It executes t from its start
// until budget instructions have executed or t ends; the access that
// reaches the budget completes even if it overshoots, as a real
// instruction is atomic. A non-zero override replaces the tint-derived
// column mask of every access, as in AccessMasked. It returns the accesses
// executed, the instructions they retired and the cycles they consumed.
//
// Instructions, cycles and memory accesses ride in locals and land on the
// machine once per call. That is exact because nothing reads those
// counters during the batch: observers see only their callback's
// arguments, and AddCycles and Stats run between batches.
func (s *System) RunBudget(t memtrace.Trace, budget int64, override replacement.Mask) (n int, instrs, cycles int64) {
	for n < len(t) && instrs < budget {
		a := t[n]
		n++
		instrs += int64(a.Think) + 1
		cycles += s.access(a, override)
	}
	s.instructions += instrs
	s.cycles += cycles
	s.memAccesses += int64(n)
	return n, instrs, cycles
}

// access executes one access and returns the cycles it consumed; the
// caller charges them, and the instruction and access counts, to the
// machine. An L1 hit on the set's memoized way (cache.HitFast) skips the
// tint mask lookup and the cache.Result, exactly as the multicore
// stepper's access does: the mask governs replacement only, which a hit
// never reaches.
func (s *System) access(a memtrace.Access, override replacement.Mask) int64 {
	cyc := int64(a.Think) * int64(s.timing.NonMemInstr)

	// Dedicated scratchpad regions bypass the whole cache hierarchy.
	if s.scratch.Contains(a.Addr) {
		s.scratch.Note()
		s.scratchAcc++
		s.noteEnergy(true, false, false, false, false, false)
		return cyc + int64(s.timing.ScratchpadHit)
	}

	pte, tlbHit := s.tlb.Lookup(a.Addr)
	if !tlbHit {
		cyc += int64(s.timing.TLBMiss)
	}
	if pte.Uncached {
		s.uncachedAcc++
		s.noteEnergy(false, true, !tlbHit, false, false, false)
		return cyc + int64(s.timing.Uncached)
	}

	isWrite := a.Op == memtrace.Write
	cyc += int64(s.timing.CacheHit)
	if isWrite && s.cache.Config().Write == cache.WriteThroughNoAllocate {
		cyc += int64(s.timing.WriteThroughStore)
	}
	if _, _, ok := s.cache.HitFast(a.Addr, isWrite); ok {
		s.noteTintAccess(pte.Tint, false)
		if s.observer != nil {
			s.observer.ObserveAccess(pte.Tint, a.Addr, false)
		}
		s.noteEnergy(false, false, !tlbHit, false, false, false)
		return cyc
	}

	mask := override
	if mask == 0 {
		mask = s.tints.Mask(pte.Tint)
	}
	var res cache.Result
	if isWrite {
		res = s.cache.Write(a.Addr, mask)
	} else {
		res = s.cache.Read(a.Addr, mask)
	}
	s.noteTintAccess(pte.Tint, !res.Hit)
	if s.observer != nil {
		s.observer.ObserveAccess(pte.Tint, a.Addr, !res.Hit)
	}
	l2Miss := false
	if !res.Hit {
		if s.l2 != nil {
			var evicted memory.Addr
			if res.Writeback {
				evicted = s.evictedAddrOf(a, res)
			}
			var l2cyc int64
			l2cyc, l2Miss = s.l2Access(a, mask, res.Writeback, evicted)
			cyc += l2cyc
		} else {
			cyc += int64(s.timing.MissPenalty)
			if res.Writeback {
				cyc += int64(s.timing.Writeback)
			}
		}
	}
	s.noteEnergy(false, false, !tlbHit, !res.Hit, s.l2 != nil, l2Miss)
	return cyc
}

// RunOptions parameterize RunContext.
type RunOptions struct {
	// CheckEvery is the cooperative-cancellation stride: the context is
	// polled and OnCheckpoint fired every CheckEvery accesses. Zero or
	// negative means DefaultCheckEvery. Small strides bound cancellation
	// latency; large ones keep the hot loop branch-free longer.
	CheckEvery int
	// OnCheckpoint, when non-nil, receives the number of accesses executed
	// so far and a detached Stats snapshot at every checkpoint and once
	// more after the final access. It runs on the simulation goroutine;
	// publish the snapshot under your own lock if another goroutine reads
	// it.
	OnCheckpoint func(done int, st Stats)
	// InspectEvery, with OnInspect non-nil, fires the inspection callback
	// at exact trace positions — every InspectEvery accesses, independent
	// of the CheckEvery stride, plus once after the final access when the
	// trace length is not a stride multiple. Exact positions (rather than
	// checkpoint-aligned ones) make the captured frame sequence a pure
	// function of (config, trace, InspectEvery), which is what lets the
	// inspect conformance check demand bit-identical frames from every
	// execution strategy. Zero disables inspection.
	InspectEvery int
	// OnInspect runs on the simulation goroutine while the machine is
	// quiescent, so it may read cache contents, tint table and page table
	// directly (the inspect reducer does).
	OnInspect func(done int, st Stats)
}

// DefaultCheckEvery is the RunContext cancellation stride when
// RunOptions.CheckEvery is zero.
const DefaultCheckEvery = 4096

// RunContext executes the trace like Run but cooperatively: every
// opts.CheckEvery accesses it polls ctx and reports progress, so a serving
// layer can cancel a simulation mid-trace (request timeout, client gone,
// shutdown) and scrape live statistics without touching the simulation's
// own state. Returns the cycles consumed so far and ctx.Err() if canceled.
func (s *System) RunContext(ctx context.Context, t memtrace.Trace, opts RunOptions) (int64, error) {
	return s.runFrom(ctx, t, 0, 0, opts)
}

// runFrom executes t[start:] with RunContext's cadence and returns total
// (the cycles t[:start] consumed) plus the cycles of the rest. Checkpoints
// and inspections land on absolute trace positions, so a run resumed at
// start continues the grid the interrupted one used. The trace runs in
// batches to the next event (checkpoint, inspection or end of trace).
func (s *System) runFrom(ctx context.Context, t memtrace.Trace, start int, total int64, opts RunOptions) (int64, error) {
	every := opts.CheckEvery
	if every <= 0 {
		every = DefaultCheckEvery
	}
	inspect := 0
	nextInspect := 0
	if opts.OnInspect != nil && opts.InspectEvery > 0 {
		inspect = opts.InspectEvery
		nextInspect = (start/inspect + 1) * inspect
	}
	nextCheck := (start/every + 1) * every
	for i := start; i < len(t); {
		end := min(len(t), nextCheck)
		if inspect > 0 {
			end = min(end, nextInspect)
		}
		total += s.Run(t[i:end])
		i = end
		if i == nextInspect {
			opts.OnInspect(i, s.Stats())
			nextInspect += inspect
		}
		if i == nextCheck {
			nextCheck += every
			if opts.OnCheckpoint != nil {
				opts.OnCheckpoint(i, s.Stats())
			}
			if err := ctx.Err(); err != nil {
				return total, err
			}
		}
	}
	if inspect > 0 && nextInspect != len(t)+inspect {
		opts.OnInspect(len(t), s.Stats())
	}
	if opts.OnCheckpoint != nil {
		opts.OnCheckpoint(len(t), s.Stats())
	}
	return total, ctx.Err()
}

// MapRegion allocates a tint named after the region, re-tints the region's
// pages to it, and maps the tint to mask. It returns the tint for later
// remapping. This is the software-visible column-caching API.
func (s *System) MapRegion(r memory.Region, mask replacement.Mask) (tint.Tint, error) {
	id := s.tints.NewTint(r.Name)
	if err := s.tints.SetMask(id, mask); err != nil {
		return 0, err
	}
	vm.Retint(s.pt, s.tlb, r.Base, r.Size, id)
	return id, nil
}

// RemapTint changes the columns a tint maps to — the paper's cheap dynamic
// repartitioning operation.
func (s *System) RemapTint(id tint.Tint, mask replacement.Mask) error {
	return s.tints.SetMask(id, mask)
}

// Preload touches every line of region r so it is resident, charging the
// fills to the machine's cycle count. Paper §2.3: software performs a load
// on all cache-lines when dedicating a column region as scratchpad.
func (s *System) Preload(r memory.Region) int64 {
	var total int64
	for _, ln := range s.g.LinesCovering(r.Base, r.Size) {
		total += s.Access(memtrace.Access{Addr: ln * uint64(s.g.LineBytes), Op: memtrace.Read})
	}
	return total
}

// FlushCache writes back and invalidates the entire cache.
func (s *System) FlushCache() { s.cache.FlushAll() }

// InstallLine fills addr's line into the cache under mask without advancing
// simulated time — the fill path of a prefetcher whose memory traffic
// overlaps execution. Demand-access statistics are not affected; fills,
// evictions and writebacks are counted.
func (s *System) InstallLine(addr memory.Addr, mask replacement.Mask) cache.Result {
	return s.cache.Fill(addr, mask)
}
