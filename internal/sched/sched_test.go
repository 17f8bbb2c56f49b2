package sched

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"colcache/internal/cache"
	"colcache/internal/memory"
	"colcache/internal/memsys"
	"colcache/internal/memtrace"
	"colcache/internal/replacement"
	"colcache/internal/tint"
	"colcache/internal/workloads/gzipsim"
)

func newSys() *memsys.System {
	return memsys.MustNew(memsys.Config{
		Geometry: memory.MustGeometry(32, 4096),
		Cache:    cache.Config{LineBytes: 32, NumSets: 64, NumWays: 4},
		Timing:   memsys.DefaultTiming,
	})
}

// loopTrace touches `lines` distinct lines sequentially, with the given
// think time per access.
func loopTrace(base uint64, lines int, think uint32) memtrace.Trace {
	tr := make(memtrace.Trace, lines)
	for i := range tr {
		tr[i] = memtrace.Access{Addr: base + uint64(i*32), Op: memtrace.Read, Think: think}
	}
	return tr
}

func TestSchedulerValidation(t *testing.T) {
	sys := newSys()
	if _, err := NewRoundRobin(sys, 0); err == nil {
		t.Error("quantum 0 accepted")
	}
	rr, err := NewRoundRobin(sys, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := rr.Add(&Job{Name: "empty", TargetInstructions: 10}); err == nil {
		t.Error("empty trace accepted")
	}
	if err := rr.Add(&Job{Name: "zero", Trace: loopTrace(0, 1, 0), TargetInstructions: 0}); err == nil {
		t.Error("zero target accepted")
	}
}

func TestSingleJobRunsToTarget(t *testing.T) {
	sys := newSys()
	rr, _ := NewRoundRobin(sys, 100)
	j := &Job{Name: "a", Trace: loopTrace(0, 10, 1), TargetInstructions: 55}
	rr.Add(j)
	stats := rr.Run()
	if len(stats) != 1 {
		t.Fatalf("stats len=%d", len(stats))
	}
	// Each access is 2 instructions (1 think + 1); target 55 → runs 28
	// accesses = 56 instructions (atomic overshoot).
	if stats[0].Instructions != 56 {
		t.Errorf("instructions=%d want 56", stats[0].Instructions)
	}
	if !j.Done() {
		t.Error("job not done")
	}
	if stats[0].Accesses != 28 {
		t.Errorf("accesses=%d", stats[0].Accesses)
	}
}

func TestCyclicReplay(t *testing.T) {
	sys := newSys()
	rr, _ := NewRoundRobin(sys, 1000)
	// 4-line trace replayed to 100 instructions: addresses repeat, so after
	// 4 cold misses everything hits.
	j := &Job{Name: "a", Trace: loopTrace(0, 4, 0), TargetInstructions: 100}
	rr.Add(j)
	stats := rr.Run()
	if stats[0].Misses != 4 {
		t.Errorf("misses=%d want 4 (cold only)", stats[0].Misses)
	}
}

func TestRoundRobinInterleavesFairly(t *testing.T) {
	sys := newSys()
	rr, _ := NewRoundRobin(sys, 10)
	a := &Job{Name: "a", Trace: loopTrace(0, 8, 0), TargetInstructions: 100}
	b := &Job{Name: "b", Trace: loopTrace(1<<20, 8, 0), TargetInstructions: 100}
	rr.Add(a)
	rr.Add(b)
	stats := rr.Run()
	if stats[0].Quanta != stats[1].Quanta {
		t.Errorf("quanta %d vs %d", stats[0].Quanta, stats[1].Quanta)
	}
	if stats[0].Instructions < 100 || stats[1].Instructions < 100 {
		t.Errorf("targets not reached: %d %d", stats[0].Instructions, stats[1].Instructions)
	}
}

func TestUnequalTargets(t *testing.T) {
	sys := newSys()
	rr, _ := NewRoundRobin(sys, 10)
	a := &Job{Name: "a", Trace: loopTrace(0, 8, 0), TargetInstructions: 20}
	b := &Job{Name: "b", Trace: loopTrace(1<<20, 8, 0), TargetInstructions: 200}
	rr.Add(a)
	rr.Add(b)
	stats := rr.Run()
	if stats[0].Instructions < 20 || stats[0].Instructions > 30 {
		t.Errorf("a ran %d instructions", stats[0].Instructions)
	}
	if stats[1].Instructions < 200 {
		t.Errorf("b ran %d instructions", stats[1].Instructions)
	}
}

// TestQuantumSensitivity reproduces the core Figure 5 mechanism in
// miniature: with a shared cache and a competing thrasher, a small quantum
// hurts job A's CPI; with column mapping it does not.
func TestQuantumSensitivity(t *testing.T) {
	run := func(quantum int64, mapped bool) float64 {
		sys := newSys()
		if mapped {
			// Job A's working set → columns 0-1; thrasher → columns 2-3.
			aRegion := memory.Region{Name: "A", Base: 0, Size: 4096}
			bRegion := memory.Region{Name: "B", Base: 1 << 20, Size: 1 << 20}
			if _, err := sys.MapRegion(aRegion, replacement.Of(0, 1)); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.MapRegion(bRegion, replacement.Of(2, 3)); err != nil {
				t.Fatal(err)
			}
		}
		rr, _ := NewRoundRobin(sys, quantum)
		// Job A: loops over 4KB (fits half the 8KB cache).
		a := &Job{Name: "A", Trace: loopTrace(0, 128, 2), TargetInstructions: 60000}
		// Thrasher: streams over 256KB.
		b := &Job{Name: "B", Trace: loopTrace(1<<20, 8192, 0), TargetInstructions: 60000}
		rr.Add(a)
		rr.Add(b)
		return rr.Run()[0].CPI()
	}

	smallShared := run(200, false)
	bigShared := run(50000, false)
	smallMapped := run(200, true)
	bigMapped := run(50000, true)

	if smallShared <= bigShared {
		t.Errorf("shared cache: small-quantum CPI %.3f not worse than big-quantum %.3f",
			smallShared, bigShared)
	}
	if smallMapped >= smallShared {
		t.Errorf("mapping did not help at small quantum: %.3f vs %.3f",
			smallMapped, smallShared)
	}
	// Mapped CPI must be nearly quantum-insensitive.
	varMapped := smallMapped - bigMapped
	if varMapped < 0 {
		varMapped = -varMapped
	}
	if varMapped > 0.15 {
		t.Errorf("mapped CPI varies %.3f across quanta", varMapped)
	}
}

func TestContextSwitchCost(t *testing.T) {
	cfg := memsys.Config{
		Geometry: memory.MustGeometry(32, 4096),
		Cache:    cache.Config{LineBytes: 32, NumSets: 64, NumWays: 4},
		Timing:   memsys.DefaultTiming,
	}
	cfg.Timing.ContextSwitch = 50
	sys := memsys.MustNew(cfg)
	rr, _ := NewRoundRobin(sys, 10)
	j := &Job{Name: "a", Trace: loopTrace(0, 4, 0), TargetInstructions: 20}
	rr.Add(j)
	stats := rr.Run()
	// 2 quanta × 50 cycles of switch overhead charged to the job.
	if stats[0].Quanta != 2 {
		t.Fatalf("quanta=%d", stats[0].Quanta)
	}
	wantMin := int64(2 * 50)
	if stats[0].Cycles < wantMin {
		t.Errorf("cycles=%d, switch cost missing", stats[0].Cycles)
	}
}

func TestFlushTLBOnSwitch(t *testing.T) {
	sys := newSys()
	rr, _ := NewRoundRobin(sys, 5)
	rr.FlushTLBOnSwitch = true
	a := &Job{Name: "a", Trace: loopTrace(0, 4, 0), TargetInstructions: 40}
	rr.Add(a)
	rr.Run()
	if sys.TLB().Stats().Flushes == 0 {
		t.Error("TLB never flushed")
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Name: "x", Instructions: 10, Cycles: 25, Accesses: 5, Misses: 1}
	if s.String() == "" || s.CPI() != 2.5 || s.MissRate() != 0.2 {
		t.Errorf("stats: %v CPI=%v MR=%v", s, s.CPI(), s.MissRate())
	}
	var zero Stats
	if zero.CPI() != 0 || zero.MissRate() != 0 {
		t.Error("zero stats rates")
	}
}

// TestProcessMaskVsRegionTints contrasts the Sun patent scheme
// (per-process masks) with column caching's per-region tints (paper §5.1).
// Job A mixes a hot table with its own streaming data. A process mask can
// keep *other* jobs out of A's columns, but inside them the stream still
// evicts the table; per-region tints separate the two.
func TestProcessMaskVsRegionTints(t *testing.T) {
	table := memory.Region{Name: "table", Base: 0, Size: 2048} // fits 1 column (64 sets × 32B)
	stream := memory.Region{Name: "stream", Base: 1 << 20, Size: 1 << 22}

	buildJobA := func() memtrace.Trace {
		var rec memtrace.Recorder
		pos := uint64(0)
		for round := 0; round < 32; round++ {
			for j := 0; j < 256; j++ {
				rec.Load(stream.Base + pos)
				pos += 32
			}
			for off := uint64(0); off < table.Size; off += 32 {
				rec.Load(table.Base + off)
			}
		}
		return rec.Trace()
	}
	thrash := loopTrace(1<<30, 8192, 0)

	countTableMisses := func(regionTints bool) int64 {
		sys := newSys()
		jobA := &Job{Name: "A", Trace: buildJobA(), TargetInstructions: 40000}
		if regionTints {
			// Column caching: A's table gets column 0, A's stream column 1.
			if _, err := sys.MapRegion(table, replacement.Of(0)); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.MapRegion(stream, replacement.Of(1)); err != nil {
				t.Fatal(err)
			}
		} else {
			// Sun scheme: all of job A confined to columns 0-1, no finer.
			jobA.Mask = replacement.Of(0, 1)
		}
		jobB := &Job{Name: "B", Trace: thrash, TargetInstructions: 40000, Mask: replacement.Of(2, 3)}
		rr, _ := NewRoundRobin(sys, 512)
		rr.Add(jobA)
		rr.Add(jobB)

		// Run, counting job A's table misses: a table hit costs 1 cycle.
		// Re-run manually for the counting pass on a fresh system would
		// duplicate the scheduler; instead use A's total misses minus the
		// stream's compulsory ones (every stream line is fresh).
		stats := rr.Run()
		streamAccesses := int64(0)
		for _, a := range jobA.Trace {
			if stream.Contains(a.Addr) {
				streamAccesses++
			}
		}
		// jobA.executed covers ~40000 instructions of its (cyclic) trace;
		// scale stream compulsory misses by the executed fraction.
		frac := float64(stats[0].Accesses) / float64(len(jobA.Trace))
		streamCold := int64(frac * float64(streamAccesses))
		return stats[0].Misses - streamCold
	}

	sunMisses := countTableMisses(false)
	tintMisses := countTableMisses(true)
	if tintMisses >= sunMisses {
		t.Errorf("region tints (%d table misses) not better than process mask (%d)",
			tintMisses, sunMisses)
	}
	// With region tints the table must essentially never miss after warmup.
	if tintMisses > 70 { // 64 cold + slack
		t.Errorf("region tints left %d table misses", tintMisses)
	}
}

func TestJitteredQuantumDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) []int64 {
		sys := newSys()
		rr, _ := NewRoundRobin(sys, 100)
		rr.JitterFrac = 0.5
		rr.JitterSeed = seed
		a := &Job{Name: "a", Trace: loopTrace(0, 16, 0), TargetInstructions: 2000}
		b := &Job{Name: "b", Trace: loopTrace(1<<20, 16, 0), TargetInstructions: 2000}
		rr.Add(a)
		rr.Add(b)
		stats := rr.Run()
		return []int64{stats[0].Quanta, stats[0].Cycles, stats[1].Quanta}
	}
	r1 := run(7)
	r2 := run(7)
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("same seed diverged: %v vs %v", r1, r2)
		}
	}
	r3 := run(8)
	same := true
	for i := range r1 {
		if r1[i] != r3[i] {
			same = false
		}
	}
	if same {
		t.Error("different jitter seeds produced identical schedules")
	}
}

func TestJitterZeroFracIsExact(t *testing.T) {
	sys := newSys()
	rr, _ := NewRoundRobin(sys, 10)
	if q := rr.effectiveQuantum(); q != 10 {
		t.Errorf("quantum=%d want 10", q)
	}
	rr.JitterFrac = 0.5
	for i := 0; i < 100; i++ {
		q := rr.effectiveQuantum()
		if q < 5 || q > 15 {
			t.Fatalf("jittered quantum %d outside [5,15]", q)
		}
	}
}

func TestASIDsBeatTLBFlushOnSwitch(t *testing.T) {
	run := func(flush, asids bool) int64 {
		cfg := memsys.Config{
			Geometry: memory.MustGeometry(32, 4096),
			Cache:    cache.Config{LineBytes: 32, NumSets: 64, NumWays: 4},
			Timing:   memsys.DefaultTiming,
		}
		cfg.Timing.TLBMiss = 30
		sys := memsys.MustNew(cfg)
		rr, _ := NewRoundRobin(sys, 64)
		rr.FlushTLBOnSwitch = flush
		rr.UseASIDs = asids
		// Each job loops over a few pages: TLB-resident unless flushed.
		a := &Job{Name: "a", Trace: loopTrace(0, 16, 0), TargetInstructions: 20000}
		b := &Job{Name: "b", Trace: loopTrace(1<<20, 16, 0), TargetInstructions: 20000}
		rr.Add(a)
		rr.Add(b)
		stats := rr.Run()
		return stats[0].Cycles + stats[1].Cycles
	}
	flushCycles := run(true, false)
	asidCycles := run(false, true)
	if asidCycles >= flushCycles {
		t.Errorf("ASIDs (%d cycles) not cheaper than flushing (%d)", asidCycles, flushCycles)
	}
}

// Per-job energy attribution: each scenario's expected picojoules are
// derived by hand from memsys.DefaultEnergy (TLB=50, walk=1000, cache=500,
// memory=10000) and the job's hit/miss/page profile.
func TestPerJobEnergy(t *testing.T) {
	cases := []struct {
		name   string
		trace  memtrace.Trace
		target int64
		wantPJ int64
	}{
		{
			// 4 lines in one page, looped twice: 1 page walk, 4 cold
			// misses, 4 hits.
			name:   "resident loop",
			trace:  loopTrace(0, 4, 0),
			target: 8,
			wantPJ: 8*50 + 1*1000 + 8*500 + 4*10000,
		},
		{
			// 512 lines (16KB) streamed through the 8KB cache: every
			// access misses, 4 page walks.
			name:   "streaming",
			trace:  loopTrace(0, 512, 0),
			target: 512,
			wantPJ: 512*50 + 4*1000 + 512*500 + 512*10000,
		},
		{
			// Think instructions execute no memory accesses: energy must
			// match the 4-access profile, not the instruction count.
			name:   "think time",
			trace:  loopTrace(0, 4, 9),
			target: 40,
			wantPJ: 4*50 + 1*1000 + 4*500 + 4*10000,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := newSys()
			rr, err := NewRoundRobin(sys, 64)
			if err != nil {
				t.Fatal(err)
			}
			if err := rr.Add(&Job{Name: tc.name, Trace: tc.trace, TargetInstructions: tc.target}); err != nil {
				t.Fatal(err)
			}
			st := rr.Run()[0]
			if st.EnergyPJ != tc.wantPJ {
				t.Errorf("EnergyPJ = %d, want %d", st.EnergyPJ, tc.wantPJ)
			}
			if st.EnergyPJ != sys.EnergyPJ() {
				t.Errorf("job energy %d != system energy %d", st.EnergyPJ, sys.EnergyPJ())
			}
			wantEPI := float64(tc.wantPJ) / float64(st.Instructions)
			if got := st.EPI(); got != wantEPI {
				t.Errorf("EPI = %v, want %v", got, wantEPI)
			}
		})
	}
}

// With two jobs sharing the machine, the per-job energies must partition the
// system total exactly, and the thrashing job must pay a higher EPI.
func TestEnergyAttributionAcrossJobs(t *testing.T) {
	sys := newSys()
	rr, _ := NewRoundRobin(sys, 128)
	resident := &Job{Name: "resident", Trace: loopTrace(0, 4, 0), TargetInstructions: 4000}
	thrash := &Job{Name: "thrash", Trace: loopTrace(1<<20, 1024, 0), TargetInstructions: 4000}
	rr.Add(resident)
	rr.Add(thrash)
	stats := rr.Run()
	if sum := stats[0].EnergyPJ + stats[1].EnergyPJ; sum != sys.EnergyPJ() {
		t.Errorf("per-job energies %d don't partition the system total %d", sum, sys.EnergyPJ())
	}
	if stats[0].EPI() >= stats[1].EPI() {
		t.Errorf("resident job EPI %.1f not below thrashing job EPI %.1f", stats[0].EPI(), stats[1].EPI())
	}
	if s := stats[1].String(); !strings.Contains(s, "EPI=") {
		t.Errorf("String omits EPI: %s", s)
	}
}

// referenceRun is RoundRobin.Run with naive per-access attribution: a full
// memsys.Stats snapshot around every access. It drives rr's machine and
// jobs directly, so a twin scheduler's Run must match it to the last bit.
func referenceRun(rr *RoundRobin) []Stats {
	for anyRan := true; anyRan; {
		anyRan = false
		for idx, j := range rr.jobs {
			if j.Done() {
				continue
			}
			anyRan = true
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
			quantum := rr.effectiveQuantum()
			for ran := int64(0); ran < quantum && !j.Done(); {
				a := j.Trace[j.pos]
				j.pos = (j.pos + 1) % len(j.Trace)
				before := rr.Sys.Stats()
				energyBefore := rr.Sys.EnergyPJ()
				var cyc int64
				if j.Mask != 0 {
					cyc = rr.Sys.AccessMasked(a, j.Mask)
				} else {
					cyc = rr.Sys.Access(a)
				}
				instr := int64(a.Think) + 1
				ran += instr
				j.executed += instr
				j.cycles += cyc
				j.accesses++
				j.misses += rr.Sys.Stats().Cache.Misses - before.Cache.Misses
				j.energyPJ += rr.Sys.EnergyPJ() - energyBefore
			}
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

// scatterTrace is a seeded mix of reads and writes with think time over
// `pages` pages starting at base, so the TLB, write-backs and energy all
// vary from access to access.
func scatterTrace(base uint64, pages, n int, seed uint64) memtrace.Trace {
	tr := make(memtrace.Trace, n)
	x := seed | 1
	for i := range tr {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		op := memtrace.Read
		if x%4 == 0 {
			op = memtrace.Write
		}
		tr[i] = memtrace.Access{
			Addr:  base + (x>>8)%uint64(pages*4096)&^31,
			Op:    op,
			Think: uint32(x>>40) % 4,
		}
	}
	return tr
}

// remapObserver flips one tint between two column halves every `every`
// cached accesses, as the adaptive controller does from the same hook.
type remapObserver struct {
	sys   *memsys.System
	id    tint.Tint
	every int
	n     int
	flip  bool
}

func (o *remapObserver) ObserveAccess(tint.Tint, memory.Addr, bool) {
	if o.n++; o.n%o.every != 0 {
		return
	}
	o.flip = !o.flip
	mask := replacement.Range(0, 2)
	if o.flip {
		mask = replacement.Range(2, 4)
	}
	if err := o.sys.RemapTint(o.id, mask); err != nil {
		panic(err)
	}
}

// Charging a quantum by the deltas of the machine's miss and energy
// counters must give exactly the per-job statistics of per-access
// snapshots, under every scheduler option and machine feature that
// touches the counters between accesses.
func TestQuantumDeltasMatchPerAccessAttribution(t *testing.T) {
	variants := []struct {
		name  string
		setup func(sys *memsys.System, rr *RoundRobin, aTint tint.Tint) error
		cs    int // Timing.ContextSwitch
	}{
		{name: "plain"},
		{name: "flush TLB on switch", setup: func(_ *memsys.System, rr *RoundRobin, _ tint.Tint) error {
			rr.FlushTLBOnSwitch = true
			return nil
		}},
		{name: "ASIDs", setup: func(_ *memsys.System, rr *RoundRobin, _ tint.Tint) error {
			rr.UseASIDs = true
			return nil
		}},
		{name: "jitter", setup: func(_ *memsys.System, rr *RoundRobin, _ tint.Tint) error {
			rr.JitterFrac, rr.JitterSeed = 0.6, 7
			return nil
		}},
		{name: "context switch cost", cs: 37},
		{name: "observer remaps", setup: func(sys *memsys.System, _ *RoundRobin, aTint tint.Tint) error {
			sys.SetAccessObserver(&remapObserver{sys: sys, id: aTint, every: 97})
			return nil
		}},
		{name: "L2", setup: func(sys *memsys.System, _ *RoundRobin, _ tint.Tint) error {
			return sys.EnableL2(cache.Config{LineBytes: 32, NumSets: 256, NumWays: 4}, 6, false)
		}},
	}
	build := func(t *testing.T, quantum int64, cs int, setup func(*memsys.System, *RoundRobin, tint.Tint) error) (*memsys.System, *RoundRobin) {
		t.Helper()
		timing := memsys.DefaultTiming
		timing.ContextSwitch = cs
		timing.TLBMiss = 30
		sys := memsys.MustNew(memsys.Config{
			Geometry: memory.MustGeometry(32, 4096),
			Cache:    cache.Config{LineBytes: 32, NumSets: 64, NumWays: 4},
			Timing:   timing,
		})
		aTint, err := sys.MapRegion(memory.Region{Name: "A", Base: 0, Size: 6 * 4096}, replacement.Range(0, 2))
		if err != nil {
			t.Fatal(err)
		}
		rr, err := NewRoundRobin(sys, quantum)
		if err != nil {
			t.Fatal(err)
		}
		jobs := []*Job{
			{Name: "A", Trace: scatterTrace(0, 6, 3000, 1), TargetInstructions: 9000},
			{Name: "B", Trace: loopTrace(1<<20, 700, 1), TargetInstructions: 7000},
			// Process-granularity mask in place of the tint mechanism.
			{Name: "C", Trace: scatterTrace(1<<24, 9, 2000, 2), TargetInstructions: 8000, Mask: replacement.Of(3)},
		}
		for _, j := range jobs {
			if err := rr.Add(j); err != nil {
				t.Fatal(err)
			}
		}
		if setup != nil {
			if err := setup(sys, rr, aTint); err != nil {
				t.Fatal(err)
			}
		}
		return sys, rr
	}
	for _, v := range variants {
		for _, q := range []int64{1, 3, 64, 4096} {
			t.Run(fmt.Sprintf("%s/q=%d", v.name, q), func(t *testing.T) {
				sys, rr := build(t, q, v.cs, v.setup)
				refSys, refRR := build(t, q, v.cs, v.setup)
				got := rr.Run()
				want := referenceRun(refRR)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("per-job stats differ from per-access attribution:\n got %v\nwant %v", got, want)
				}
				if st, ref := sys.Stats(), refSys.Stats(); st != ref {
					t.Fatalf("machines diverged:\n got %v\nwant %v", st, ref)
				}
				var misses, energy int64
				for _, st := range got {
					misses += st.Misses
					energy += st.EnergyPJ
				}
				if m := sys.Cache().Stats().Misses; misses != m {
					t.Errorf("Σ job misses %d != machine misses %d", misses, m)
				}
				if e := sys.EnergyPJ(); energy != e {
					t.Errorf("Σ job energy %d != machine energy %d", energy, e)
				}
			})
		}
	}
}

// BenchmarkRoundRobin times the scheduler on the Figure 5 mix (three gzip
// jobs on a 16KB 4-way machine) at the two ends of the quantum axis. At
// q=1 every access is its own quantum, so per-quantum overhead dominates.
func BenchmarkRoundRobin(b *testing.B) {
	var traces [3]memtrace.Trace
	for i := range traces {
		g := gzipsim.DefaultConfig
		g.Seed += int64(i)
		traces[i] = gzipsim.Job(g, memory.Addr(i)<<32).Trace
	}
	for _, q := range []int64{1, 4096} {
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
			var accesses int64
			for i := 0; i < b.N; i++ {
				sys := memsys.MustNew(memsys.Config{
					Geometry: memory.MustGeometry(32, 4096),
					Cache:    cache.Config{LineBytes: 32, NumSets: 128, NumWays: 4},
					Timing:   memsys.DefaultTiming,
				})
				rr, err := NewRoundRobin(sys, q)
				if err != nil {
					b.Fatal(err)
				}
				for k, tr := range traces {
					if err := rr.Add(&Job{Name: fmt.Sprintf("job%d", k), Trace: tr, TargetInstructions: 1 << 18}); err != nil {
						b.Fatal(err)
					}
				}
				for _, st := range rr.Run() {
					accesses += st.Accesses
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(accesses), "ns/access")
		})
	}
}
