package conform

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"

	"colcache/internal/cache"
	"colcache/internal/memory"
	"colcache/internal/memsys"
	"colcache/internal/memtrace"
	"colcache/internal/multicore"
	"colcache/internal/replacement"
)

// Multicore run-loop conformance: Step is the reference definition of the
// stepper's arbitration, and RunContext — the batched loop every benchmark,
// colsim and colserved run — claims to execute exactly that schedule for
// any checkpoint and inspector stride. Each MCCase draws a machine — core
// count, cache geometries, policies, L2 partitioning, a deterministic
// mid-run remap schedule, contended and private traffic — and the two
// strides from a seed. The reference runs Step with coherence invariants
// verified after every access; the other side runs RunContext with checks
// off. Everything observable is compared: every counter of every core, bus
// and L2 statistics, the writeback ledger, the machine's counters at every
// inspection point, the inspection and checkpoint positions, the complete
// L1 and L2 contents, and the final L2 column masks.

// MCCase is one seeded Step-vs-RunContext equivalence case.
type MCCase struct {
	Name         string
	Seed         int64
	Cfg          multicore.Config
	CheckEvery   int                // RunContext checkpoint stride
	InspectEvery int64              // inspector stride
	Partition    []replacement.Mask // initial per-core L2 masks (nil: unpartitioned)
	Remap        []multicore.RemapEvent
}

// mcSynthTrace builds a deterministic locality-biased read/write stream over
// [lo, hi) — the same shape the multicore invariant sweep uses.
func mcSynthTrace(rng *rand.Rand, n int, lo, hi uint64) memtrace.Trace {
	tr := make(memtrace.Trace, 0, n)
	addr := lo
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			addr = lo + uint64(rng.Int63n(int64(hi-lo)))
		case 1:
			addr += 8
			if addr >= hi {
				addr = lo
			}
		default:
			addr = lo + (addr-lo+uint64(rng.Intn(64)))%(hi-lo)
		}
		op := memtrace.Read
		if rng.Intn(3) == 0 {
			op = memtrace.Write
		}
		tr = append(tr, memtrace.Access{Addr: addr, Op: op, Think: uint32(rng.Intn(3))})
	}
	return tr
}

// mcStrides is the checkpoint and inspector stride axis: 1 ends a batch at
// every access; the odd strides mostly leave a remainder, so the run ends
// off the grid; 4096 exceeds every case's length, so only the end of the
// run is an event.
var mcStrides = []int64{1, 3, 7, 64, 512, 4096}

// NewMCCase derives a multicore equivalence case from a seed.
func NewMCCase(seed int64) MCCase {
	rng := rand.New(rand.NewSource(seed ^ 0x6d63))
	cores := 2 + rng.Intn(3)
	lineBytes := 16 << rng.Intn(2)
	l1Sets := 4 << rng.Intn(2)
	l1Ways := 1 << rng.Intn(3)
	l2Sets := l1Sets * 2
	l2Ways := 2 << rng.Intn(2)
	policies := []replacement.Kind{replacement.LRU, replacement.TreePLRU, replacement.FIFO, replacement.Random}

	// Contended shared window interleaved with per-core private windows, so
	// every bus transaction class appears.
	sharedHi := uint64(512 + rng.Intn(1024))
	var traces []memtrace.Trace
	for c := 0; c < cores; c++ {
		n := 128 + rng.Intn(128)
		privLo := 0x10000 * uint64(c+1)
		shared := mcSynthTrace(rng, n, 0, sharedHi)
		private := mcSynthTrace(rng, n, privLo, privLo+0x800)
		mixed := make(memtrace.Trace, 0, 2*n)
		for i := 0; i < n; i++ {
			mixed = append(mixed, shared[i], private[i])
		}
		traces = append(traces, mixed)
	}

	mc := MCCase{
		Name: fmt.Sprintf("mc-%d", seed),
		Seed: seed,
		Cfg: multicore.Config{
			Geometry: memory.MustGeometry(lineBytes, 1024),
			L1: cache.Config{
				LineBytes: lineBytes, NumSets: l1Sets, NumWays: l1Ways,
				Policy: policies[rng.Intn(len(policies))],
			},
			L2: cache.Config{
				LineBytes: lineBytes, NumSets: l2Sets, NumWays: l2Ways,
				Policy: policies[rng.Intn(len(policies))],
			},
			Timing:      memsys.DefaultTiming,
			L2HitCycles: 1 + rng.Intn(6),
			Traces:      traces,
		},
		CheckEvery:   int(mcStrides[rng.Intn(len(mcStrides))]),
		InspectEvery: mcStrides[rng.Intn(len(mcStrides))],
	}

	// Half the cases partition the shared L2 per core; a third of those also
	// install a deterministic mid-run remap schedule (the paper's cheap
	// repartition, fired at exact global L2-access sequence points).
	if rng.Intn(2) == 0 && l2Ways >= cores {
		per := l2Ways / cores
		for c := 0; c < cores; c++ {
			hi := (c + 1) * per
			if c == cores-1 {
				hi = l2Ways
			}
			mc.Partition = append(mc.Partition, replacement.Range(c*per, hi))
		}
		if rng.Intn(3) == 0 {
			at := int64(20 + rng.Intn(200))
			for c := 0; c < cores; c++ {
				var rotated replacement.Mask
				for _, w := range mc.Partition[c].Ways(l2Ways) {
					rotated |= replacement.Of((w + 1) % l2Ways)
				}
				mc.Remap = append(mc.Remap, multicore.RemapEvent{
					AfterL2Accesses: at, Core: c, Mask: rotated,
				})
			}
		}
	}
	return mc
}

func mcBuild(c MCCase, checks bool) (*multicore.Machine, error) {
	cfg := c.Cfg
	cfg.Checks = checks
	m, err := multicore.New(cfg)
	if err != nil {
		return nil, err
	}
	for i, mask := range c.Partition {
		if err := m.SetL2Mask(i, mask); err != nil {
			return nil, err
		}
	}
	if c.Remap != nil {
		if err := m.SetRemapSchedule(c.Remap); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func mcDumpLines(ch *cache.Cache) []cache.LineState {
	cfg := ch.Config()
	out := make([]cache.LineState, 0, cfg.NumSets*cfg.NumWays)
	for s := 0; s < cfg.NumSets; s++ {
		for w := 0; w < cfg.NumWays; w++ {
			out = append(out, ch.LineAt(s, w))
		}
	}
	return out
}

// RunMCCase runs one case through Step and RunContext and returns the
// first observable divergence, or nil if the runs are identical.
func RunMCCase(c MCCase) *Divergence {
	fail := func(format string, args ...any) *Divergence {
		return &Divergence{Case: c.Name, Step: -1, Detail: fmt.Sprintf(format, args...)}
	}
	ref, err := mcBuild(c, true)
	if err != nil {
		return fail("building reference machine: %v", err)
	}
	run, err := mcBuild(c, false)
	if err != nil {
		return fail("building RunContext machine: %v", err)
	}
	var total int64
	for _, tr := range c.Cfg.Traces {
		total += int64(len(tr))
	}

	// The reference: Step one access at a time, keeping the counters at
	// every point the inspector must fire — each stride multiple, and the
	// end of the run when it stops off the grid.
	var want []int64
	for p := c.InspectEvery; p <= total; p += c.InspectEvery {
		want = append(want, p)
	}
	if total%c.InspectEvery != 0 {
		want = append(want, total)
	}
	var wantStats []multicore.Stats
	for done := int64(0); ; {
		more, err := ref.Step()
		if err != nil {
			return fail("Step at access %d: coherence violation: %v", done, err)
		}
		if !more {
			break
		}
		done++
		if len(wantStats) < len(want) && done == want[len(wantStats)] {
			wantStats = append(wantStats, ref.Stats())
		}
	}

	var fired []int64
	var firedStats []multicore.Stats
	run.SetInspector(c.InspectEvery, func(done int64) {
		fired = append(fired, done)
		firedStats = append(firedStats, run.Stats())
	})
	var badCheckpoint int64 = -1
	var lastCheckpoint int64
	err = run.RunContext(context.Background(), c.CheckEvery, func(done int64) {
		if done != total && done%int64(c.CheckEvery) != 0 && badCheckpoint < 0 {
			badCheckpoint = done
		}
		lastCheckpoint = done
	})
	if err != nil {
		return fail("RunContext: %v", err)
	}
	strides := fmt.Sprintf("check=%d inspect=%d", c.CheckEvery, c.InspectEvery)
	if badCheckpoint >= 0 || lastCheckpoint != total {
		return fail("%s: checkpoint at %d off the stride, last at %d of %d", strides, badCheckpoint, lastCheckpoint, total)
	}
	if !reflect.DeepEqual(fired, want) {
		return fail("%s: inspector fired at %v, want %v", strides, fired, want)
	}
	for i := range want {
		if !reflect.DeepEqual(firedStats[i], wantStats[i]) {
			return fail("%s: counters at inspection %d (access %d) diverge:\nStep:       %+v\nRunContext: %+v",
				strides, i, want[i], wantStats[i], firedStats[i])
		}
	}

	if err := ref.CheckInvariants(); err != nil {
		return fail("reference final invariants: %v", err)
	}
	if err := run.CheckInvariants(); err != nil {
		return fail("%s: RunContext final invariants: %v", strides, err)
	}
	ss, sr := ref.Stats(), run.Stats()
	if !reflect.DeepEqual(ss, sr) {
		for i := range ss.Cores {
			if !reflect.DeepEqual(ss.Cores[i], sr.Cores[i]) {
				return fail("%s: core %d stats diverge:\nStep:       %+v\nRunContext: %+v",
					strides, i, ss.Cores[i], sr.Cores[i])
			}
		}
		return fail("%s: machine stats diverge:\nStep:       bus=%+v l2=%+v ledger=%d/%d\nRunContext: bus=%+v l2=%+v ledger=%d/%d",
			strides, ss.Bus, ss.L2, ss.DirtyCreated, ss.DirtyRetired,
			sr.Bus, sr.L2, sr.DirtyCreated, sr.DirtyRetired)
	}
	for i := 0; i < ref.NumCores(); i++ {
		if !reflect.DeepEqual(mcDumpLines(ref.L1(i)), mcDumpLines(run.L1(i))) {
			return fail("%s: core %d L1 contents diverge", strides, i)
		}
		if ms, mr := ref.L2Mask(i), run.L2Mask(i); ms != mr {
			return fail("%s: core %d L2 mask diverges: %s vs %s", strides, i, ms, mr)
		}
	}
	if !reflect.DeepEqual(mcDumpLines(ref.L2()), mcDumpLines(run.L2())) {
		return fail("%s: L2 contents diverge", strides)
	}

	// The sweep must exercise real machines: a case with no bus or L2
	// traffic wouldn't witness the equivalence it claims to.
	if ss.Bus.Reads == 0 || ss.L2.Accesses == 0 {
		return fail("degenerate case: no bus/L2 traffic")
	}
	return nil
}
