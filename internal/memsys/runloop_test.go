package memsys

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"colcache/internal/cache"
	"colcache/internal/memory"
	"colcache/internal/memtrace"
	"colcache/internal/replacement"
	"colcache/internal/tint"
	"colcache/internal/vm"
)

// remappingObserver records every cached access and, every k-th one,
// flips a tint between two column masks from inside the callback.
type remappingObserver struct {
	recordingObserver
	sys *System
	id  tint.Tint
	k   int
}

func (o *remappingObserver) ObserveAccess(id tint.Tint, addr memory.Addr, miss bool) {
	o.recordingObserver.ObserveAccess(id, addr, miss)
	n := len(o.ids)
	if n%o.k != 0 {
		return
	}
	mask := replacement.Range(0, 2)
	if n/o.k%2 == 1 {
		mask = replacement.Range(2, 4)
	}
	if err := o.sys.RemapTint(o.id, mask); err != nil {
		panic(err)
	}
}

// loopMachine builds the machine TestRunLoopMatchesStepping drives: a
// scratchpad region at 0x8000, an uncached page at 0x9000, a mapped
// region [0, 0x2000) whose tint the observer remaps every 13 accesses,
// per-tint stats on, and optionally an L2 and a write-through L1.
func loopMachine(t *testing.T, l2, writeThrough bool) (*System, *remappingObserver) {
	t.Helper()
	cfg := Config{
		Geometry:        memory.MustGeometry(32, 256),
		Cache:           cache.Config{LineBytes: 32, NumSets: 16, NumWays: 4},
		Timing:          DefaultTiming,
		ScratchpadBytes: 512,
	}
	cfg.Timing.TLBMiss = 7
	cfg.Timing.WriteThroughStore = 3
	if writeThrough {
		cfg.Cache.Write = cache.WriteThroughNoAllocate
	}
	s := MustNew(cfg)
	if l2 {
		if err := s.EnableL2(cache.Config{LineBytes: 32, NumSets: 32, NumWays: 2}, 6, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Scratchpad().Place(memory.Region{Name: "spm", Base: 0x8000, Size: 256}); err != nil {
		t.Fatal(err)
	}
	s.PageTable().SetUncachedRange(0x9000, 256, true)
	id, err := s.MapRegion(memory.Region{Name: "hot", Base: 0, Size: 0x2000}, replacement.Range(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	s.EnablePerTintStats()
	obs := &remappingObserver{sys: s, id: id, k: 13}
	s.SetAccessObserver(obs)
	return s, obs
}

// loopTrace is a seeded mix of mapped, unmapped, scratchpad and uncached
// accesses with reads, writes and think time.
func loopTrace(seed int64, n int) memtrace.Trace {
	r := rand.New(rand.NewSource(seed))
	t := make(memtrace.Trace, n)
	for i := range t {
		var addr memory.Addr
		switch p := r.Intn(20); {
		case p == 0:
			addr = 0x8000 + uint64(r.Intn(256))
		case p == 1:
			addr = 0x9000 + uint64(r.Intn(256))
		case p < 12:
			addr = uint64(r.Intn(0x2000))
		default:
			addr = 0x10000 + uint64(r.Intn(0x1000))
		}
		op := memtrace.Read
		if r.Intn(4) == 0 {
			op = memtrace.Write
		}
		t[i] = memtrace.Access{Addr: addr, Op: op, Think: uint32(r.Intn(4))}
	}
	return t
}

// The batch loop, cut into budgeted calls that wrap around the trace the
// way the scheduler's quanta do, must leave the machine exactly as
// stepping one access at a time does: every counter, the energy, the
// per-tint stats, the observer's event sequence (with its remaps) and the
// final L1 and L2 contents.
func TestRunLoopMatchesStepping(t *testing.T) {
	tr := loopTrace(5, 900)
	target := 2*tr.Instructions() + 11 // wraps twice, ends mid-trace
	for _, l2 := range []bool{false, true} {
		for _, wt := range []bool{false, true} {
			for _, override := range []replacement.Mask{0, replacement.Of(1, 3)} {
				for _, budget := range []int64{1, 2, 7, 4096, math.MaxInt64} {
					name := fmt.Sprintf("l2=%v/wt=%v/override=%b/budget=%d", l2, wt, override, budget)
					t.Run(name, func(t *testing.T) {
						loop, loopObs := loopMachine(t, l2, wt)
						step, stepObs := loopMachine(t, l2, wt)

						var loopCycles, loopInstrs, loopAccesses int64
						pos := 0
						for loopInstrs < target {
							b := min(budget, target-loopInstrs)
							var ran int64
							for ran < b {
								n, instrs, cycles := loop.RunBudget(tr[pos:], b-ran, override)
								if pos += n; pos == len(tr) {
									pos = 0
								}
								ran += instrs
								loopCycles += cycles
								loopAccesses += int64(n)
							}
							loopInstrs += ran
						}

						var stepCycles, stepInstrs, stepAccesses int64
						pos = 0
						for stepInstrs < target {
							a := tr[pos]
							if pos++; pos == len(tr) {
								pos = 0
							}
							stepCycles += step.AccessMasked(a, override)
							stepInstrs += int64(a.Think) + 1
							stepAccesses++
						}

						if loopCycles != stepCycles || loopInstrs != stepInstrs || loopAccesses != stepAccesses {
							t.Fatalf("loop returned cycles=%d instrs=%d accesses=%d, stepping %d/%d/%d",
								loopCycles, loopInstrs, loopAccesses, stepCycles, stepInstrs, stepAccesses)
						}
						if got, want := loop.Stats(), step.Stats(); got != want {
							t.Fatalf("stats differ:\n loop %v\n step %v", got, want)
						}
						if got := loop.Stats(); got.ScratchpadAccesses == 0 || got.UncachedAccesses == 0 || got.Cache.Misses == 0 {
							t.Fatalf("trace missed a path: %v", got)
						}
						if got, want := loop.EnergyPJ(), step.EnergyPJ(); got != want {
							t.Errorf("energy %d, stepping %d", got, want)
						}
						if got, want := loop.CumulativeTintStats(nil), step.CumulativeTintStats(nil); !reflect.DeepEqual(got, want) {
							t.Errorf("per-tint stats %v, stepping %v", got, want)
						}
						if !reflect.DeepEqual(loopObs.recordingObserver, stepObs.recordingObserver) {
							t.Errorf("observer saw %d events, stepping %d, or in another order",
								len(loopObs.ids), len(stepObs.ids))
						}
						if !reflect.DeepEqual(loop.Cache().SnapshotSets(), step.Cache().SnapshotSets()) {
							t.Error("L1 contents differ")
						}
						if l2 && !reflect.DeepEqual(loop.L2Cache().SnapshotSets(), step.L2Cache().SnapshotSets()) {
							t.Error("L2 contents differ")
						}
					})
				}
			}
		}
	}
}

func TestResetStatsClearsL2(t *testing.T) {
	s := MustNew(smallConfig())
	if err := s.EnableL2(cache.Config{LineBytes: 32, NumSets: 32, NumWays: 2}, 6, false); err != nil {
		t.Fatal(err)
	}
	// 4096 distinct lines: every access misses the L1 and the L2.
	for i := uint64(0); i < 4096; i++ {
		s.Access(memtrace.Access{Addr: i * 32, Op: memtrace.Read})
	}
	if st := s.Stats(); st.L2.Misses != 4096 {
		t.Fatalf("warm-up left L2 misses=%d, want 4096", st.L2.Misses)
	}
	s.ResetStats()
	st := s.Stats()
	if st.L2 != (cache.Stats{}) || st.Cache != (cache.Stats{}) || st.TLB != (vm.TLBStats{}) {
		t.Errorf("ResetStats left counters: %v", st)
	}
	if !st.HasL2 {
		t.Error("ResetStats detached the L2")
	}
}
