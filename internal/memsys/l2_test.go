package memsys

import (
	"strings"
	"testing"

	"colcache/internal/cache"
	"colcache/internal/memory"
	"colcache/internal/memtrace"
)

func l2Config() cache.Config {
	return cache.Config{LineBytes: 32, NumSets: 256, NumWays: 8} // 64KB
}

func sysWithL2(t *testing.T, masked bool) *System {
	t.Helper()
	cfg := smallConfig()
	cfg.Timing.MissPenalty = 100 // DRAM
	s := MustNew(cfg)
	if err := s.EnableL2(l2Config(), 10, masked); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEnableL2Validation(t *testing.T) {
	s := MustNew(smallConfig())
	bad := l2Config()
	bad.LineBytes = 64
	if err := s.EnableL2(bad, 10, false); err == nil {
		t.Error("mismatched L2 line size accepted")
	} else if want := "memsys: L2 line size 64 != system line size 32"; err.Error() != want {
		t.Errorf("error %q, want %q", err, want)
	}
	bad = l2Config()
	bad.NumWays = 0
	if err := s.EnableL2(bad, 10, false); err == nil {
		t.Error("invalid L2 config accepted")
	}
	if s.HasL2() {
		t.Error("failed EnableL2 left an L2 attached")
	}
}

func TestL2TimingTiers(t *testing.T) {
	s := sysWithL2(t, false)
	// Cold: L1 miss (1) + L2 probe miss (10) + DRAM (100) = 111.
	if c := s.Access(memtrace.Access{Addr: 0, Op: memtrace.Read}); c != 111 {
		t.Errorf("cold access cost %d want 111", c)
	}
	// L1 hit: 1 cycle.
	if c := s.Access(memtrace.Access{Addr: 0, Op: memtrace.Read}); c != 1 {
		t.Errorf("L1 hit cost %d want 1", c)
	}
	// Evict the line from L1 (tiny 2KB L1, set stride 512B) but not from
	// the 64KB L2, then re-access: L1 miss + L2 hit = 11.
	setStride := uint64(32 * 16)
	for i := uint64(1); i <= 4; i++ {
		s.Access(memtrace.Access{Addr: i * setStride, Op: memtrace.Read})
	}
	if _, hit := s.Cache().Probe(0); hit {
		t.Fatal("line still in L1; conflict setup wrong")
	}
	if c := s.Access(memtrace.Access{Addr: 0, Op: memtrace.Read}); c != 11 {
		t.Errorf("L2 hit cost %d want 11", c)
	}
}

func TestL2ReceivesL1Writebacks(t *testing.T) {
	s := sysWithL2(t, false)
	setStride := uint64(32 * 16)
	s.Access(memtrace.Access{Addr: 0, Op: memtrace.Write}) // dirty in L1 (and filled in L2)
	// Push the dirty line out of L1.
	for i := uint64(1); i <= 4; i++ {
		s.Access(memtrace.Access{Addr: i * setStride, Op: memtrace.Read})
	}
	// The L2 must now hold line 0 dirty: flushing the L2 writes it back.
	before := s.L2Stats().Writebacks
	s.l2.cache.FlushAll()
	if got := s.L2Stats().Writebacks - before; got != 1 {
		t.Errorf("L2 flush wrote back %d lines want 1 (the L1 victim)", got)
	}
}

func TestL2StatsAndNoL2Zero(t *testing.T) {
	s := MustNew(smallConfig())
	if s.HasL2() {
		t.Error("fresh system has L2")
	}
	if st := s.L2Stats(); st.Accesses != 0 {
		t.Errorf("no-L2 stats: %+v", st)
	}
	s2 := sysWithL2(t, false)
	s2.Access(memtrace.Access{Addr: 0, Op: memtrace.Read})
	if st := s2.L2Stats(); st.Accesses != 1 || st.Misses != 1 {
		t.Errorf("L2 stats: %+v", st)
	}
	// L1 hits never reach the L2.
	s2.Access(memtrace.Access{Addr: 0, Op: memtrace.Read})
	if st := s2.L2Stats(); st.Accesses != 1 {
		t.Errorf("L1 hit reached the L2: %+v", st)
	}
}

func TestL2MaskedMode(t *testing.T) {
	// With masked L2, a region mapped to column 0 is confined to way 0 at
	// both levels.
	cfg := smallConfig()
	s := MustNew(cfg)
	l2cfg := cache.Config{LineBytes: 32, NumSets: 16, NumWays: 4}
	if err := s.EnableL2(l2cfg, 10, true); err != nil {
		t.Fatal(err)
	}
	r := memory.Region{Name: "r", Base: 0, Size: 256}
	if _, err := s.MapRegion(r, 1 /* column 0 */); err != nil {
		t.Fatal(err)
	}
	// Fill enough conflicting lines through the mapped region's pages: all
	// must land in way 0 of the L2 too.
	for i := uint64(0); i < 4; i++ {
		s.Access(memtrace.Access{Addr: i * 32, Op: memtrace.Read})
	}
	if n := s.l2.cache.ResidentInColumns(1); n != 4 {
		t.Errorf("masked L2 holds %d lines in column 0, want 4", n)
	}
	if n := s.l2.cache.ResidentLines(); n != 4 {
		t.Errorf("masked L2 leaked lines to other columns: %d total", n)
	}
}

func TestL2ReducesTraceCycles(t *testing.T) {
	// A working set that overflows L1 but fits L2 must run much faster with
	// the L2 attached.
	tr := make(memtrace.Trace, 0, 4096)
	for pass := 0; pass < 4; pass++ {
		for off := uint64(0); off < 16*1024; off += 32 { // 16KB loop
			tr = append(tr, memtrace.Access{Addr: off, Op: memtrace.Read})
		}
	}
	cfg := smallConfig()
	cfg.Timing.MissPenalty = 100
	noL2 := MustNew(cfg)
	cyclesNo := noL2.Run(tr)

	withL2 := MustNew(cfg)
	if err := withL2.EnableL2(l2Config(), 10, false); err != nil {
		t.Fatal(err)
	}
	cyclesWith := withL2.Run(tr)
	if cyclesWith*2 > cyclesNo {
		t.Errorf("L2 did not help: %d vs %d cycles", cyclesWith, cyclesNo)
	}
}

func TestEvictedAddrReconstruction(t *testing.T) {
	s := sysWithL2(t, false)
	setStride := uint64(32 * 16)
	addr := uint64(7 * 32) // set 7
	s.Access(memtrace.Access{Addr: addr, Op: memtrace.Write})
	// Evict it with 4 conflicting fills; the L2 should then hit on a
	// re-read of the original address (the writeback installed it).
	for i := uint64(1); i <= 4; i++ {
		s.Access(memtrace.Access{Addr: addr + i*setStride, Op: memtrace.Read})
	}
	before := s.L2Stats().Hits
	s.Access(memtrace.Access{Addr: addr, Op: memtrace.Read})
	if s.L2Stats().Hits != before+1 {
		t.Error("writeback address reconstruction failed: L2 missed the victim")
	}
}

// Stats must surface the L2 counters when an L2 is attached — both in the
// struct and in the rendered String — and stay silent about them otherwise.
func TestStatsReportL2(t *testing.T) {
	plain := MustNew(smallConfig())
	plain.Access(memtrace.Access{Addr: 0, Op: memtrace.Read})
	st := plain.Stats()
	if st.HasL2 || st.L2.Accesses != 0 {
		t.Errorf("no-L2 machine reports L2 stats: %+v", st.L2)
	}
	if strings.Contains(st.String(), "l2{") {
		t.Errorf("no-L2 String mentions an L2: %s", st)
	}

	s := sysWithL2(t, false)
	s.Access(memtrace.Access{Addr: 0, Op: memtrace.Read})
	s.Access(memtrace.Access{Addr: 0, Op: memtrace.Read})
	st = s.Stats()
	if !st.HasL2 {
		t.Fatal("L2 machine reports HasL2=false")
	}
	if st.L2 != s.L2Stats() {
		t.Errorf("Stats.L2 %+v != L2Stats() %+v", st.L2, s.L2Stats())
	}
	if st.L2.Accesses != 1 || st.L2.Misses != 1 {
		t.Errorf("L2 counters: %+v", st.L2)
	}
	rendered := st.String()
	if !strings.Contains(rendered, "l2{acc=1 hit=0 miss=1") {
		t.Errorf("String omits the L2 counters: %s", rendered)
	}
}
