package memsys

import (
	"testing"

	"colcache/internal/memory"
	"colcache/internal/memtrace"
)

func TestEnergyAccounting(t *testing.T) {
	s := MustNew(smallConfig())
	e := DefaultEnergy
	// Cold miss: TLB + cache + memory.
	s.Access(memtrace.Access{Addr: 0, Op: memtrace.Read})
	want := e.TLBAccess + e.PageWalk + e.CacheAccess + e.MemoryAccess
	if got := s.EnergyPJ(); got != want {
		t.Errorf("cold miss energy=%d want %d", got, want)
	}
	// Warm hit: TLB + cache only.
	before := s.EnergyPJ()
	s.Access(memtrace.Access{Addr: 0, Op: memtrace.Read})
	if got := s.EnergyPJ() - before; got != e.TLBAccess+e.CacheAccess {
		t.Errorf("hit energy=%d want %d", got, e.TLBAccess+e.CacheAccess)
	}
}

func TestEnergyScratchpadCheaper(t *testing.T) {
	cfg := smallConfig()
	cfg.ScratchpadBytes = 512
	s := MustNew(cfg)
	s.Scratchpad().Place(memory.Region{Name: "pad", Base: 1 << 16, Size: 256})
	before := s.EnergyPJ()
	s.Access(memtrace.Access{Addr: 1 << 16, Op: memtrace.Read})
	scratchE := s.EnergyPJ() - before
	if scratchE != DefaultEnergy.ScratchpadAccess {
		t.Errorf("scratch energy=%d", scratchE)
	}
	// A cache hit costs more (tag array + TLB).
	s.Access(memtrace.Access{Addr: 0, Op: memtrace.Read})
	before = s.EnergyPJ()
	s.Access(memtrace.Access{Addr: 0, Op: memtrace.Read})
	if hitE := s.EnergyPJ() - before; hitE <= scratchE {
		t.Errorf("cache hit (%d pJ) not costlier than scratchpad (%d pJ)", hitE, scratchE)
	}
}

func TestEnergyUncachedAndL2(t *testing.T) {
	s := MustNew(smallConfig())
	s.PageTable().SetUncachedRange(0, 256, true)
	s.Access(memtrace.Access{Addr: 0, Op: memtrace.Read})
	e := DefaultEnergy
	if got := s.EnergyPJ(); got != e.TLBAccess+e.PageWalk+e.MemoryAccess {
		t.Errorf("uncached energy=%d", got)
	}

	s2 := MustNew(smallConfig())
	if err := s2.EnableL2(l2Config(), 10, false); err != nil {
		t.Fatal(err)
	}
	// Cold: TLB walk + L1 + L2 + memory.
	s2.Access(memtrace.Access{Addr: 0, Op: memtrace.Read})
	want := e.TLBAccess + e.PageWalk + e.CacheAccess + e.L2Access + e.MemoryAccess
	if got := s2.EnergyPJ(); got != want {
		t.Errorf("L2 cold energy=%d want %d", got, want)
	}
}

func TestSetEnergyModel(t *testing.T) {
	s := MustNew(smallConfig())
	s.SetEnergyModel(Energy{CacheAccess: 1, TLBAccess: 0, MemoryAccess: 0, PageWalk: 0})
	s.Access(memtrace.Access{Addr: 0, Op: memtrace.Read})
	if s.EnergyPJ() != 1 {
		t.Errorf("custom model energy=%d want 1", s.EnergyPJ())
	}
}
