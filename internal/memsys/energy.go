package memsys

// Energy accounting. The paper's related work (§5.2) is full of
// memory-energy studies because on-chip memory dominates embedded power
// budgets, and the classic result (Panda et al., Banakar et al.) is that a
// scratchpad access costs a fraction of a cache access — no tag array, no
// associative compare — while a main-memory access costs an order of
// magnitude more. Tracking energy alongside cycles lets the Figure 4
// partition sweep report both currencies.

// Energy fixes per-event costs in picojoules.
type Energy struct {
	CacheAccess      int64 // tag+data array access (per L1 probe)
	ScratchpadAccess int64 // dedicated SRAM access
	TLBAccess        int64 // TLB lookup (every cached/uncached access)
	PageWalk         int64 // page-table walk on TLB miss
	MemoryAccess     int64 // main-memory line transfer
	L2Access         int64 // second-level probe
}

// DefaultEnergy models a small embedded SRAM hierarchy, in picojoules:
// scratchpad ≈ 40% of a 4-way cache probe, main memory ≈ 20× the cache.
var DefaultEnergy = Energy{
	CacheAccess:      500,
	ScratchpadAccess: 200,
	TLBAccess:        50,
	PageWalk:         1000,
	MemoryAccess:     10000,
	L2Access:         2000,
}

// EnergyPJ returns the total energy consumed so far, in picojoules.
// Tracking is always on, using DefaultEnergy unless SetEnergyModel was
// called.
func (s *System) EnergyPJ() int64 { return s.energyPJ }

// SetEnergyModel replaces the per-event costs. Accumulated energy is kept.
func (s *System) SetEnergyModel(e Energy) { s.energy = e }

// noteEnergy charges the energy of one access given its outcome.
func (s *System) noteEnergy(scratch, uncached, tlbMiss, l1Miss, l2Probed, l2Miss bool) {
	e := &s.energy
	if scratch {
		s.energyPJ += e.ScratchpadAccess
		return
	}
	s.energyPJ += e.TLBAccess
	if tlbMiss {
		s.energyPJ += e.PageWalk
	}
	if uncached {
		s.energyPJ += e.MemoryAccess
		return
	}
	s.energyPJ += e.CacheAccess
	if l1Miss {
		if l2Probed {
			s.energyPJ += e.L2Access
			if l2Miss {
				s.energyPJ += e.MemoryAccess
			}
		} else {
			s.energyPJ += e.MemoryAccess
		}
	}
}
