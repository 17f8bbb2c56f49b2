package inspect

import (
	"fmt"

	"colcache/internal/cache"
	"colcache/internal/memory"
	"colcache/internal/memsys"
	"colcache/internal/multicore"
	"colcache/internal/tint"
	"colcache/internal/vm"
)

// SystemReducer reduces a single-core memsys.System to occupancy frames.
// It is not safe for concurrent use; drive it from the simulation goroutine
// (the stepper's OnInspect hook), which is also the only place the machine
// state it reads is quiescent.
type SystemReducer struct {
	sys *memsys.System

	l1buf [][]cache.LineState
	l2buf [][]cache.LineState

	prevL1Miss int64
	prevL2Miss int64

	// Cumulative per-tint counters from the previous frame; swapped with
	// curTint each Reduce so neither map is rebuilt.
	prevTint map[tint.Tint]memsys.TintStats
	curTint  map[tint.Tint]memsys.TintStats

	seq int64
}

// NewSystemReducer returns a reducer over sys. Call
// sys.EnablePerTintStats() before running if frames should carry per-tint
// miss deltas; without it TintMiss stays empty.
func NewSystemReducer(sys *memsys.System) *SystemReducer {
	return &SystemReducer{sys: sys}
}

// Reduce fills f with the system's current state. done is the number of
// trace accesses executed (the stepper's inspection-hook argument); final
// marks the run's last frame. Steady-state calls allocate nothing: line
// buffers, tint maps and f's own slices are all reused.
func (r *SystemReducer) Reduce(f *Frame, done int64, final bool) {
	f.Reset()
	f.Seq = r.seq
	r.seq++
	f.Done = done
	f.Final = final

	st := r.sys.Stats()
	f.Cycles = st.Cycles

	tints := r.sys.Tints()
	f.Remaps = tints.Remaps()

	pt := r.sys.PageTable()

	// L1.
	l1 := r.sys.Cache()
	r.l1buf = l1.SnapshotSetsInto(r.l1buf)
	cf := cacheAt(f, 0, "l1", len(r.l1buf), len(r.l1buf[0]))
	reduceTinted(cf, l1, pt, r.l1buf)
	cf.Misses = st.Cache.Misses
	cf.MissDelta = cf.Misses - r.prevL1Miss
	r.prevL1Miss = cf.Misses

	// L2, when attached.
	if l2 := r.sys.L2Cache(); l2 != nil {
		r.l2buf = l2.SnapshotSetsInto(r.l2buf)
		cf2 := cacheAt(f, 1, "l2", len(r.l2buf), len(r.l2buf[0]))
		reduceTinted(cf2, l2, pt, r.l2buf)
		l2st := r.sys.L2Stats()
		cf2.Misses = l2st.Misses
		cf2.MissDelta = cf2.Misses - r.prevL2Miss
		r.prevL2Miss = cf2.Misses
	}

	// Active column masks, in fixed tint-id order.
	for id := 0; id < tints.Count(); id++ {
		f.Masks = append(f.Masks, MaskEntry{
			Kind: "tint",
			ID:   id,
			Name: tints.Name(tint.Tint(id)),
			Mask: uint64(tints.Mask(tint.Tint(id))),
		})
	}

	// Per-tint miss deltas since the previous frame, when attribution is on.
	r.curTint = r.sys.CumulativeTintStats(r.curTint)
	if len(r.curTint) > 0 {
		for id := 0; id < tints.Count(); id++ {
			cur, ok := r.curTint[tint.Tint(id)]
			if !ok {
				continue
			}
			prev := r.prevTint[tint.Tint(id)]
			f.TintMiss = append(f.TintMiss, TintDelta{
				Tint:     id,
				Name:     tints.Name(tint.Tint(id)),
				Accesses: cur.Accesses - prev.Accesses,
				Misses:   cur.Misses - prev.Misses,
			})
		}
	}
	r.prevTint, r.curTint = r.curTint, r.prevTint
}

// reduceTinted fills cf's cell grids from captured lines, tagging each valid
// line by the tint of its page (a side-effect-free page-table read) and
// deriving the cell state from the dirty bit.
func reduceTinted(cf *CacheFrame, c *cache.Cache, pt *vm.PageTable, lines [][]cache.LineState) {
	for set, row := range lines {
		base := set * cf.Ways
		for way, ls := range row {
			i := base + way
			if !ls.Valid {
				cf.Occ[i] = 0
				cf.MSI[i] = CellInvalid
				continue
			}
			cf.Occ[i] = tagByte(int(pt.TintOf(c.AddrOfTag(set, ls.Tag))))
			cf.Valid++
			if ls.Dirty {
				cf.Dirty++
				cf.Modified++
				cf.MSI[i] = CellModified
			} else {
				cf.Shared++
				cf.MSI[i] = CellShared
			}
		}
	}
}

// MachineReducer reduces a multicore.Machine — per-core coherent L1s plus
// the shared column-partitioned L2 — to occupancy frames. Drive it from the
// machine's inspection hook, which fires between accesses, so the machine
// is always quiescent when Reduce runs.
type MachineReducer struct {
	m *multicore.Machine

	// owner maps a line address to the core whose trace window it belongs
	// to; nil when cores share an address space and ownership is undefined.
	owner func(memory.Addr) int

	l1bufs [][][]cache.LineState
	l2buf  [][]cache.LineState

	prevL1Miss []int64
	prevL2Miss int64
	prevL2Acc  []int64 // per-core shared-L2 demand probes
	prevL2Mis  []int64 // per-core shared-L2 demand misses

	coreNames []string // "core0".. precomputed: no fmt on the capture path
	tintNames []string // the cores' L2 tint debug names

	seq int64
}

// NewMachineReducer returns a reducer over m. owner, when non-nil, maps a
// line address to the core that owns it, used to tag shared-L2 lines; pass
// WindowOwner(n) for the standard disjoint per-core trace windows, or nil
// when cores share addresses (L2 cells then carry an anonymous tag).
func NewMachineReducer(m *multicore.Machine, owner func(memory.Addr) int) *MachineReducer {
	n := m.NumCores()
	r := &MachineReducer{
		m:          m,
		owner:      owner,
		l1bufs:     make([][][]cache.LineState, n),
		prevL1Miss: make([]int64, n),
		prevL2Acc:  make([]int64, n),
		prevL2Mis:  make([]int64, n),
		coreNames:  make([]string, n),
		tintNames:  make([]string, n),
	}
	for i := 0; i < n; i++ {
		r.coreNames[i] = fmt.Sprintf("core%d", i)
		r.tintNames[i] = m.L2Tints().Name(m.L2Tint(i))
	}
	return r
}

// WindowOwner returns an owner function for machines whose per-core traces
// live in disjoint address windows of 2^windowShift bytes (the service
// builds multicore jobs with core i's trace shifted by i<<32).
func WindowOwner(numCores int, windowShift uint) func(memory.Addr) int {
	return func(a memory.Addr) int {
		c := int(a >> windowShift)
		if c < 0 || c >= numCores {
			return -1
		}
		return c
	}
}

// Reduce fills f with the machine's current state. done is the global
// access count (the inspection-hook argument); final marks the run's last
// frame. Allocation-free at steady state.
func (r *MachineReducer) Reduce(f *Frame, done int64, final bool) {
	f.Reset()
	f.Seq = r.seq
	r.seq++
	f.Done = done
	f.Final = final
	f.Remaps = int64(r.m.RemapsFired())

	n := r.m.NumCores()

	// Per-core private L1s, tagged by page tint, MSI state from the aux byte.
	var maxCycles int64
	for i := 0; i < n; i++ {
		cs := r.m.CoreStatsAt(i)
		if cs.Cycles > maxCycles {
			maxCycles = cs.Cycles
		}
		l1 := r.m.L1(i)
		r.l1bufs[i] = l1.SnapshotSetsInto(r.l1bufs[i])
		lines := r.l1bufs[i]
		cf := cacheAt(f, i, r.coreNames[i], len(lines), len(lines[0]))
		pt := r.m.PageTable(i)
		for set, row := range lines {
			base := set * cf.Ways
			for way, ls := range row {
				k := base + way
				if !ls.Valid {
					cf.Occ[k] = 0
					cf.MSI[k] = CellInvalid
					continue
				}
				cf.Occ[k] = tagByte(int(pt.TintOf(l1.AddrOfTag(set, ls.Tag))))
				cf.Valid++
				cf.MSI[k] = ls.Aux
				if ls.Aux == CellModified {
					cf.Modified++
				} else {
					cf.Shared++
				}
				if ls.Dirty {
					cf.Dirty++
				}
			}
		}
		cf.Misses = cs.L1.Misses
		cf.MissDelta = cf.Misses - r.prevL1Miss[i]
		r.prevL1Miss[i] = cf.Misses

		// Per-core shared-L2 activity rides TintMiss: one row per core,
		// named by the core's L2 tint.
		f.TintMiss = append(f.TintMiss, TintDelta{
			Tint:     i,
			Name:     r.tintNames[i],
			Accesses: cs.L2Accesses - r.prevL2Acc[i],
			Misses:   cs.L2Misses - r.prevL2Mis[i],
		})
		r.prevL2Acc[i] = cs.L2Accesses
		r.prevL2Mis[i] = cs.L2Misses
	}
	f.Cycles = maxCycles

	// Shared L2, tagged by owning core when derivable.
	l2 := r.m.L2()
	r.l2buf = l2.SnapshotSetsInto(r.l2buf)
	cf := cacheAt(f, n, "l2", len(r.l2buf), len(r.l2buf[0]))
	for set, row := range r.l2buf {
		base := set * cf.Ways
		for way, ls := range row {
			k := base + way
			if !ls.Valid {
				cf.Occ[k] = 0
				cf.MSI[k] = CellInvalid
				continue
			}
			tag := byte(1)
			if r.owner != nil {
				if c := r.owner(l2.AddrOfTag(set, ls.Tag)); c >= 0 {
					tag = tagByte(c)
				}
			}
			cf.Occ[k] = tag
			cf.Valid++
			if ls.Dirty {
				cf.Dirty++
				cf.Modified++
				cf.MSI[k] = CellModified
			} else {
				cf.Shared++
				cf.MSI[k] = CellShared
			}
		}
	}
	cf.Misses = l2.Stats().Misses
	cf.MissDelta = cf.Misses - r.prevL2Miss
	r.prevL2Miss = cf.Misses

	// Per-core shared-L2 column masks.
	for i := 0; i < n; i++ {
		f.Masks = append(f.Masks, MaskEntry{
			Kind: "core",
			ID:   i,
			Name: r.tintNames[i],
			Mask: uint64(r.m.L2Mask(i)),
		})
	}
}
