package multicore

import (
	"fmt"
	"math"

	"colcache/internal/memory"
)

// Oracle-style invariant checking, in the spirit of internal/oracle: the
// machine keeps a tiny shadow model — a global write version per line and
// the version each core's copy carries — and after every step re-derives the
// properties the MSI protocol is supposed to guarantee:
//
//   - SWMR: a line in Modified anywhere has exactly one valid copy anywhere.
//   - No stale sharers: a read hit always observes the line's latest write
//     version; a copy that survived a remote write would fail this.
//   - State consistency: every valid line is Shared or Modified; dirty ⇔
//     Modified.
//   - Writeback ledger: every clean→Modified transition creates a dirty
//     line, every writeback retires one, and the books balance against the
//     lines currently in M — modified data is never dropped or duplicated.

// checker is the shadow model. It exists only when Config.Checks is set.
type checker struct {
	version map[memory.Addr]uint64   // line → latest write version (0 = never written)
	copies  []map[memory.Addr]uint64 // per core: line → version its copy carries
}

func newChecker(cores int) *checker {
	ch := &checker{version: make(map[memory.Addr]uint64)}
	for i := 0; i < cores; i++ {
		ch.copies = append(ch.copies, make(map[memory.Addr]uint64))
	}
	return ch
}

// noteWrite records that core c now holds the newest version of lineAddr.
func (m *Machine) noteWrite(c *core, lineAddr memory.Addr) {
	if m.check == nil {
		return
	}
	m.check.version[lineAddr]++
	m.check.copies[c.id][lineAddr] = m.check.version[lineAddr]
}

// noteFill records that core c fetched the current version of lineAddr.
func (m *Machine) noteFill(c *core, lineAddr memory.Addr) {
	if m.check == nil {
		return
	}
	m.check.copies[c.id][lineAddr] = m.check.version[lineAddr]
}

// noteDrop records that core c no longer holds lineAddr.
func (m *Machine) noteDrop(c *core, lineAddr memory.Addr) {
	if m.check == nil {
		return
	}
	delete(m.check.copies[c.id], lineAddr)
}

// noteReadHit verifies a read hit against the shadow model: the copy must
// exist and carry the line's latest write version.
func (m *Machine) noteReadHit(c *core, lineAddr memory.Addr) {
	if m.check == nil || m.err != nil {
		return
	}
	have, ok := m.check.copies[c.id][lineAddr]
	if !ok {
		m.err = fmt.Errorf("multicore: core %d read hit on line %#x with no recorded copy", c.id, lineAddr)
		return
	}
	if want := m.check.version[lineAddr]; have != want {
		m.err = fmt.Errorf("multicore: core %d read hit on stale line %#x (copy version %d, latest write %d)",
			c.id, lineAddr, have, want)
	}
}

// checkStep runs the structural invariants after a step, and verifies that
// the arbitration array mirrors the cores: a live core's entry is its cycle
// count, and an entry is MaxInt64 exactly when its core is exhausted. A
// core is exhausted when its window is used up, which refill allows only
// once the core has no decoder left.
func (m *Machine) checkStep() error {
	if m.err != nil {
		return m.err
	}
	for i, c := range m.cores {
		exhausted := c.pos >= len(c.trace)
		if exhausted && c.dec != nil {
			return fmt.Errorf("multicore: core %d used up its window without a refill", i)
		}
		if exhausted != (m.clock[i] == math.MaxInt64) {
			return fmt.Errorf("multicore: core %d clock entry %d disagrees with exhausted=%v", i, m.clock[i], exhausted)
		}
		if !exhausted && m.clock[i] != c.cycles {
			return fmt.Errorf("multicore: core %d clock entry %d != cycles %d", i, m.clock[i], c.cycles)
		}
	}
	return m.CheckInvariants()
}

// CheckInvariants walks every L1 line and verifies SWMR, state/dirty
// consistency and the writeback ledger. It can be called at any time, with
// or without Config.Checks; it never perturbs the simulation.
func (m *Machine) CheckInvariants() error {
	type holder struct {
		valid    int
		modified int
	}
	lines := make(map[memory.Addr]*holder)
	var dirtyNow int64
	for _, c := range m.cores {
		cfg := c.l1.Config()
		for s := 0; s < cfg.NumSets; s++ {
			for w := 0; w < cfg.NumWays; w++ {
				l := c.l1.LineAt(s, w)
				if !l.Valid {
					if l.Aux != StateInvalid {
						return fmt.Errorf("multicore: core %d set %d way %d: invalid line carries state %s",
							c.id, s, w, StateName(l.Aux))
					}
					continue
				}
				if l.Aux != StateShared && l.Aux != StateModified {
					return fmt.Errorf("multicore: core %d set %d way %d: valid line in state %s",
						c.id, s, w, StateName(l.Aux))
				}
				if l.Dirty != (l.Aux == StateModified) {
					return fmt.Errorf("multicore: core %d set %d way %d: dirty=%v disagrees with state %s",
						c.id, s, w, l.Dirty, StateName(l.Aux))
				}
				if l.Dirty {
					dirtyNow++
				}
				addr := c.l1.AddrOfTag(s, l.Tag)
				h := lines[addr]
				if h == nil {
					h = &holder{}
					lines[addr] = h
				}
				h.valid++
				if l.Aux == StateModified {
					h.modified++
				}
			}
		}
	}
	for addr, h := range lines {
		if h.modified > 1 {
			return fmt.Errorf("multicore: line %#x is Modified in %d cores", addr, h.modified)
		}
		if h.modified == 1 && h.valid > 1 {
			return fmt.Errorf("multicore: line %#x is Modified with %d valid copies (SWMR violated)", addr, h.valid)
		}
	}
	if m.dirtyCreated != m.dirtyRetired+dirtyNow {
		return fmt.Errorf("multicore: writeback ledger broken: created %d != retired %d + resident dirty %d",
			m.dirtyCreated, m.dirtyRetired, dirtyNow)
	}
	return nil
}
