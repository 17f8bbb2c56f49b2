package multicore

import (
	"context"
	"io"
	"math"

	"colcache/internal/cache"
	"colcache/internal/memory"
	"colcache/internal/memtrace"
)

// Step advances the machine by one trace access on the core pick chooses.
//
// It returns false when every trace is exhausted, and a non-nil error when
// Config.Checks is on and a coherence invariant was violated, or when a
// core's streamed trace failed to decode (a *TraceError). Either error
// stops the machine and is returned again by every later call.
func (m *Machine) Step() (bool, error) {
	if m.err != nil {
		return false, m.err
	}
	i := m.pick()
	if i < 0 {
		return false, nil
	}
	m.advance(i)
	if m.check != nil {
		m.err = m.checkStep()
	}
	return true, m.err
}

// pick is the machine's one definition of arbitration: the core whose local
// clock is furthest behind — smallest cycle count, ties broken by lowest
// core index — or -1 when every trace is exhausted. This fixed arbitration
// makes a run a pure function of the configuration and traces: replaying
// the same inputs interleaves the cores identically regardless of host
// parallelism. The scan reads only the dense clock array, where an
// exhausted core sits at MaxInt64 and so never wins the strict <; the
// compiler turns the select into conditional moves, so the scan has no
// data-dependent branch.
func (m *Machine) pick() int {
	next, least := -1, int64(math.MaxInt64)
	for i, t := range m.clock {
		if t < least {
			next, least = i, t
		}
	}
	return next
}

// advance executes core i's next trace access and refreshes its clock
// entry. Within one access only the stepping core's cycles move (the bus
// helpers charge the requestor), so one refresh keeps the mirror exact.
// The access that uses up the core's window calls refill.
func (m *Machine) advance(i int) {
	c := m.cores[i]
	a := c.trace[c.pos]
	c.instructions += int64(a.Think) + 1
	c.cycles += m.access(c, a)
	c.pos++
	m.clock[i] = c.cycles
	if c.pos == len(c.trace) {
		m.refill(i)
	}
}

// refill gives core i its next window once the current one is used up (New
// calls it for the first) and sets the core's clock entry. It runs once per
// window, so it stays out of advance. A decoder refills the window in
// place, reusing its buffer. A used-up core with no decoder, or whose
// decoder ends the stream, is exhausted: its entry becomes MaxInt64. A decode error stops the machine instead: every entry
// becomes MaxInt64, so pick finds nothing to run and the loops return
// m.err. The decoder's error is sticky, so a window decoded short by a
// fault runs first and the fault surfaces on the next refill.
func (m *Machine) refill(i int) {
	c := m.cores[i]
	if c.dec != nil {
		c.base += int64(len(c.trace))
		c.pos = 0
		n, err := c.dec.DecodeBatch(c.trace[:cap(c.trace)])
		c.trace = c.trace[:n]
		if n == 0 {
			c.dec = nil
			if err != io.EOF {
				m.err = &TraceError{Core: i, Err: err}
				for j := range m.clock {
					m.clock[j] = math.MaxInt64
				}
				return
			}
		}
	}
	if c.pos < len(c.trace) {
		m.clock[i] = c.cycles
	} else {
		m.clock[i] = math.MaxInt64
	}
}

// Run steps the machine until every trace is exhausted (or a check fails,
// or a streamed trace fails to decode). It is RunContext without the
// events: one batch to the end of the traces.
func (m *Machine) Run() error {
	_, err := m.batch(math.MaxInt64)
	return err
}

// RunParallel is Run. It is kept only because the repository benchmark's
// driver (perfbench) still calls it; the alias goes when that call does.
func (m *Machine) RunParallel(epochCycles int64) error { return m.Run() }

// RunContext is Run with cooperative cancellation: every checkEvery steps
// (zero or negative means 4096, memsys's default stride) the context is
// polled and onCheckpoint, when non-nil, receives the number of steps
// executed so far. An attached inspector (SetInspector) fires at its exact
// global access counts. The run proceeds in batches to the next of those
// events, so the bookkeeping amortizes over thousands of accesses and an
// attached inspector costs only its frame captures.
func (m *Machine) RunContext(ctx context.Context, checkEvery int, onCheckpoint func(done int64)) error {
	if checkEvery <= 0 {
		checkEvery = 4096
	}
	// The inspector fires at exact GLOBAL access counts (base + done), so a
	// resumed run continues the same stride grid the interrupted one used
	// and the frame sequence stays a pure function of (config, traces,
	// stride) regardless of how the run was sliced into calls.
	base := m.accessesDone()
	var inspect, nextInspect int64
	if m.inspectFn != nil && m.inspectEvery > 0 {
		inspect = m.inspectEvery
		nextInspect = (base/inspect + 1) * inspect
	}
	var done int64
	untilCheck := int64(checkEvery)
	for {
		// Run up to the nearest event (checkpoint or inspection).
		limit := untilCheck
		if inspect > 0 {
			if ui := nextInspect - (base + done); ui < limit {
				limit = ui
			}
		}
		ran, err := m.batch(limit)
		done += ran
		if err != nil {
			return err
		}
		if ran < limit { // every trace exhausted
			if inspect > 0 && base+done != nextInspect-inspect {
				m.inspectFn(base + done)
			}
			if onCheckpoint != nil {
				onCheckpoint(done)
			}
			return ctx.Err()
		}
		if inspect > 0 && base+done == nextInspect {
			m.inspectFn(base + done)
			nextInspect += inspect
		}
		if untilCheck -= ran; untilCheck == 0 {
			untilCheck = int64(checkEvery)
			if onCheckpoint != nil {
				onCheckpoint(done)
			}
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
}

// batch executes at most limit accesses and returns how many ran (short
// only when every trace is exhausted, or when a check or a decode failed,
// which it returns). With checks on it steps through Step, which verifies
// the coherence invariants after every access.
func (m *Machine) batch(limit int64) (int64, error) {
	if m.check == nil && m.err == nil {
		ran := m.runBatch(limit)
		return ran, m.err
	}
	var ran int64
	for ; ran < limit; ran++ {
		more, err := m.Step()
		if err != nil || !more {
			return ran, err
		}
	}
	return ran, nil
}

// runBatch executes at most limit accesses of the checks-off loop — pick
// and advance without Step's error bookkeeping — and returns how many ran
// (short only when every trace is exhausted or a decode error stopped the
// machine). It must stay a small dedicated function. Every register is
// caller-saved across the advance call, so whatever the loop keeps live is
// reloaded on every access: here that is m, limit and ran, and pick's scan
// runs entirely in registers. Inlined into RunContext's event bookkeeping,
// the same loop reloads about a dozen values per access and keeps the
// scan's running minimum on the stack.
func (m *Machine) runBatch(limit int64) int64 {
	var ran int64
	for ran < limit {
		i := m.pick()
		if i < 0 {
			break
		}
		m.advance(i)
		ran++
	}
	return ran
}

// access executes one trace access on core c, including every bus
// transaction it triggers, and returns the cycles to charge to c's local
// clock. The caller applies the delta (and the instruction count, which is
// Think+1 by definition); bus-side charges with no place in the delta —
// writeback races, interventions, the L2 demand fetch — land on the cores'
// clocks directly inside the helpers, which is exact because the caller
// adds the returned delta before the next arbitration decision. memAccesses
// needs no counter of its own: every trace entry is one memory access, so
// Stats derives it from the trace position.
func (m *Machine) access(c *core, a memtrace.Access) int64 {
	cyc := int64(a.Think) * int64(m.timing.NonMemInstr)

	pte, tlbHit := c.tlb.Lookup(a.Addr)
	if !tlbHit {
		cyc += int64(m.timing.TLBMiss)
	}
	if pte.Uncached {
		c.uncachedAcc++
		return cyc + int64(m.timing.Uncached)
	}

	isWrite := a.Op == memtrace.Write

	// Fast path: way-memoized L1 hit. The column mask governs replacement
	// only, so the tint lookup is skipped entirely on a hit, and the
	// line-address math runs only for the coherence transitions (or the
	// invariant checker) that need it.
	if way, st, ok := c.l1.HitFast(a.Addr, isWrite); ok {
		cyc += int64(m.timing.CacheHit)
		if isWrite && st == StateShared {
			// BusUpgr: claim ownership without a data transfer. Remote
			// copies can only be Shared here (SWMR), so no writeback races.
			lineAddr := m.g.LineBase(a.Addr)
			set, _ := c.l1.SetTagOf(a.Addr)
			m.bus.Upgrades++
			c.upgrades++
			m.invalidateRemotes(c, lineAddr)
			c.l1.SetAux(set, way, StateModified)
			m.dirtyCreated++
			m.noteWrite(c, lineAddr)
		} else if m.check != nil {
			if isWrite {
				m.noteWrite(c, m.g.LineBase(a.Addr))
			} else {
				m.noteReadHit(c, m.g.LineBase(a.Addr))
			}
		}
		return cyc
	}

	mask := c.tints.Mask(pte.Tint)
	lineAddr := m.g.LineBase(a.Addr)
	set, _ := c.l1.SetTagOf(a.Addr)

	var res cache.Result
	if isWrite {
		res = c.l1.Write(a.Addr, mask)
	} else {
		res = c.l1.Read(a.Addr, mask)
	}
	cyc += int64(m.timing.CacheHit)

	if res.Hit {
		st := c.l1.AuxAt(set, res.Way)
		switch {
		case isWrite && st == StateShared:
			// BusUpgr (hint-missed hit): same transition as the fast path.
			m.bus.Upgrades++
			c.upgrades++
			m.invalidateRemotes(c, lineAddr)
			c.l1.SetAux(set, res.Way, StateModified)
			m.dirtyCreated++
			m.noteWrite(c, lineAddr)
		case isWrite:
			m.noteWrite(c, lineAddr)
		default:
			m.noteReadHit(c, lineAddr)
		}
		return cyc
	}

	// L1 miss. The evicted victim leaves first: a dirty (Modified) victim is
	// written back into the shared L2 under this core's L2 column mask.
	if res.Evicted {
		evicted := c.l1.AddrOfTag(set, res.EvictedTag)
		if res.Writeback {
			m.l2Install(c, evicted)
			m.dirtyRetired++
			cyc += int64(m.timing.Writeback)
		}
		m.noteDrop(c, evicted)
	}

	// Bus transaction for the requested line.
	if isWrite {
		m.bus.ReadXs++
		m.invalidateRemotes(c, lineAddr)
	} else {
		m.bus.Reads++
		m.intervene(c, lineAddr)
	}

	// Fetch through the shared L2 under this core's column mask.
	l2miss := m.l2Demand(c, a, isWrite)

	if isWrite {
		c.l1.SetAux(set, res.Way, StateModified)
		m.dirtyCreated++
		m.noteWrite(c, lineAddr)
	} else {
		c.l1.SetAux(set, res.Way, StateShared)
		m.noteFill(c, lineAddr)
	}
	if m.observer != nil {
		m.observer.ObserveAccess(c.l2tint, a.Addr, l2miss)
	}
	return cyc
}

// invalidateRemotes serves the exclusive half of BusRdX/BusUpgr: every other
// core's copy of lineAddr is destroyed. A remote Modified copy wins the
// writeback race — its data is flushed to the shared L2 an instant before
// the invalidation lands, so modified data is never lost.
func (m *Machine) invalidateRemotes(req *core, lineAddr memory.Addr) {
	for _, r := range m.cores {
		if r == req {
			continue
		}
		w, ok := r.l1.Probe(lineAddr)
		if !ok {
			continue
		}
		set, _ := r.l1.SetTagOf(lineAddr)
		if r.l1.AuxAt(set, w) == StateModified {
			m.l2Install(r, lineAddr)
			m.dirtyRetired++
			m.bus.WritebackRaces++
			req.cycles += int64(m.timing.Writeback)
		}
		r.l1.Invalidate(lineAddr)
		m.bus.Invalidations++
		r.invalidationsRecv++
		m.noteDrop(r, lineAddr)
	}
}

// intervene serves a BusRd: if some core holds lineAddr Modified, it supplies
// the data — written back to the shared L2 so the requestor's fill finds it —
// and downgrades its own copy to Shared (clean). SWMR guarantees at most one
// such copy exists.
func (m *Machine) intervene(req *core, lineAddr memory.Addr) {
	for _, r := range m.cores {
		if r == req {
			continue
		}
		w, ok := r.l1.Probe(lineAddr)
		if !ok {
			continue
		}
		set, _ := r.l1.SetTagOf(lineAddr)
		if r.l1.AuxAt(set, w) != StateModified {
			continue
		}
		m.l2Install(r, lineAddr)
		m.dirtyRetired++
		r.l1.SetLineDirty(set, w, false)
		r.l1.SetAux(set, w, StateShared)
		m.bus.Interventions++
		req.interventions++
		req.cycles += int64(m.timing.Writeback)
		return
	}
}

// l2Install lands a writeback from core c (an evicted dirty victim, an
// intervention flush, or an invalidation-race flush) in the shared L2 under
// c's L2 column mask.
func (m *Machine) l2Install(c *core, lineAddr memory.Addr) {
	m.l2.Write(lineAddr, m.l2tints.Mask(c.l2tint))
}

// l2Demand performs core c's demand access at the shared L2, mirroring
// memsys.l2Access: L2HitCycles on every probe, MissPenalty (plus Writeback
// for a dirty L2 victim) when the L2 misses too.
func (m *Machine) l2Demand(c *core, a memtrace.Access, isWrite bool) bool {
	mask := m.l2tints.Mask(c.l2tint)
	var res cache.Result
	if isWrite {
		res = m.l2.Write(a.Addr, mask)
	} else {
		res = m.l2.Read(a.Addr, mask)
	}
	c.l2Accesses++
	c.cycles += int64(m.l2Hit)
	if !res.Hit {
		c.l2Misses++
		c.cycles += int64(m.timing.MissPenalty)
		if res.Writeback {
			c.cycles += int64(m.timing.Writeback)
		}
	}
	m.l2Demands++
	if m.remapSched != nil {
		for m.remapPos < len(m.remapSched) && m.remapSched[m.remapPos].AfterL2Accesses <= m.l2Demands {
			ev := m.remapSched[m.remapPos]
			// Validated by SetRemapSchedule; SetMask cannot fail here.
			_ = m.l2tints.SetMask(m.cores[ev.Core].l2tint, ev.Mask)
			m.remapPos++
		}
	}
	return !res.Hit
}
