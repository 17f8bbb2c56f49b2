package vm

import (
	"fmt"

	"colcache/internal/memory"
	"colcache/internal/tint"
)

// TLBConfig sizes the translation-lookaside buffer.
type TLBConfig struct {
	Entries int // total entries (power of two)
	Ways    int // associativity; Entries/Ways sets. Ways==Entries => fully associative.
}

// DefaultTLBConfig is a 64-entry fully-associative TLB, typical of embedded
// cores of the paper's era.
var DefaultTLBConfig = TLBConfig{Entries: 64, Ways: 64}

func (c TLBConfig) validate() error {
	if c.Entries <= 0 || !memory.IsPow2(c.Entries) {
		return fmt.Errorf("vm: TLB entry count %d is not a positive power of two", c.Entries)
	}
	if c.Ways <= 0 || c.Entries%c.Ways != 0 {
		return fmt.Errorf("vm: TLB ways %d does not divide entries %d", c.Ways, c.Entries)
	}
	if sets := c.Entries / c.Ways; !memory.IsPow2(sets) {
		return fmt.Errorf("vm: TLB set count %d is not a power of two", sets)
	}
	return nil
}

// TLBStats counts TLB events.
type TLBStats struct {
	Accesses int64
	Hits     int64
	Misses   int64
	Flushes  int64 // single-entry flushes due to re-tinting
}

// HitRate returns hits/accesses, or 1 for an untouched TLB.
func (s TLBStats) HitRate() float64 {
	if s.Accesses == 0 {
		return 1
	}
	return float64(s.Hits) / float64(s.Accesses)
}

type tlbEntry struct {
	pn    uint64
	asid  uint16
	pte   PTE
	valid bool
	stamp uint64
}

// TLB caches PTEs, including the tint extension. Lookups that miss walk the
// page table (cost accounted by the memory system) and install the entry,
// evicting the LRU entry of the set.
type TLB struct {
	cfg     TLBConfig
	pt      *PageTable
	pgShift uint // page-number shift, mirrored from the geometry
	sets    [][]tlbEntry
	asid    uint16

	// Counter economy on the lookup path: clock advances once per Lookup, so
	// Accesses is derived as clock-clockBase (clockBase snapshots clock at
	// the last ResetStats) and Hits as Accesses-Misses. Only misses and
	// flushes keep dedicated counters; the index hit path writes exactly two
	// words (clock, entry stamp).
	clock     uint64
	clockBase uint64
	misses    int64
	flushes   int64

	// Translation index: a direct-mapped array of entry pointers, slot
	// indexHash(pn), repointed at every hit or install through the set
	// scan. It is a hint, validated per use like the cache's way hints: a
	// non-nil slot is trusted only when its entry is valid and holds pn
	// under the current ASID. Installs never duplicate a (pn, ASID) pair, so
	// such an entry is the one the scan would find, and the hit updates its
	// recency stamp exactly like the scan path. Any other slot — empty,
	// flushed, evicted and reused, another ASID's or another page's — falls
	// through to the scan, so flushes and ASID switches never touch it.
	// (Sets are allocated once in NewTLB and never reallocated, so the
	// pointers stay valid for the TLB's lifetime.)
	index [1 << indexBits]*tlbEntry
}

// indexBits sizes the translation index at 1<<indexBits slots.
const indexBits = 6

// indexHash maps a page number to its translation-index slot with a
// Fibonacci multiplicative hash, so pages that step by a power of two (a
// workload's regions) still spread over the slots.
func indexHash(pn uint64) uint64 {
	return (pn * 0x9e3779b97f4a7c15) >> (64 - indexBits)
}

// NewTLB builds a TLB over page table pt.
func NewTLB(cfg TLBConfig, pt *PageTable) (*TLB, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t := &TLB{cfg: cfg, pt: pt, pgShift: memory.Log2(pt.g.PageBytes)}
	numSets := cfg.Entries / cfg.Ways
	t.sets = make([][]tlbEntry, numSets)
	for i := range t.sets {
		t.sets[i] = make([]tlbEntry, cfg.Ways)
	}
	return t, nil
}

// MustNewTLB is NewTLB that panics on error.
func MustNewTLB(cfg TLBConfig, pt *PageTable) *TLB {
	t, err := NewTLB(cfg, pt)
	if err != nil {
		panic(err)
	}
	return t
}

// Stats returns the accumulated counters.
func (t *TLB) Stats() TLBStats {
	acc := int64(t.clock - t.clockBase)
	return TLBStats{
		Accesses: acc,
		Hits:     acc - t.misses,
		Misses:   t.misses,
		Flushes:  t.flushes,
	}
}

// ResetStats zeroes the counters without dropping entries.
func (t *TLB) ResetStats() {
	t.clockBase = t.clock
	t.misses = 0
	t.flushes = 0
}

func (t *TLB) setOf(pn uint64) int { return int(pn % uint64(len(t.sets))) }

// Lookup returns the PTE for the page containing addr and whether it was a
// TLB hit. On a miss the entry is walked from the page table and installed.
// The index fast path lives in this wrapper; the associative scan and
// install stay in lookupSlow.
func (t *TLB) Lookup(addr memory.Addr) (PTE, bool) {
	pn := addr >> t.pgShift
	if e := t.index[indexHash(pn)]; e != nil && e.pn == pn && e.asid == t.asid && e.valid {
		t.clock++
		e.stamp = t.clock
		return e.pte, true
	}
	return t.lookupSlow(pn)
}

func (t *TLB) lookupSlow(pn uint64) (PTE, bool) {
	t.clock++
	setIdx := t.setOf(pn)
	set := t.sets[setIdx]
	for i := range set {
		if set[i].valid && set[i].pn == pn && set[i].asid == t.asid {
			set[i].stamp = t.clock
			t.index[indexHash(pn)] = &set[i]
			return set[i].pte, true
		}
	}
	t.misses++
	pte := t.pt.LookupPage(pn)
	// Install, evicting LRU (or an invalid slot).
	victim, best := 0, ^uint64(0)
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].stamp < best {
			victim, best = i, set[i].stamp
		}
	}
	set[victim] = tlbEntry{pn: pn, asid: t.asid, pte: pte, valid: true, stamp: t.clock}
	t.index[indexHash(pn)] = &set[victim]
	return pte, false
}

// SetASID switches the current address-space identifier. Entries installed
// under other ASIDs stay resident but stop matching, so a context switch
// needs no flush — the alternative to FlushAll on machines whose TLB tags
// entries (ASIDs change which process's entries are live, not the page
// table, which in this simulator is shared and physically tagged).
func (t *TLB) SetASID(id uint16) {
	t.asid = id
}

// ASID returns the current address-space identifier.
func (t *TLB) ASID() uint16 { return t.asid }

// FlushPage invalidates every entry for page pn, and reports whether any
// was dropped. Re-tinting a page must flush (or update) its TLB entries so
// the new tint is observed — every entry, across ASIDs: the page table is
// shared and physically tagged, so a page looked up under two ASIDs has two
// cached copies, and leaving either one valid would let a stale tint keep
// governing replacement after a Retint. (Found by the differential
// conformance oracle: the first-match-only flush this replaces diverged
// from the reference model on ASID-switching scripts.)
func (t *TLB) FlushPage(pn uint64) bool {
	set := t.sets[t.setOf(pn)]
	any := false
	for i := range set {
		if set[i].valid && set[i].pn == pn {
			set[i].valid = false
			t.flushes++
			any = true
		}
	}
	return any
}

// FlushAll invalidates every entry, as on a context switch without ASIDs.
func (t *TLB) FlushAll() {
	for s := range t.sets {
		for i := range t.sets[s] {
			t.sets[s][i].valid = false
		}
	}
	t.flushes++
}

// Resident reports whether page pn currently has a valid entry.
func (t *TLB) Resident(pn uint64) bool {
	for _, e := range t.sets[t.setOf(pn)] {
		if e.valid && e.pn == pn {
			return true
		}
	}
	return false
}

// Retint is the full paper §2.2 re-tinting operation: update the page-table
// entries for [base, base+size) and flush the TLB entries of every page that
// changed. It returns the number of pages whose entries were rewritten.
func Retint(pt *PageTable, t *TLB, base memory.Addr, size uint64, id tint.Tint) int {
	changed := pt.SetTintRange(base, size, id)
	for _, pn := range changed {
		t.FlushPage(pn)
	}
	return len(changed)
}
