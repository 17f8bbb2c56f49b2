package memsys

import (
	"fmt"

	"colcache/internal/cache"
	"colcache/internal/memory"
	"colcache/internal/memtrace"
	"colcache/internal/replacement"
)

// L2 support. The paper motivates column caching partly by deepening
// hierarchies ("as the memory hierarchy deepens the variance in access
// times increases"); the tint indirection deliberately hides the number of
// levels from software (§2.2). This file adds an optional unified L2 below
// the column cache: L1 misses probe the L2, L1 writebacks land in the L2,
// and only L2 misses pay the main-memory penalty.
//
// Column masks apply at the L1 — the mechanism under study. The L2 is a
// conventional set-associative cache; MaskL2 optionally applies the same
// tint-derived mask there too, modeling a machine whose tint table carries
// a bit vector per level.

// l2 wires the second-level cache into a System.
type l2 struct {
	cache  *cache.Cache
	hit    int  // cycles for an L2 hit
	masked bool // apply the L1's column mask at the L2 as well
}

// EnableL2 attaches a second-level cache. hitCycles is charged on every L2
// probe that hits; an L2 miss pays the system's MissPenalty instead. The L2
// line size must match the machine geometry. If masked is true, the same
// tint-derived column mask restricts L2 replacement too.
func (s *System) EnableL2(cfg cache.Config, hitCycles int, masked bool) error {
	c, err := cache.New(cfg)
	if err != nil {
		return err
	}
	if cfg.LineBytes != s.g.LineBytes {
		return fmt.Errorf("memsys: L2 line size %d != system line size %d", cfg.LineBytes, s.g.LineBytes)
	}
	s.l2 = &l2{cache: c, hit: hitCycles, masked: masked}
	return nil
}

// L2Stats returns the second-level cache's counters, or the zero value when
// no L2 is attached.
func (s *System) L2Stats() cache.Stats {
	if s.l2 == nil {
		return cache.Stats{}
	}
	return s.l2.cache.Stats()
}

// HasL2 reports whether a second level is attached.
func (s *System) HasL2() bool { return s.l2 != nil }

// L2Cache returns the attached second-level cache, or nil. The conformance
// harness inspects it line by line against the reference model's L2.
func (s *System) L2Cache() *cache.Cache {
	if s.l2 == nil {
		return nil
	}
	return s.l2.cache
}

// l2Access handles an L1 miss (and the L1's writeback victim, if any) at
// the second level, returning the cycles consumed below the L1 and whether
// the L2 also missed.
func (s *System) l2Access(a memtrace.Access, mask replacement.Mask, l1Writeback bool, evictedAddr memory.Addr) (int64, bool) {
	var cycles int64
	l2mask := replacement.All(s.l2.cache.Config().NumWays)
	if s.l2.masked {
		l2mask = mask
	}
	// The L1's dirty victim is installed in the L2 (write-back path).
	if l1Writeback {
		s.l2.cache.Write(evictedAddr, l2mask)
	}
	var res cache.Result
	if a.Op == memtrace.Write {
		res = s.l2.cache.Write(a.Addr, l2mask)
	} else {
		res = s.l2.cache.Read(a.Addr, l2mask)
	}
	cycles += int64(s.l2.hit)
	if !res.Hit {
		cycles += int64(s.timing.MissPenalty)
		if res.Writeback {
			cycles += int64(s.timing.Writeback)
		}
	}
	return cycles, !res.Hit
}

// evictedAddrOf reconstructs the byte address of an evicted L1 line from
// its set and tag, so the writeback can be presented to the L2.
func (s *System) evictedAddrOf(a memtrace.Access, res cache.Result) memory.Addr {
	cfg := s.cache.Config()
	set := (a.Addr >> memory.Log2(cfg.LineBytes)) & uint64(cfg.NumSets-1)
	line := res.EvictedTag<<memory.Log2(cfg.NumSets) | set
	return line << memory.Log2(cfg.LineBytes)
}
