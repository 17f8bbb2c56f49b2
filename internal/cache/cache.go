// Package cache implements the column cache: a set-associative cache whose
// replacement unit can be restricted, per access, to a bit vector of
// permissible columns. A column is one way of the n-way cache (paper §2).
//
// Lookup behaves exactly like a standard set-associative cache — every way of
// the selected set is searched associatively regardless of the mask — so a
// hit never pays a penalty and repartitioning is graceful: a line resident in
// a column its page is no longer mapped to is still found, and only migrates
// when it is eventually replaced and refetched (paper §2.1).
//
// # Flat state and way memoization
//
// The cache stores its line metadata (tags, valid/dirty bits, auxiliary
// state) and its replacement recency state as flat contiguous slices indexed
// by set*ways+way, not as per-line structs behind a policy interface. The
// four built-in replacement policies are implemented inline over those
// slices, dispatched by a small enum — the per-access path performs no
// interface calls and no allocation. A policy injected through NewWithPolicy
// still runs through the replacement.Policy interface (the conformance
// harness's mutation seam); only the built-in kinds take the flat path, and
// both paths are bit-identical in behavior.
//
// Each set additionally keeps a memoized MRU way hint (after Ishihara &
// Fallah's way-memoization): the way of the set's last hit or fill. An
// access first probes the hinted way and skips the associative search when
// the tag matches. The hint is validated on every use — it is consulted only
// together with the live valid bit and tag, so a hint left stale by an
// eviction, an Invalidate, a mask narrowing or an external state downgrade
// can never produce a false hit; at worst it costs one extra compare before
// the full search runs. That validation is the memoization invariant the
// regression tests pin down.
//
// DataCache in this package couples the cache with a backing memory so
// simulations can verify read-your-writes integrity end to end.
package cache

import (
	"fmt"
	"math/bits"

	"colcache/internal/memory"
	"colcache/internal/replacement"
)

// WritePolicy selects how stores interact with lower levels.
type WritePolicy uint8

const (
	// WriteBackAllocate: stores allocate on miss and dirty the line;
	// evicting a dirty line costs a writeback. The default.
	WriteBackAllocate WritePolicy = iota
	// WriteThroughNoAllocate: stores propagate to memory immediately and do
	// not allocate on miss.
	WriteThroughNoAllocate
)

func (w WritePolicy) String() string {
	switch w {
	case WriteBackAllocate:
		return "write-back/allocate"
	case WriteThroughNoAllocate:
		return "write-through/no-allocate"
	default:
		return "unknown"
	}
}

// Config describes a column cache.
type Config struct {
	LineBytes int              // bytes per line (power of two)
	NumSets   int              // sets (power of two)
	NumWays   int              // ways == columns (1..64)
	Policy    replacement.Kind // victim-selection policy; default LRU
	Write     WritePolicy      // store handling; default write-back
}

// SizeBytes returns the total capacity.
func (c Config) SizeBytes() int { return c.LineBytes * c.NumSets * c.NumWays }

// ColumnBytes returns the capacity of a single column.
func (c Config) ColumnBytes() int { return c.LineBytes * c.NumSets }

func (c Config) validate() error {
	if !memory.IsPow2(c.LineBytes) {
		return fmt.Errorf("cache: line size %d is not a power of two", c.LineBytes)
	}
	if !memory.IsPow2(c.NumSets) {
		return fmt.Errorf("cache: set count %d is not a power of two", c.NumSets)
	}
	if c.NumWays < 1 || c.NumWays > 64 {
		return fmt.Errorf("cache: way count %d outside [1,64]", c.NumWays)
	}
	return nil
}

// Stats counts cache events.
type Stats struct {
	Accesses   int64
	Hits       int64
	Misses     int64
	Evictions  int64 // valid lines displaced
	Writebacks int64 // dirty lines written back on eviction or flush
	Fills      int64 // lines brought in from memory
}

// MissRate returns misses/accesses, or 0 for an untouched cache.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// HitRate returns hits/accesses, or 0 for an untouched cache.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

func (s Stats) String() string {
	return fmt.Sprintf("acc=%d hit=%d miss=%d (%.2f%%) evict=%d wb=%d",
		s.Accesses, s.Hits, s.Misses, 100*s.MissRate(), s.Evictions, s.Writebacks)
}

// Result reports what one access did.
type Result struct {
	Hit        bool
	Way        int  // way hit or filled; -1 for write-through miss (no allocate)
	Filled     bool // a new line was brought in
	Evicted    bool // a valid line was displaced to make room
	Writeback  bool // the displaced line was dirty
	EvictedTag uint64
}

// kindCode is the flat-path dispatch tag for the built-in policies.
type kindCode uint8

const (
	kindLRU kindCode = iota
	kindPLRU
	kindFIFO
	kindRandom
	kindCustom // replacement.Policy injected via NewWithPolicy
)

// randomSeed matches the deterministic seed replacement.New gives the
// built-in random policy, so the flat path reproduces its victim stream.
const randomSeed = 1

// Cache is a column cache. It is not safe for concurrent use; the simulated
// machine is single-ported.
//
// All per-line and per-set state lives in flat slices indexed by
// set*NumWays+way (lines) or set (recency clocks, PLRU bits, way hints), so
// the access path walks contiguous memory.
type Cache struct {
	cfg   Config
	stats Stats

	numWays   int
	lineShift uint
	setShift  uint // Log2(NumSets)
	setMask   uint64

	// Line metadata, indexed set*NumWays+way.
	tags  []uint64
	valid []bool
	dirty []bool
	aux   []uint8 // caller-defined per-line state (e.g. coherence); zeroed with the line

	// hint[set] is the way of the set's last hit or fill — the memoized MRU
	// way probed before the associative search. Always a legal way index;
	// validated against the live valid bit and tag on every use.
	hint []int32

	// Flat replacement state. Which slices are live depends on kind:
	// LRU uses stamp+clock, FIFO uses stamp+clock+present, PLRU uses plru,
	// Random uses rngState.
	kind     kindCode
	stamp    []uint64 // [set*ways+way] LRU last-touch / FIFO fill time
	clock    []uint64 // [set] per-set logical clock
	plru     []uint64 // [set] tree-PLRU direction bits; bit n = node n points right
	present  []bool   // [set*ways+way] FIFO: way currently queued
	rngState uint64   // xorshift64* state for random replacement

	custom replacement.Policy // non-nil only for kindCustom
}

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Policy == "" {
		cfg.Policy = replacement.LRU
	}
	c := newFlat(cfg)
	switch cfg.Policy {
	case replacement.LRU:
		c.kind = kindLRU
		c.stamp = make([]uint64, cfg.NumSets*cfg.NumWays)
		c.clock = make([]uint64, cfg.NumSets)
	case replacement.TreePLRU:
		// NumWays is already constrained to [1,64]; the tree additionally
		// needs a power-of-two way count, like replacement.NewTreePLRU.
		if cfg.NumWays&(cfg.NumWays-1) != 0 {
			return nil, fmt.Errorf("cache: tree PLRU requires a power-of-two way count, got %d", cfg.NumWays)
		}
		c.kind = kindPLRU
		c.plru = make([]uint64, cfg.NumSets)
	case replacement.FIFO:
		c.kind = kindFIFO
		c.stamp = make([]uint64, cfg.NumSets*cfg.NumWays)
		c.clock = make([]uint64, cfg.NumSets)
		c.present = make([]bool, cfg.NumSets*cfg.NumWays)
	case replacement.Random:
		c.kind = kindRandom
		c.rngState = randomSeed
	default:
		return nil, fmt.Errorf("replacement: unknown policy kind %q", cfg.Policy)
	}
	return c, nil
}

// NewWithPolicy builds a cache from cfg but with the given replacement
// policy instead of constructing one from cfg.Policy. This is the seam the
// conformance harness uses to inject deliberately buggy victim selection
// (mutation checks that prove the differential oracle catches divergence),
// and it lets experiments plug in policies the registry doesn't know.
// Injected policies run through the interface, not the flat fast path.
func NewWithPolicy(cfg Config, pol replacement.Policy) (*Cache, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if pol == nil {
		return nil, fmt.Errorf("cache: nil policy")
	}
	c := newFlat(cfg)
	c.kind = kindCustom
	c.custom = pol
	return c, nil
}

// newFlat allocates the line-metadata slices shared by every policy kind.
func newFlat(cfg Config) *Cache {
	n := cfg.NumSets * cfg.NumWays
	return &Cache{
		cfg:       cfg,
		numWays:   cfg.NumWays,
		lineShift: memory.Log2(cfg.LineBytes),
		setShift:  memory.Log2(cfg.NumSets),
		setMask:   uint64(cfg.NumSets) - 1,
		tags:      make([]uint64, n),
		valid:     make([]bool, n),
		dirty:     make([]bool, n),
		aux:       make([]uint8, n),
		hint:      make([]int32, cfg.NumSets),
	}
}

// MustNew is New that panics on error, for tests and fixed configurations.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the event counters accumulated so far.
func (c *Cache) Stats() Stats {
	// Returned by value: the snapshot is a detached copy, never a live
	// pointer into the cache, so holding one across later accesses (or
	// publishing one to a metrics scraper) is safe. Hits is derived — every
	// access is a hit or a miss, so the hot paths only maintain Accesses and
	// Misses and the subtraction happens here, off the per-access path.
	st := c.stats
	st.Hits = st.Accesses - st.Misses
	return st
}

// Misses returns the demand-miss counter alone: the one counter a caller
// that charges misses per batch (the round-robin scheduler's quanta) reads,
// without copying the whole Stats.
func (c *Cache) Misses() int64 { return c.stats.Misses }

// ResetStats zeroes the counters without touching cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// setIndex returns (set, tag) for addr.
func (c *Cache) setIndex(addr memory.Addr) (int, uint64) {
	lineNum := addr >> c.lineShift
	return int(lineNum & c.setMask), lineNum >> c.setShift
}

// Probe reports whether addr is resident and in which way, without touching
// replacement state or statistics.
func (c *Cache) Probe(addr memory.Addr) (way int, hit bool) {
	set, tag := c.setIndex(addr)
	base := set * c.numWays
	if w := base + int(c.hint[set]); c.valid[w] && c.tags[w] == tag {
		return w - base, true
	}
	for w := 0; w < c.numWays; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			return w, true
		}
	}
	return -1, false
}

// Read performs a load of addr with the given permissible-column mask.
func (c *Cache) Read(addr memory.Addr, mask replacement.Mask) Result {
	return c.access(addr, false, mask)
}

// Write performs a store of addr with the given permissible-column mask.
func (c *Cache) Write(addr memory.Addr, mask replacement.Mask) Result {
	return c.access(addr, true, mask)
}

// HitFast attempts the way-memoized hit path alone: if the set's MRU hint
// resolves addr, it performs the full hit bookkeeping (access and hit
// counters, recency touch, dirty bit for write-back writes) and returns the
// hit way and its auxiliary byte. Otherwise it moves nothing — no counters,
// no recency — and the caller must complete the access with Read or Write,
// which repeat the hint probe and handle the associative search and miss
// paths. Splitting the access this way lets a hot caller defer work a hit
// never needs — computing the replacement column mask, line-address math —
// until the hint has actually missed.
func (c *Cache) HitFast(addr memory.Addr, isWrite bool) (way int, aux uint8, ok bool) {
	set, tag := c.setIndex(addr)
	base := set * c.numWays
	i := base + int(c.hint[set])
	// The explicit uint(i) guards are for the compiler: they prove i in
	// bounds for tags and valid so the per-index checks vanish from the
	// hot path (they never fire — hint[set] < numWays by invariant).
	tags, valid := c.tags, c.valid
	if uint(i) >= uint(len(tags)) || uint(i) >= uint(len(valid)) || !valid[i] || tags[i] != tag {
		return 0, 0, false
	}
	c.stats.Accesses++
	if c.kind == kindLRU {
		n := c.clock[set] + 1
		c.clock[set] = n
		c.stamp[i] = n
	} else {
		c.touch(set, i-base)
	}
	if isWrite && c.cfg.Write == WriteBackAllocate {
		c.dirty[i] = true
	}
	return i - base, c.aux[i], true
}

func (c *Cache) access(addr memory.Addr, isWrite bool, mask replacement.Mask) Result {
	c.stats.Accesses++
	set, tag := c.setIndex(addr)
	base := set * c.numWays

	// Way memoization: probe the set's MRU way before the associative
	// search. Validated against the live valid bit and tag, so a stale hint
	// degrades to the search below — it can never fabricate a hit.
	if i := base + int(c.hint[set]); c.valid[i] && c.tags[i] == tag {
		c.touch(set, i-base)
		if isWrite && c.cfg.Write == WriteBackAllocate {
			c.dirty[i] = true
		}
		return Result{Hit: true, Way: i - base}
	}

	// Associative lookup across ALL ways — the mask restricts replacement
	// only, never lookup.
	for w := 0; w < c.numWays; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			c.hint[set] = int32(w)
			c.touch(set, w)
			if isWrite && c.cfg.Write == WriteBackAllocate {
				c.dirty[base+w] = true
			}
			return Result{Hit: true, Way: w}
		}
	}

	// Miss.
	c.stats.Misses++
	if isWrite && c.cfg.Write == WriteThroughNoAllocate {
		return Result{Hit: false, Way: -1}
	}
	return c.fill(set, tag, mask, isWrite && c.cfg.Write == WriteBackAllocate)
}

// fill victimizes a way of set under mask and installs tag, dirty as given.
// Shared by the demand-miss and prefetch-install paths.
func (c *Cache) fill(set int, tag uint64, mask replacement.Mask, dirty bool) Result {
	base := set * c.numWays
	w := c.victim(set, mask)
	i := base + w
	res := Result{Hit: false, Way: w, Filled: true}
	if c.valid[i] {
		res.Evicted = true
		res.EvictedTag = c.tags[i]
		c.stats.Evictions++
		if c.dirty[i] {
			res.Writeback = true
			c.stats.Writebacks++
		}
	}
	c.tags[i] = tag
	c.valid[i] = true
	c.dirty[i] = dirty
	c.aux[i] = 0
	c.hint[set] = int32(w)
	c.stats.Fills++
	c.touch(set, w)
	return res
}

// Fill installs addr's line under mask without counting a demand access —
// the fill path a prefetcher uses. If the line is already resident nothing
// happens. Evictions and writebacks it causes are counted as usual, and the
// result reports them.
func (c *Cache) Fill(addr memory.Addr, mask replacement.Mask) Result {
	set, tag := c.setIndex(addr)
	base := set * c.numWays
	for w := 0; w < c.numWays; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			return Result{Hit: true, Way: w}
		}
	}
	return c.fill(set, tag, mask, false)
}

// Invalidate drops the line containing addr if resident, without writeback.
// It reports whether a line was dropped.
func (c *Cache) Invalidate(addr memory.Addr) bool {
	set, tag := c.setIndex(addr)
	base := set * c.numWays
	for w := 0; w < c.numWays; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == tag {
			c.clearLine(i)
			if int(c.hint[set]) == w {
				c.hint[set] = 0
			}
			c.invalidateRep(set, w)
			return true
		}
	}
	return false
}

// FlushAll invalidates every line, counting writebacks for dirty ones, and
// resets replacement state and way hints.
func (c *Cache) FlushAll() {
	for i := range c.valid {
		if c.valid[i] && c.dirty[i] {
			c.stats.Writebacks++
		}
		c.clearLine(i)
	}
	for s := range c.hint {
		c.hint[s] = 0
	}
	c.resetRep()
}

// clearLine zeroes one line's metadata.
func (c *Cache) clearLine(i int) {
	c.tags[i] = 0
	c.valid[i] = false
	c.dirty[i] = false
	c.aux[i] = 0
}

// touch updates recency state for an access (hit or fill) of (set, way).
func (c *Cache) touch(set, way int) {
	switch c.kind {
	case kindLRU:
		c.clock[set]++
		c.stamp[set*c.numWays+way] = c.clock[set]
	case kindPLRU:
		if c.numWays == 1 {
			return
		}
		word := c.plru[set]
		node, lo, hi := 0, 0, c.numWays
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			if way < mid {
				// Accessed left: point the bit right (away from the access).
				word |= 1 << uint(node)
				node, hi = 2*node+1, mid
			} else {
				word &^= 1 << uint(node)
				node, lo = 2*node+2, mid
			}
		}
		c.plru[set] = word
	case kindFIFO:
		// Only the first touch after an invalidate (i.e. the fill) advances
		// the queue position; hits leave FIFO order alone.
		i := set*c.numWays + way
		if c.present[i] {
			return
		}
		c.clock[set]++
		c.stamp[i] = c.clock[set]
		c.present[i] = true
	case kindRandom:
		// Random keeps no recency state.
	case kindCustom:
		c.custom.Touch(set, way)
	}
}

// victim selects the way of set to replace, restricted to ways allowed by
// mask. Invalid permitted ways are preferred, lowest index first; otherwise
// the policy picks among the permitted valid ways. An empty or out-of-range
// mask widens to all ways — the replacement unit must make progress even on
// a malformed bit vector.
func (c *Cache) victim(set int, mask replacement.Mask) int {
	if c.kind == kindCustom {
		base := set * c.numWays
		return c.custom.Victim(set, mask, func(way int) bool { return c.valid[base+way] })
	}
	all := replacement.All(c.numWays)
	mask &= all
	if mask == 0 {
		mask = all
	}
	base := set * c.numWays
	for w := 0; w < c.numWays; w++ {
		if mask.Has(w) && !c.valid[base+w] {
			return w
		}
	}
	switch c.kind {
	case kindLRU:
		best, bestStamp := -1, ^uint64(0)
		for w := 0; w < c.numWays; w++ {
			if !mask.Has(w) {
				continue
			}
			if s := c.stamp[base+w]; s < bestStamp {
				best, bestStamp = w, s
			}
		}
		return best
	case kindPLRU:
		word := c.plru[set]
		node, lo, hi := 0, 0, c.numWays
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			goRight := word&(1<<uint(node)) != 0
			// Force the turn if the preferred subtree holds no permitted way.
			if goRight && mask&rangeMask(mid, hi) == 0 {
				goRight = false
			} else if !goRight && mask&rangeMask(lo, mid) == 0 {
				goRight = true
			}
			if goRight {
				node, lo = 2*node+2, mid
			} else {
				node, hi = 2*node+1, mid
			}
		}
		return lo
	case kindFIFO:
		best, bestT := -1, ^uint64(0)
		for w := 0; w < c.numWays; w++ {
			if !mask.Has(w) {
				continue
			}
			if t := c.stamp[base+w]; t < bestT {
				best, bestT = w, t
			}
		}
		if best >= 0 {
			c.present[base+best] = false
		}
		return best
	default: // kindRandom
		// Uniform choice over the permitted ways in ascending order, drawn
		// from the same xorshift64* stream replacement.NewRandom uses.
		m := uint64(mask)
		n := bits.OnesCount64(m)
		r := int(c.rngNext() % uint64(n))
		for ; r > 0; r-- {
			m &= m - 1
		}
		return bits.TrailingZeros64(m)
	}
}

// rangeMask returns the mask permitting ways [lo, hi), without the loop
// replacement.Range pays.
func rangeMask(lo, hi int) replacement.Mask {
	return replacement.All(hi) &^ replacement.All(lo)
}

// rngNext advances the xorshift64* stream (identical to the replacement
// package's random policy).
func (c *Cache) rngNext() uint64 {
	x := c.rngState
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	c.rngState = x
	return x * 0x2545f4914f6cdd1d
}

// invalidateRep notes that (set, way) no longer holds a line.
func (c *Cache) invalidateRep(set, way int) {
	switch c.kind {
	case kindLRU:
		c.stamp[set*c.numWays+way] = 0
	case kindFIFO:
		i := set*c.numWays + way
		c.present[i] = false
		c.stamp[i] = 0
	case kindCustom:
		c.custom.Invalidate(set, way)
	}
}

// resetRep clears all replacement state, as after a whole-cache flush.
func (c *Cache) resetRep() {
	switch c.kind {
	case kindLRU:
		clearU64(c.stamp)
		clearU64(c.clock)
	case kindPLRU:
		clearU64(c.plru)
	case kindFIFO:
		clearU64(c.stamp)
		clearU64(c.clock)
		for i := range c.present {
			c.present[i] = false
		}
	case kindRandom:
		c.rngState = randomSeed
	case kindCustom:
		c.custom.Reset()
	}
}

func clearU64(s []uint64) {
	for i := range s {
		s[i] = 0
	}
}

// ResidentLines returns the number of valid lines currently cached.
func (c *Cache) ResidentLines() int {
	n := 0
	for i := range c.valid {
		if c.valid[i] {
			n++
		}
	}
	return n
}

// ResidentInColumns returns the number of valid lines whose way is inside
// mask; used by tests to verify partition isolation.
func (c *Cache) ResidentInColumns(mask replacement.Mask) int {
	n := 0
	for s := 0; s < c.cfg.NumSets; s++ {
		for w := 0; w < c.numWays; w++ {
			if c.valid[s*c.numWays+w] && mask.Has(w) {
				n++
			}
		}
	}
	return n
}

// LineState is a detached copy of one line's metadata, for external
// inspection of cache contents. Live cache inspection is what makes
// eviction behavior verifiable from outside (cf. arXiv:2007.12271); the
// conformance harness compares these against the reference model line by
// line.
type LineState struct {
	Tag   uint64
	Valid bool
	Dirty bool
	Aux   uint8
}

// LineAt returns a copy of the line metadata at (set, way). It performs no
// replacement-state or statistics updates, so inspecting the cache never
// perturbs the simulation.
func (c *Cache) LineAt(set, way int) LineState {
	i := set*c.numWays + way
	return LineState{Tag: c.tags[i], Valid: c.valid[i], Dirty: c.dirty[i], Aux: c.aux[i]}
}

// AuxAt returns the auxiliary per-line state at (set, way). The cache never
// interprets aux; it belongs to the layer above (a coherence controller
// stores MSI line states here). Aux is zeroed whenever the line is refilled,
// invalidated, or flushed, so stale protocol state cannot survive the line
// it described.
func (c *Cache) AuxAt(set, way int) uint8 { return c.aux[set*c.numWays+way] }

// SetAux stores auxiliary per-line state at (set, way).
func (c *Cache) SetAux(set, way int, v uint8) { c.aux[set*c.numWays+way] = v }

// SetLineDirty overrides the dirty bit at (set, way). A coherence controller
// needs this seam for the M→S downgrade: after an intervention writes the
// modified data back, the local copy stays resident but is clean — a state
// the normal access path can never produce.
func (c *Cache) SetLineDirty(set, way int, dirty bool) {
	c.dirty[set*c.numWays+way] = dirty
}

// HintedWay returns the set's memoized MRU way — the way the next access of
// the set probes first. Exposed for the way-memoization regression tests and
// for inspection tooling; reading it never perturbs the cache.
func (c *Cache) HintedWay(set int) int { return int(c.hint[set]) }

// SetTagOf returns the (set, tag) pair indexing addr, and AddrOfTag inverts
// it; together they let an external controller walk snapshots and translate
// line coordinates back to addresses without duplicating index math.
func (c *Cache) SetTagOf(addr memory.Addr) (set int, tag uint64) {
	return c.setIndex(addr)
}

// AddrOfTag reconstructs the base address of the line with the given tag in
// the given set.
func (c *Cache) AddrOfTag(set int, tag uint64) memory.Addr {
	return memory.Addr(tag)<<c.setShift<<c.lineShift |
		memory.Addr(set)<<c.lineShift
}

// SnapshotSets returns a detached copy of every line's metadata, indexed
// [set][way]. The copy shares nothing with the live cache, so it can be
// held across later accesses or published to another goroutine.
func (c *Cache) SnapshotSets() [][]LineState {
	out := make([][]LineState, c.cfg.NumSets)
	for s := range out {
		out[s] = make([]LineState, c.numWays)
		for w := range out[s] {
			out[s][w] = c.LineAt(s, w)
		}
	}
	return out
}

// SnapshotSetsInto is SnapshotSets writing into dst, reallocating only when
// dst is not shaped for this cache, so repeated captures of the same cache
// (the inspect ring, the conformance harness's per-step content comparison)
// reuse their buffers and are allocation-free at steady state. The filled
// rows share nothing with the live cache.
func (c *Cache) SnapshotSetsInto(dst [][]LineState) [][]LineState {
	if len(dst) != c.cfg.NumSets {
		dst = make([][]LineState, c.cfg.NumSets)
	}
	for s := range dst {
		if len(dst[s]) != c.numWays {
			dst[s] = make([]LineState, c.numWays)
		}
		base := s * c.numWays
		for w := range dst[s] {
			i := base + w
			dst[s][w] = LineState{Tag: c.tags[i], Valid: c.valid[i], Dirty: c.dirty[i], Aux: c.aux[i]}
		}
	}
	return dst
}

// WayOf returns the way where addr currently resides, or -1. Alias for
// Probe for readability at call sites that only need the way.
func (c *Cache) WayOf(addr memory.Addr) int {
	w, ok := c.Probe(addr)
	if !ok {
		return -1
	}
	return w
}
