package vm

import (
	"fmt"
	"math/rand"
	"testing"

	"colcache/internal/memory"
	"colcache/internal/tint"
)

// Regression tests for the translation index. Its slots are hints,
// validated per use, and no mutation path touches them, so every path that
// could leave a slot stale — FlushPage, FlushAll, SetASID, a Retint, an
// eviction — must still end in a miss, or a flushed/retinted/foreign-ASID
// translation would keep hitting. The differential test below drives the
// TLB against a plain-scan reference over random mixes of all of them.

func smallTLB(t *testing.T) (*PageTable, *TLB) {
	t.Helper()
	g := memory.MustGeometry(32, 4096)
	pt := NewPageTable(g)
	tlb, err := NewTLB(TLBConfig{Entries: 4, Ways: 4}, pt)
	if err != nil {
		t.Fatal(err)
	}
	return pt, tlb
}

func TestMemoHitCounts(t *testing.T) {
	_, tlb := smallTLB(t)
	addr := memory.Addr(0x1000)
	tlb.Lookup(addr) // miss + install
	tlb.Lookup(addr) // index hit
	tlb.Lookup(addr + 4)
	st := tlb.Stats()
	if st.Accesses != 3 || st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("stats %+v, want 3 accesses / 1 miss / 2 hits", st)
	}
}

func TestMemoDroppedByFlushPage(t *testing.T) {
	_, tlb := smallTLB(t)
	addr := memory.Addr(0x2000)
	tlb.Lookup(addr)
	if !tlb.FlushPage(uint64(addr) >> 12) {
		t.Fatal("FlushPage missed the installed entry")
	}
	if _, hit := tlb.Lookup(addr); hit {
		t.Fatal("index fabricated a hit after FlushPage")
	}
}

func TestMemoDroppedByFlushAll(t *testing.T) {
	_, tlb := smallTLB(t)
	addr := memory.Addr(0x3000)
	tlb.Lookup(addr)
	tlb.FlushAll()
	if _, hit := tlb.Lookup(addr); hit {
		t.Fatal("index fabricated a hit after FlushAll")
	}
}

func TestMemoDroppedBySetASID(t *testing.T) {
	_, tlb := smallTLB(t)
	addr := memory.Addr(0x4000)
	tlb.Lookup(addr)
	tlb.SetASID(7)
	if _, hit := tlb.Lookup(addr); hit {
		t.Fatal("index leaked a translation across an ASID switch")
	}
	// And back: the original ASID's entry is still resident, though its
	// index slot now points at ASID 7's copy.
	tlb.SetASID(0)
	if _, hit := tlb.Lookup(addr); !hit {
		t.Fatal("original ASID's entry lost across the round trip")
	}
}

func TestMemoObservesRetint(t *testing.T) {
	pt, tlb := smallTLB(t)
	addr := memory.Addr(0x5000)
	pte, _ := tlb.Lookup(addr)
	if pte.Tint != 0 {
		t.Fatalf("fresh page tint %d, want 0", pte.Tint)
	}
	tlb.Lookup(addr) // index hit
	if n := Retint(pt, tlb, addr, 4096, tint.Tint(3)); n != 1 {
		t.Fatalf("Retint rewrote %d pages, want 1", n)
	}
	pte, hit := tlb.Lookup(addr)
	if hit {
		t.Fatal("retinted page still hit in the TLB")
	}
	if pte.Tint != 3 {
		t.Fatalf("post-retint tint %d, want 3 — the index served a stale PTE", pte.Tint)
	}
}

func TestMemoFollowsEviction(t *testing.T) {
	g := memory.MustGeometry(32, 4096)
	pt := NewPageTable(g)
	tlb, err := NewTLB(TLBConfig{Entries: 2, Ways: 2}, pt)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := memory.Addr(0x1000), memory.Addr(0x2000), memory.Addr(0x3000)
	tlb.Lookup(a)
	tlb.Lookup(b) // TLB full
	tlb.Lookup(c) // evicts a (LRU) and reuses its entry for c
	if _, hit := tlb.Lookup(c); !hit {
		t.Fatal("freshly installed entry missed")
	}
	if _, hit := tlb.Lookup(a); hit {
		t.Fatal("evicted page still hit")
	}
}

// refTLB is the reference the index is checked against: the same
// set-associative TLB with LRU replacement, found by a plain scan of the
// set on every lookup and counting every event directly.
type refTLB struct {
	pt    *PageTable
	shift uint
	sets  [][]tlbEntry
	asid  uint16
	clock uint64
	stats TLBStats
}

func newRefTLB(cfg TLBConfig, pt *PageTable) *refTLB {
	r := &refTLB{pt: pt, shift: memory.Log2(pt.Geometry().PageBytes)}
	r.sets = make([][]tlbEntry, cfg.Entries/cfg.Ways)
	for i := range r.sets {
		r.sets[i] = make([]tlbEntry, cfg.Ways)
	}
	return r
}

func (r *refTLB) set(pn uint64) []tlbEntry { return r.sets[pn%uint64(len(r.sets))] }

func (r *refTLB) Lookup(addr memory.Addr) (PTE, bool) {
	pn := addr >> r.shift
	r.clock++
	r.stats.Accesses++
	set := r.set(pn)
	for i := range set {
		if set[i].valid && set[i].pn == pn && set[i].asid == r.asid {
			set[i].stamp = r.clock
			r.stats.Hits++
			return set[i].pte, true
		}
	}
	r.stats.Misses++
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].stamp < set[victim].stamp {
			victim = i
		}
	}
	pte := r.pt.LookupPage(pn)
	set[victim] = tlbEntry{pn: pn, asid: r.asid, pte: pte, valid: true, stamp: r.clock}
	return pte, false
}

func (r *refTLB) FlushPage(pn uint64) bool {
	any := false
	set := r.set(pn)
	for i := range set {
		if set[i].valid && set[i].pn == pn {
			set[i].valid = false
			r.stats.Flushes++
			any = true
		}
	}
	return any
}

func (r *refTLB) FlushAll() {
	for _, set := range r.sets {
		for i := range set {
			set[i].valid = false
		}
	}
	r.stats.Flushes++
}

// indexPagePool returns pages that share index slots (several pages per
// slot), share TLB sets, and sit far apart, so a random mix exercises
// stale and foreign slots as well as plain hits.
func indexPagePool(rng *rand.Rand) []uint64 {
	var pool []uint64
	// Pages colliding in the index: scan for several sharing each of two
	// slots.
	for slot := range uint64(2) {
		n := 0
		for pn := uint64(0); n < 5; pn++ {
			if indexHash(pn) == slot {
				pool = append(pool, pn)
				n++
			}
		}
	}
	// A run of neighbours (every set), and pages in distant windows.
	for pn := uint64(100); pn < 120; pn++ {
		pool = append(pool, pn)
	}
	for range 10 {
		pool = append(pool, uint64(rng.Intn(4))<<20|uint64(rng.Intn(64)))
	}
	return pool
}

// TestTLBIndexMatchesReference drives the TLB and the plain-scan reference
// with the same random mix of lookups, page and full flushes, ASID
// switches and retints, and requires the same (PTE, hit) on every call and
// the same statistics at the end.
func TestTLBIndexMatchesReference(t *testing.T) {
	const pageBytes = 4096
	geo := memory.MustGeometry(32, pageBytes)
	for _, cfg := range []TLBConfig{
		{Entries: 64, Ways: 64}, // fully associative
		{Entries: 64, Ways: 16},
		{Entries: 64, Ways: 4},
		{Entries: 8, Ways: 2},
	} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			pool := indexPagePool(rng)
			ptA, ptB := NewPageTable(geo), NewPageTable(geo)
			tlb := MustNewTLB(cfg, ptA)
			ref := newRefTLB(cfg, ptB)
			for step := range 20000 {
				pn := pool[rng.Intn(len(pool))]
				where := fmt.Sprintf("%d-entry %d-way TLB, seed %d, step %d", cfg.Entries, cfg.Ways, seed, step)
				switch op := rng.Intn(100); {
				case op < 88:
					addr := memory.Addr(pn*pageBytes + uint64(rng.Intn(pageBytes)))
					pte, hit := tlb.Lookup(addr)
					wantPTE, wantHit := ref.Lookup(addr)
					if pte != wantPTE || hit != wantHit {
						t.Fatalf("%s: Lookup(%#x) = %+v, %v; reference %+v, %v", where, addr, pte, hit, wantPTE, wantHit)
					}
				case op < 92:
					if got, want := tlb.FlushPage(pn), ref.FlushPage(pn); got != want {
						t.Fatalf("%s: FlushPage(%d) = %v, reference %v", where, pn, got, want)
					}
				case op < 93:
					tlb.FlushAll()
					ref.FlushAll()
				case op < 98:
					id := uint16(rng.Intn(3))
					tlb.SetASID(id)
					ref.asid = id
				default:
					id := tint.Tint(rng.Intn(4))
					got := Retint(ptA, tlb, memory.Addr(pn*pageBytes), pageBytes, id)
					changed := ptB.SetTintRange(memory.Addr(pn*pageBytes), pageBytes, id)
					for _, c := range changed {
						ref.FlushPage(c)
					}
					if got != len(changed) {
						t.Fatalf("%s: Retint rewrote %d pages, reference %d", where, got, len(changed))
					}
				}
			}
			if got := tlb.Stats(); got != ref.stats {
				t.Fatalf("%d-entry %d-way TLB, seed %d: stats %+v, reference %+v", cfg.Entries, cfg.Ways, seed, got, ref.stats)
			}
		}
	}
}

// BenchmarkTLBLookup times Lookup on two patterns. same-page stays on one
// page, the index's best case. regions is fig5's: three address spaces of
// four regions each, switching region on every access and walking each
// region a word at a time, so consecutive lookups never share a page.
func BenchmarkTLBLookup(b *testing.B) {
	const pageBytes = 4096
	same := make([]memory.Addr, 4096)
	for i := range same {
		same[i] = 0x10000 + memory.Addr(i%1024)*4
	}
	regions := make([]memory.Addr, 1<<16)
	for i := range regions {
		space, region, step := i%3, (i/3)%4, i/12
		regions[i] = memory.Addr(space)<<32 + memory.Addr(region)*(64<<10) + memory.Addr(step*4%(32<<10))
	}
	for _, bc := range []struct {
		name  string
		addrs []memory.Addr
	}{{"same-page", same}, {"regions", regions}} {
		b.Run(bc.name, func(b *testing.B) {
			tlb := MustNewTLB(DefaultTLBConfig, NewPageTable(memory.MustGeometry(32, pageBytes)))
			for _, a := range bc.addrs {
				tlb.Lookup(a)
			}
			for b.Loop() {
				for _, a := range bc.addrs {
					tlb.Lookup(a)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(bc.addrs)), "ns/lookup")
		})
	}
}
