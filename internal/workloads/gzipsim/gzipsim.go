// Package gzipsim implements the compression workload of the paper's
// multitasking experiment (paper §4.2): the core match-finding loop of a
// gzip/deflate-style LZ77 compressor with hash chains, instrumented to emit
// the memory-reference trace of every array access.
//
// What matters for the experiment is the memory behaviour of the real
// algorithm: a large reused working set (the sliding window plus the hash
// head and chain tables) with good temporal locality that collapses when a
// competing job evicts it between time quanta. The compressor genuinely
// compresses — the tests decompress its output and verify a byte-exact round
// trip — so the trace is the authentic reference stream of the algorithm.
package gzipsim

import (
	"colcache/internal/memory"
	"colcache/internal/memtrace"
	"colcache/internal/workloads"
)

// Config sizes the compressor.
type Config struct {
	// WindowBytes is the input window size (default 16KB).
	WindowBytes int
	// HashBits sizes the head table at 2^HashBits entries (default 11).
	HashBits int
	// MaxChain bounds how many chain links the matcher walks (default 16).
	MaxChain int
	// MinMatch/MaxMatch bound emitted match lengths (defaults 3 and 66).
	MinMatch, MaxMatch int
	// Seed drives the synthetic text generator.
	Seed int64
}

// DefaultConfig gives a ~56KB working set (window + head + prev + output):
// larger than the 16KB cache of Figure 5 and comfortably inside the 128KB
// one, which is what produces the paper's two curve families.
var DefaultConfig = Config{
	WindowBytes: 16 * 1024,
	HashBits:    11,
	MaxChain:    16,
	MinMatch:    3,
	MaxMatch:    66,
	Seed:        1,
}

func (c Config) withDefaults() Config {
	d := DefaultConfig
	if c.WindowBytes > 0 {
		d.WindowBytes = c.WindowBytes
	}
	if c.HashBits > 0 {
		d.HashBits = c.HashBits
	}
	if c.MaxChain > 0 {
		d.MaxChain = c.MaxChain
	}
	if c.MinMatch > 0 {
		d.MinMatch = c.MinMatch
	}
	if c.MaxMatch > 0 {
		d.MaxMatch = c.MaxMatch
	}
	if c.Seed != 0 {
		d.Seed = c.Seed
	}
	return d
}

// Token is one emitted LZ77 symbol: either a literal byte or a
// (distance, length) back-reference.
type Token struct {
	Literal  byte
	Distance int // 0 for a literal
	Length   int // 0 for a literal
}

// SyntheticText fills buf with deterministic pseudo-text built from a small
// vocabulary of words, so the compressor finds realistic match structure.
func SyntheticText(buf []byte, seed int64) {
	words := []string{
		"the", "quick", "column", "cache", "embedded", "memory", "stream",
		"partition", "scratchpad", "replacement", "data", "of", "and", "a",
		"to", "in", "tint", "page", "system", "processor",
	}
	state := uint64(seed)*6364136223846793005 + 1442695040888963407
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 33
	}
	i := 0
	for i < len(buf) {
		w := words[next()%uint64(len(words))]
		for j := 0; j < len(w) && i < len(buf); j++ {
			buf[i] = w[j]
			i++
		}
		if i < len(buf) {
			buf[i] = ' '
			i++
		}
	}
}

type compressor struct {
	cfg                      Config
	window                   []byte
	head                     []int32 // hash -> most recent position, -1 if none
	prev                     []int32 // position -> previous position in chain, -1 if none
	p                        probe
	winR, headR, prevR, outR memory.Region
	outPos                   uint64
	keep                     bool    // collect the token stream (Compress)
	toks                     []Token // the token stream, when keep is set
}

// probe counts every access the compressor makes and records it when it
// has a recorder; a pass without one is the count-only pass that sizes
// Job's trace.
type probe struct {
	rec      *memtrace.Recorder
	accesses int
}

func (p *probe) load(r memory.Region, off uint64) {
	p.accesses++
	if p.rec != nil {
		p.rec.LoadRegion(r, off)
	}
}

func (p *probe) store(r memory.Region, off uint64) {
	p.accesses++
	if p.rec != nil {
		p.rec.StoreRegion(r, off)
	}
}

func (p *probe) think(n int) {
	if p.rec != nil {
		p.rec.Think(n)
	}
}

func (z *compressor) hash(pos int) uint32 {
	// Reads the 3 bytes being hashed.
	z.p.load(z.winR, uint64(pos))
	z.p.load(z.winR, uint64(pos+1))
	z.p.load(z.winR, uint64(pos+2))
	z.p.think(3)
	h := uint32(z.window[pos])<<10 ^ uint32(z.window[pos+1])<<5 ^ uint32(z.window[pos+2])
	return h & (uint32(len(z.head)) - 1)
}

// matchLen compares the candidate at cand against pos, reading both sides.
func (z *compressor) matchLen(pos, cand int) int {
	max := z.cfg.MaxMatch
	if rem := len(z.window) - pos; rem < max {
		max = rem
	}
	n := 0
	for n < max {
		z.p.load(z.winR, uint64(cand+n))
		z.p.load(z.winR, uint64(pos+n))
		z.p.think(1)
		if z.window[cand+n] != z.window[pos+n] {
			break
		}
		n++
	}
	return n
}

func (z *compressor) insert(pos int, h uint32) {
	z.p.load(z.headR, uint64(h)*4)
	z.p.store(z.prevR, uint64(pos)*2)
	z.p.store(z.headR, uint64(h)*4)
	z.p.think(2)
	z.prev[pos] = z.head[h]
	z.head[h] = int32(pos)
}

func (z *compressor) emit(tok Token) {
	if z.keep {
		z.toks = append(z.toks, tok)
	}
	// A literal writes one output byte, a match writes three.
	n := uint64(1)
	if tok.Length > 0 {
		n = 3
	}
	for i := uint64(0); i < n; i++ {
		z.p.store(z.outR, z.outPos)
		z.outPos++
	}
	z.p.think(2)
}

func (z *compressor) run() {
	cfg := z.cfg
	pos := 0
	for pos < len(z.window) {
		if pos+cfg.MinMatch > len(z.window) {
			z.p.load(z.winR, uint64(pos))
			z.emit(Token{Literal: z.window[pos]})
			pos++
			continue
		}
		h := z.hash(pos)
		z.p.load(z.headR, uint64(h)*4)
		cand := z.head[h]
		bestLen, bestDist := 0, 0
		for chain := 0; cand >= 0 && chain < cfg.MaxChain; chain++ {
			z.p.think(2)
			if n := z.matchLen(pos, int(cand)); n > bestLen {
				bestLen, bestDist = n, pos-int(cand)
			}
			z.p.load(z.prevR, uint64(cand)*2)
			cand = z.prev[cand]
		}
		if bestLen >= cfg.MinMatch {
			z.emit(Token{Distance: bestDist, Length: bestLen})
			// Insert every position of the match into the chains, as
			// deflate's lazy loop does.
			end := pos + bestLen
			for ; pos < end && pos+cfg.MinMatch <= len(z.window); pos++ {
				z.insert(pos, z.hash(pos))
			}
			pos = end
		} else {
			z.p.load(z.winR, uint64(pos))
			z.emit(Token{Literal: z.window[pos]})
			z.insert(pos, h)
			pos++
		}
	}
}

func newCompressor(cfg Config, input []byte, rec *memtrace.Recorder, winR, headR, prevR, outR memory.Region) *compressor {
	z := &compressor{
		cfg:    cfg,
		window: input,
		head:   make([]int32, 1<<cfg.HashBits),
		prev:   make([]int32, len(input)),
		p:      probe{rec: rec},
		winR:   winR, headR: headR, prevR: prevR, outR: outR,
	}
	for i := range z.head {
		z.head[i] = -1
	}
	for i := range z.prev {
		z.prev[i] = -1
	}
	return z
}

// Compress runs the LZ77 matcher over input and returns its token stream,
// without recording. Used directly by tests and examples.
func Compress(cfg Config, input []byte) []Token {
	cfg = cfg.withDefaults()
	z := newCompressor(cfg, input, nil, memory.Region{}, memory.Region{}, memory.Region{}, memory.Region{})
	z.keep = true
	z.run()
	return z.toks
}

// Accesses is Job's trace length. It depends on the text being compressed,
// so it is counted by a pass of the compressor that records nothing.
func Accesses(cfg Config) int {
	cfg = cfg.withDefaults()
	return accesses(cfg, syntheticInput(cfg))
}

// MinAccesses bounds Accesses from below without running the compressor,
// so a caller can refuse a window too large to count: every window byte
// costs at least two accesses. A literal is read and stored (nine or more
// accesses when it is hashed and inserted), and a byte inside a match is
// read twice by the comparison that found the match.
func MinAccesses(cfg Config) int {
	return workloads.SatMul(2, cfg.withDefaults().WindowBytes)
}

func accesses(cfg Config, input []byte) int {
	z := newCompressor(cfg, input, nil, memory.Region{}, memory.Region{}, memory.Region{}, memory.Region{})
	z.run()
	return z.p.accesses
}

func syntheticInput(cfg Config) []byte {
	input := make([]byte, cfg.WindowBytes)
	SyntheticText(input, cfg.Seed)
	return input
}

// Decompress expands a token stream back into bytes.
func Decompress(toks []Token) []byte {
	var out []byte
	for _, t := range toks {
		if t.Length == 0 {
			out = append(out, t.Literal)
			continue
		}
		start := len(out) - t.Distance
		for i := 0; i < t.Length; i++ {
			out = append(out, out[start+i])
		}
	}
	return out
}

// Job builds the compression workload as a traced program over synthetic
// text. base places the job's variables, so concurrent jobs get disjoint
// address spaces.
func Job(cfg Config, base memory.Addr) *workloads.Program {
	cfg = cfg.withDefaults()
	input := syntheticInput(cfg)
	return job(cfg, base, input, accesses(cfg, input))
}

// CountedJob is Job for a caller that already holds Accesses(cfg), as n:
// n sizes the trace, and the count-only pass Job runs for it is skipped.
func CountedJob(cfg Config, base memory.Addr, n int) *workloads.Program {
	cfg = cfg.withDefaults()
	return job(cfg, base, syntheticInput(cfg), n)
}

func job(cfg Config, base memory.Addr, input []byte, n int) *workloads.Program {
	env := workloads.NewEnv(base, n)
	// prev entries are 16-bit (window positions fit), as in gzip itself;
	// the hot set (window + head + prev ≈ 56KB at defaults) then fits half
	// of the 128KB cache but not the 16KB one — the Figure 5 contrast.
	win := env.Space.Alloc("window", uint64(cfg.WindowBytes), 64)
	head := env.Space.Alloc("head", uint64(4<<cfg.HashBits), 64)
	prev := env.Space.Alloc("prev", uint64(2*cfg.WindowBytes), 64)
	out := env.Space.Alloc("out", uint64(3*cfg.WindowBytes), 64)

	z := newCompressor(cfg, input, env.Rec, win, head, prev, out)
	z.run()
	return env.Finish("gzip")
}
