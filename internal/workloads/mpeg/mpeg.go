// Package mpeg implements the paper's embedded benchmark: the three main
// routines of an MPEG decoder — dequant, plus and idct — instrumented to
// emit the memory-reference trace of every array access (paper §4.1,
// following Panda, Dutt and Nicolau's benchmark choice).
//
// The kernels do the real arithmetic: dequant performs MPEG-2 style inverse
// quantization, plus performs the saturating pixel addition of motion
// compensation, and idct computes a genuine fixed-point 2-D 8×8 inverse DCT
// (verified in the tests against a floating-point reference). Data sizes
// follow the paper's setup: dequant and plus have working sets that fit a
// 2KB on-chip memory, while idct's data structures exceed 2KB so it cannot
// live entirely in scratchpad.
//
// Each kernel runs through a single code path whether or not it is
// recording: the trace-producing entry points pass a recorder, the
// *Values reference entry points pass nil, so the verified arithmetic is
// exactly the arithmetic that produced the trace.
package mpeg

import (
	"math"

	"colcache/internal/memory"
	"colcache/internal/memtrace"
	"colcache/internal/workloads"
)

// Config sizes the kernels.
type Config struct {
	// DequantBlocks is the number of 8×8 coefficient blocks dequant
	// processes (default 12: ~1.8KB working set, fits in 2KB).
	DequantBlocks int
	// PlusBlocks is the number of 8×8 pixel blocks plus adds
	// (default 8: 512B pixels + 1KB residuals + 512B clip table = 2KB).
	PlusBlocks int
	// IdctBlocks is the number of 8×8 blocks idct transforms
	// (default 24: 3KB of coefficients + tables, exceeding 2KB).
	IdctBlocks int
	// Seed makes the synthetic coefficient data deterministic.
	Seed int64
}

// DefaultConfig reproduces the paper's working-set relationships for a 2KB,
// 4-column on-chip memory.
var DefaultConfig = Config{DequantBlocks: 12, PlusBlocks: 8, IdctBlocks: 24, Seed: 1}

func (c Config) withDefaults() Config {
	d := DefaultConfig
	if c.DequantBlocks > 0 {
		d.DequantBlocks = c.DequantBlocks
	}
	if c.PlusBlocks > 0 {
		d.PlusBlocks = c.PlusBlocks
	}
	if c.IdctBlocks > 0 {
		d.IdctBlocks = c.IdctBlocks
	}
	if c.Seed != 0 {
		d.Seed = c.Seed
	}
	return d
}

// Each kernel makes a fixed number of accesses per 8×8 block, so a trace's
// length is that number times the block count.
const (
	// DequantAccessesPerBlock: the block's qscale, then per coefficient
	// a load of it, a load of its qmat entry and a store of it.
	DequantAccessesPerBlock = 1 + 64*3
	// PlusAccessesPerBlock: per pixel, loads of its prediction, residual
	// and clip entry and a store of the prediction.
	PlusAccessesPerBlock = 64 * 4
	// IdctAccessesPerBlock: two passes of 64 outputs, each eight pairs of
	// loads and one store.
	IdctAccessesPerBlock = 2 * 64 * (8*2 + 1)
)

// DequantAccesses is Dequant's trace length.
func DequantAccesses(cfg Config) int {
	return workloads.SatMul(cfg.withDefaults().DequantBlocks, DequantAccessesPerBlock)
}

// PlusAccesses is Plus's trace length.
func PlusAccesses(cfg Config) int {
	return workloads.SatMul(cfg.withDefaults().PlusBlocks, PlusAccessesPerBlock)
}

// IdctAccesses is Idct's trace length.
func IdctAccesses(cfg Config) int {
	return workloads.SatMul(cfg.withDefaults().IdctBlocks, IdctAccessesPerBlock)
}

// lcg is a small deterministic generator for synthetic coefficients.
type lcg uint64

func (l *lcg) next() uint32 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint32(*l >> 33)
}

// probe wraps an optional recorder; all kernel memory references go through
// it so the recorded and unrecorded paths are identical.
type probe struct{ rec *memtrace.Recorder }

func (p probe) load(r memory.Region, off uint64) {
	if p.rec != nil {
		p.rec.LoadRegion(r, off)
	}
}

func (p probe) store(r memory.Region, off uint64) {
	if p.rec != nil {
		p.rec.StoreRegion(r, off)
	}
}

func (p probe) think(n int) {
	if p.rec != nil {
		p.rec.Think(n)
	}
}

// --- dequant ---------------------------------------------------------------

type dequantData struct {
	qmat   []int16
	qscale []int16
	coef   []int16
}

func dequantInit(cfg Config) dequantData {
	nb := cfg.DequantBlocks
	rng := lcg(cfg.Seed)
	d := dequantData{
		qmat:   make([]int16, 64),
		qscale: make([]int16, nb),
		coef:   make([]int16, nb*64),
	}
	for i := range d.qmat {
		d.qmat[i] = int16(8 + rng.next()%32)
	}
	for i := range d.qscale {
		d.qscale[i] = int16(1 + rng.next()%31)
	}
	for i := range d.coef {
		d.coef[i] = int16(rng.next()%512) - 256
	}
	return d
}

func dequantRun(nb int, d dequantData, p probe, qmatR, qscaleR, coefR memory.Region) {
	for b := 0; b < nb; b++ {
		p.think(4) // loop setup, pointer arithmetic
		p.load(qscaleR, uint64(b)*2)
		qs := int32(d.qscale[b])
		for i := 0; i < 64; i++ {
			off := uint64(b*64+i) * 2
			p.load(coefR, off)
			p.load(qmatR, uint64(i)*2)
			p.think(3) // multiply, shift, clamp
			v := (2 * int32(d.coef[b*64+i]) * int32(d.qmat[i]) * qs) / 32
			if v > 2047 {
				v = 2047
			} else if v < -2048 {
				v = -2048
			}
			d.coef[b*64+i] = int16(v)
			p.store(coefR, off)
		}
	}
}

// Dequant builds the inverse-quantization routine: every coefficient is
// read, scaled by the quantizer matrix entry and the block's quantizer
// scale, clamped to the MPEG range, and written back in place.
//
// Variables: qmat (128B, hot — read once per coefficient), qscale (one
// 16-bit scale per block), coef (blocks×128B, each element read and written
// once).
func Dequant(cfg Config) *workloads.Program {
	cfg = cfg.withDefaults()
	nb := cfg.DequantBlocks
	env := workloads.NewEnv(0x10000, DequantAccesses(cfg))
	qmat := env.Space.Alloc("qmat", 64*2, 64)
	qscale := env.Space.Alloc("qscale", uint64(nb)*2, 64)
	coef := env.Space.Alloc("coef", uint64(nb)*64*2, 64)
	dequantRun(nb, dequantInit(cfg), probe{env.Rec}, qmat, qscale, coef)
	return env.Finish("dequant")
}

// DequantValues returns the dequantized coefficients, computed by the same
// code path Dequant records.
func DequantValues(cfg Config) []int16 {
	cfg = cfg.withDefaults()
	d := dequantInit(cfg)
	dequantRun(cfg.DequantBlocks, d, probe{}, memory.Region{}, memory.Region{}, memory.Region{})
	return d.coef
}

// --- plus ------------------------------------------------------------------

type plusData struct {
	pred  []uint8
	resid []int16
	clip  []uint8
}

func plusInit(cfg Config) plusData {
	nb := cfg.PlusBlocks
	rng := lcg(cfg.Seed + 2)
	d := plusData{
		pred:  make([]uint8, nb*64),
		resid: make([]int16, nb*64),
		clip:  make([]uint8, 512),
	}
	for i := range d.pred {
		d.pred[i] = uint8(rng.next())
	}
	for i := range d.resid {
		d.resid[i] = int16(rng.next()%256) - 128
	}
	for i := range d.clip {
		v := i - 128 // clip maps index [0,511] ~ value [-128, 383] to [0,255]
		if v < 0 {
			v = 0
		} else if v > 255 {
			v = 255
		}
		d.clip[i] = uint8(v)
	}
	return d
}

func plusRun(nb int, d plusData, p probe, predR, residR, clipR memory.Region) {
	for b := 0; b < nb; b++ {
		p.think(4)
		for i := 0; i < 64; i++ {
			off := uint64(b*64 + i)
			p.load(predR, off)
			p.load(residR, off*2)
			p.think(2) // index computation
			idx := int(d.pred[b*64+i]) + int(d.resid[b*64+i]) + 128
			if idx < 0 {
				idx = 0
			} else if idx > 511 {
				idx = 511
			}
			p.load(clipR, uint64(idx))
			d.pred[b*64+i] = d.clip[idx]
			p.store(predR, off)
		}
	}
}

// Plus builds the motion-compensation addition routine: each output pixel is
// the saturating sum of a prediction pixel and a residual, computed through
// a clip lookup table as reference MPEG decoders do. Output overwrites the
// prediction in place.
//
// Variables: pred (blocks×64B), resid (blocks×128B), clip (512B, hot).
func Plus(cfg Config) *workloads.Program {
	cfg = cfg.withDefaults()
	nb := cfg.PlusBlocks
	env := workloads.NewEnv(0x20000, PlusAccesses(cfg))
	pred := env.Space.Alloc("pred", uint64(nb)*64, 64)
	resid := env.Space.Alloc("resid", uint64(nb)*64*2, 64)
	clip := env.Space.Alloc("clip", 512, 64)
	plusRun(nb, plusInit(cfg), probe{env.Rec}, pred, resid, clip)
	return env.Finish("plus")
}

// PlusValues returns the saturated pixel sums, computed by the same code
// path Plus records.
func PlusValues(cfg Config) []uint8 {
	cfg = cfg.withDefaults()
	d := plusInit(cfg)
	plusRun(cfg.PlusBlocks, d, probe{}, memory.Region{}, memory.Region{}, memory.Region{})
	return d.pred
}

// --- idct ------------------------------------------------------------------

// idctCos returns the fixed-point IDCT basis table C[k][n] =
// c(k)·cos((2n+1)kπ/16) scaled by 2^11, where c(0)=√⅛ and c(k>0)=½.
func idctCos() []int32 {
	t := make([]int32, 64)
	for k := 0; k < 8; k++ {
		ck := 0.5
		if k == 0 {
			ck = math.Sqrt(0.125)
		}
		for n := 0; n < 8; n++ {
			t[k*8+n] = int32(math.Round(ck * math.Cos(float64(2*n+1)*float64(k)*math.Pi/16) * 2048))
		}
	}
	return t
}

type idctData struct {
	cos    []int32
	tmp    []int32
	blocks []int16
}

func idctInit(cfg Config) idctData {
	nb := cfg.IdctBlocks
	rng := lcg(cfg.Seed + 3)
	d := idctData{cos: idctCos(), tmp: make([]int32, 64), blocks: make([]int16, nb*64)}
	for i := range d.blocks {
		// Sparse-ish coefficient blocks, like real DCT output.
		if rng.next()%4 == 0 {
			d.blocks[i] = int16(rng.next()%512) - 256
		}
	}
	return d
}

func idctRun(nb int, d idctData, p probe, cosR, tmpR, blocksR memory.Region) {
	for b := 0; b < nb; b++ {
		p.think(6)
		base := b * 64
		// Row pass: tmp[r][c] = Σ_k block[r][k]·cos[k][c].
		for r := 0; r < 8; r++ {
			for c := 0; c < 8; c++ {
				var acc int64
				for k := 0; k < 8; k++ {
					p.load(blocksR, uint64(base+r*8+k)*2)
					p.load(cosR, uint64(k*8+c)*4)
					p.think(1) // multiply-accumulate
					acc += int64(d.blocks[base+r*8+k]) * int64(d.cos[k*8+c])
				}
				// Keep 3 fractional bits through the intermediate and
				// round, for accuracy against the float reference.
				d.tmp[r*8+c] = int32((acc + 1<<7) >> 8)
				p.store(tmpR, uint64(r*8+c)*4)
			}
		}
		// Column pass: block[r][c] = Σ_k tmp[k][c]·cos[k][r], clamped.
		for c := 0; c < 8; c++ {
			for r := 0; r < 8; r++ {
				var acc int64
				for k := 0; k < 8; k++ {
					p.load(tmpR, uint64(k*8+c)*4)
					p.load(cosR, uint64(k*8+r)*4)
					p.think(1)
					acc += int64(d.tmp[k*8+c]) * int64(d.cos[k*8+r])
				}
				v := (acc + 1<<13) >> 14
				if v > 255 {
					v = 255
				} else if v < -256 {
					v = -256
				}
				d.blocks[base+r*8+c] = int16(v)
				p.store(blocksR, uint64(base+r*8+c)*2)
			}
		}
	}
}

// Idct builds the 2-D inverse DCT routine: a row pass into a 32-bit
// intermediate followed by a column pass back into the coefficient array,
// both reading the shared fixed-point cosine table.
//
// Variables: cos (256B, very hot — read 8 times per output element),
// tmp (256B, hot), blocks (blocks×128B, streaming).
func Idct(cfg Config) *workloads.Program {
	cfg = cfg.withDefaults()
	nb := cfg.IdctBlocks
	env := workloads.NewEnv(0x40000, IdctAccesses(cfg))
	cosT := env.Space.Alloc("cos", 64*4, 64)
	tmp := env.Space.Alloc("tmp", 64*4, 64)
	blocks := env.Space.Alloc("blocks", uint64(nb)*64*2, 64)
	idctRun(nb, idctInit(cfg), probe{env.Rec}, cosT, tmp, blocks)
	return env.Finish("idct")
}

// IdctValues returns the transformed blocks, computed by the same code path
// Idct records.
func IdctValues(cfg Config) []int16 {
	cfg = cfg.withDefaults()
	d := idctInit(cfg)
	idctRun(cfg.IdctBlocks, d, probe{}, memory.Region{}, memory.Region{}, memory.Region{})
	return d.blocks
}

// IdctTransform applies the same fixed-point 2-D IDCT to one 8×8 block in
// place; the tests compare it against a floating-point reference IDCT.
func IdctTransform(block []int16) {
	d := idctData{cos: idctCos(), tmp: make([]int32, 64), blocks: block}
	idctRun(1, d, probe{}, memory.Region{}, memory.Region{}, memory.Region{})
}
