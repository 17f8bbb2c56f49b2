// Package kernels provides additional embedded-systems workloads beyond the
// paper's MPEG routines — matrix multiply, FIR filtering and histogramming —
// each performing its real computation while recording the address trace of
// every array reference. They exercise layout patterns the MPEG kernels do
// not: blocked 2-D reuse (matmul), sliding-window reuse (fir) and
// data-dependent scatter (histogram).
package kernels

import (
	"colcache/internal/memory"
	"colcache/internal/memtrace"
	"colcache/internal/workloads"
)

// lcg is a small deterministic generator for synthetic inputs.
type lcg uint64

func (l *lcg) next() uint32 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint32(*l >> 33)
}

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

// --- matrix multiply ---------------------------------------------------------

// MatMulConfig sizes C[n×n] = A[n×n] · B[n×n] over int32 elements.
type MatMulConfig struct {
	N    int   // matrix dimension (default 16)
	Seed int64 // input generator seed
}

func (c MatMulConfig) withDefaults() MatMulConfig {
	if c.N <= 0 {
		c.N = 16
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

func matmulInit(cfg MatMulConfig) (a, b, c []int32) {
	n := cfg.N
	rng := lcg(cfg.Seed)
	a = make([]int32, n*n)
	b = make([]int32, n*n)
	c = make([]int32, n*n)
	for i := range a {
		a[i] = int32(rng.next()%64) - 32
		b[i] = int32(rng.next()%64) - 32
	}
	return a, b, c
}

func matmulRun(n int, a, b, c []int32, p probe, aR, bR, cR memory.Region) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var acc int64
			for k := 0; k < n; k++ {
				p.load(aR, uint64(i*n+k)*4)
				p.load(bR, uint64(k*n+j)*4)
				p.think(1)
				acc += int64(a[i*n+k]) * int64(b[k*n+j])
			}
			c[i*n+j] = int32(acc)
			p.store(cR, uint64(i*n+j)*4)
		}
	}
}

// MatMul builds the traced workload. Variables: a (row-major streamed by
// row), b (column-strided — the classic conflict generator), c (written
// once per element).
func MatMul(cfg MatMulConfig) *workloads.Program {
	cfg = cfg.withDefaults()
	n := cfg.N
	env := workloads.NewEnv(0x100000, MatMulAccesses(cfg))
	aR := env.Space.Alloc("a", uint64(n*n)*4, 64)
	bR := env.Space.Alloc("b", uint64(n*n)*4, 64)
	cR := env.Space.Alloc("c", uint64(n*n)*4, 64)
	a, b, c := matmulInit(cfg)
	matmulRun(n, a, b, c, probe{env.Rec}, aR, bR, cR)
	return env.Finish("matmul")
}

// MatMulAccesses is MatMul's trace length: two loads per multiply-add and
// one store per output element, n³·2 + n².
func MatMulAccesses(cfg MatMulConfig) int {
	n := cfg.withDefaults().N
	return workloads.SatMul(workloads.SatMul(n, n), workloads.SatAdd(workloads.SatMul(2, n), 1))
}

// MatMulValues returns the product matrix, computed by the same code path.
func MatMulValues(cfg MatMulConfig) []int32 {
	cfg = cfg.withDefaults()
	a, b, c := matmulInit(cfg)
	matmulRun(cfg.N, a, b, c, probe{}, memory.Region{}, memory.Region{}, memory.Region{})
	return c
}

// --- FIR filter ---------------------------------------------------------------

// FIRConfig sizes y[i] = Σ_t h[t]·x[i+t] over int32 samples.
type FIRConfig struct {
	Samples int   // input length (default 1024)
	Taps    int   // filter length (default 32)
	Seed    int64 // input generator seed
}

func (c FIRConfig) withDefaults() FIRConfig {
	if c.Samples <= 0 {
		c.Samples = 1024
	}
	if c.Taps <= 0 {
		c.Taps = 32
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

func firInit(cfg FIRConfig) (x, h, y []int32) {
	rng := lcg(cfg.Seed + 7)
	x = make([]int32, cfg.Samples)
	h = make([]int32, cfg.Taps)
	y = make([]int32, cfg.Samples-cfg.Taps+1)
	for i := range x {
		x[i] = int32(rng.next()%256) - 128
	}
	for i := range h {
		h[i] = int32(rng.next()%16) - 8
	}
	return x, h, y
}

func firRun(cfg FIRConfig, x, h, y []int32, p probe, xR, hR, yR memory.Region) {
	for i := 0; i < len(y); i++ {
		var acc int64
		for t := 0; t < cfg.Taps; t++ {
			p.load(xR, uint64(i+t)*4)
			p.load(hR, uint64(t)*4)
			p.think(1)
			acc += int64(x[i+t]) * int64(h[t])
		}
		y[i] = int32(acc >> 4)
		p.store(yR, uint64(i)*4)
	}
}

// FIR builds the traced workload. Variables: x (sliding-window reuse —
// each sample read Taps times), h (very hot coefficients), y (streamed
// output).
func FIR(cfg FIRConfig) *workloads.Program {
	cfg = cfg.withDefaults()
	env := workloads.NewEnv(0x200000, FIRAccesses(cfg))
	xR := env.Space.Alloc("x", uint64(cfg.Samples)*4, 64)
	hR := env.Space.Alloc("h", uint64(cfg.Taps)*4, 64)
	yR := env.Space.Alloc("y", uint64(cfg.Samples-cfg.Taps+1)*4, 64)
	x, h, y := firInit(cfg)
	firRun(cfg, x, h, y, probe{env.Rec}, xR, hR, yR)
	return env.Finish("fir")
}

// FIRAccesses is FIR's trace length: per output sample (Samples−Taps+1 of
// them), two loads per tap and one store.
func FIRAccesses(cfg FIRConfig) int {
	cfg = cfg.withDefaults()
	return workloads.SatMul(cfg.Samples-cfg.Taps+1, workloads.SatAdd(workloads.SatMul(2, cfg.Taps), 1))
}

// FIRValues returns the filtered samples, computed by the same code path.
func FIRValues(cfg FIRConfig) []int32 {
	cfg = cfg.withDefaults()
	x, h, y := firInit(cfg)
	firRun(cfg, x, h, y, probe{}, memory.Region{}, memory.Region{}, memory.Region{})
	return y
}

// --- histogram -----------------------------------------------------------------

// HistogramConfig sizes a byte-value histogram over synthetic data.
type HistogramConfig struct {
	Samples int   // input length (default 4096)
	Bins    int   // histogram size (default 256)
	Seed    int64 // input generator seed
}

func (c HistogramConfig) withDefaults() HistogramConfig {
	if c.Samples <= 0 {
		c.Samples = 4096
	}
	if c.Bins <= 0 {
		c.Bins = 256
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

func histInit(cfg HistogramConfig) (data []uint8, bins []int32) {
	rng := lcg(cfg.Seed + 13)
	data = make([]uint8, cfg.Samples)
	for i := range data {
		// Skewed distribution: clustered low values, occasional high ones.
		v := rng.next() % 256
		if v%4 != 0 {
			v %= 64
		}
		data[i] = uint8(v % uint32(cfg.Bins))
	}
	return data, make([]int32, cfg.Bins)
}

func histRun(cfg HistogramConfig, data []uint8, bins []int32, p probe, dR, bR memory.Region) {
	for i := 0; i < len(data); i++ {
		p.load(dR, uint64(i))
		p.think(1)
		bin := uint64(data[i])
		p.load(bR, bin*4)
		bins[data[i]]++
		p.store(bR, bin*4)
	}
}

// Histogram builds the traced workload. Variables: data (streamed input),
// bins (hot read-modify-write scatter — exactly the "high temporal
// locality" data the paper routes to scratchpad).
func Histogram(cfg HistogramConfig) *workloads.Program {
	cfg = cfg.withDefaults()
	env := workloads.NewEnv(0x300000, HistogramAccesses(cfg))
	dR := env.Space.Alloc("data", uint64(cfg.Samples), 64)
	bR := env.Space.Alloc("bins", uint64(cfg.Bins)*4, 64)
	data, bins := histInit(cfg)
	histRun(cfg, data, bins, probe{env.Rec}, dR, bR)
	return env.Finish("histogram")
}

// HistogramAccesses is Histogram's trace length: per sample, a load of the
// sample and a load and store of its bin.
func HistogramAccesses(cfg HistogramConfig) int {
	return workloads.SatMul(3, cfg.withDefaults().Samples)
}

// HistogramValues returns the bin counts, computed by the same code path.
func HistogramValues(cfg HistogramConfig) []int32 {
	cfg = cfg.withDefaults()
	data, bins := histInit(cfg)
	histRun(cfg, data, bins, probe{}, memory.Region{}, memory.Region{})
	return bins
}
