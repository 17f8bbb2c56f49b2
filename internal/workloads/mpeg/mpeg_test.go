package mpeg

import (
	"math"
	"math/rand"
	"testing"

	"colcache/internal/memtrace"
)

func TestDefaultWorkingSetSizes(t *testing.T) {
	// The paper's setup: dequant and plus fit a 2KB on-chip memory, idct
	// does not.
	dq := Dequant(Config{})
	pl := Plus(Config{})
	id := Idct(Config{})
	if got := dq.DataBytes(); got > 2048 {
		t.Errorf("dequant footprint %d exceeds 2KB", got)
	}
	if got := pl.DataBytes(); got > 2048 {
		t.Errorf("plus footprint %d exceeds 2KB", got)
	}
	if got := id.DataBytes(); got <= 2048 {
		t.Errorf("idct footprint %d does not exceed 2KB", got)
	}
}

func TestDequantTraceShape(t *testing.T) {
	cfg := Config{DequantBlocks: 2}
	p := Dequant(cfg)
	// Per block: 1 qscale read + 64 × (coef read + qmat read + coef write).
	wantAccesses := 2 * (1 + 64*3)
	if len(p.Trace) != wantAccesses {
		t.Errorf("accesses=%d want %d", len(p.Trace), wantAccesses)
	}
	counts := memtrace.RegionCounts(p.Trace, p.Vars)
	if counts["qmat"] != 2*64 {
		t.Errorf("qmat accesses=%d want 128", counts["qmat"])
	}
	if counts["coef"] != 2*64*2 {
		t.Errorf("coef accesses=%d want 256", counts["coef"])
	}
	if counts[""] != 0 {
		t.Errorf("%d accesses outside declared variables", counts[""])
	}
}

func TestDequantValuesClamped(t *testing.T) {
	vals := DequantValues(Config{})
	var nonzero int
	for _, v := range vals {
		if v > 2047 || v < -2048 {
			t.Fatalf("value %d outside MPEG range", v)
		}
		if v != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Error("dequant produced all zeros")
	}
}

func TestDequantScaling(t *testing.T) {
	// With the same seed, values must be deterministic.
	a := DequantValues(Config{Seed: 7})
	b := DequantValues(Config{Seed: 7})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d", i)
		}
	}
	c := DequantValues(Config{Seed: 8})
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical output")
	}
}

func TestPlusValuesMatchDirectSaturation(t *testing.T) {
	cfg := Config{PlusBlocks: 3, Seed: 5}
	got := PlusValues(cfg)
	// Recompute inputs and saturate directly, without the clip table.
	fresh := plusInit(cfg.withDefaults())
	for i := range got {
		v := int(fresh.pred[i]) + int(fresh.resid[i])
		if v < 0 {
			v = 0
		} else if v > 255 {
			v = 255
		}
		if got[i] != uint8(v) {
			t.Fatalf("pixel %d: got %d want %d", i, got[i], v)
		}
	}
}

func TestPlusTraceShape(t *testing.T) {
	p := Plus(Config{PlusBlocks: 1})
	counts := memtrace.RegionCounts(p.Trace, p.Vars)
	if counts["pred"] != 128 { // 64 reads + 64 writes
		t.Errorf("pred accesses=%d want 128", counts["pred"])
	}
	if counts["resid"] != 64 || counts["clip"] != 64 {
		t.Errorf("resid=%d clip=%d want 64 each", counts["resid"], counts["clip"])
	}
}

// floatIDCT is an independent floating-point reference 2-D IDCT.
func floatIDCT(in []int16) []float64 {
	c := func(k int) float64 {
		if k == 0 {
			return math.Sqrt(0.125)
		}
		return 0.5
	}
	out := make([]float64, 64)
	for x := 0; x < 8; x++ {
		for y := 0; y < 8; y++ {
			var sum float64
			for u := 0; u < 8; u++ {
				for v := 0; v < 8; v++ {
					sum += c(u) * c(v) * float64(in[u*8+v]) *
						math.Cos(float64(2*x+1)*float64(u)*math.Pi/16) *
						math.Cos(float64(2*y+1)*float64(v)*math.Pi/16)
				}
			}
			out[x*8+y] = sum
		}
	}
	return out
}

func TestIdctMatchesFloatReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		block := make([]int16, 64)
		for i := range block {
			if r.Intn(3) == 0 {
				block[i] = int16(r.Intn(256) - 128)
			}
		}
		ref := floatIDCT(block)
		got := make([]int16, 64)
		copy(got, block)
		IdctTransform(got)
		for i := range ref {
			want := ref[i]
			if want > 255 {
				want = 255
			} else if want < -256 {
				want = -256
			}
			if math.Abs(float64(got[i])-want) > 2.0 {
				t.Fatalf("trial %d elem %d: fixed=%d float=%.2f", trial, i, got[i], want)
			}
		}
	}
}

func TestIdctDCOnly(t *testing.T) {
	// A pure DC block must transform to a flat block of DC/8.
	block := make([]int16, 64)
	block[0] = 800
	IdctTransform(block)
	want := int16(100)
	for i, v := range block {
		if v < want-1 || v > want+1 {
			t.Fatalf("elem %d = %d want ~%d", i, v, want)
		}
	}
}

func TestIdctTraceShape(t *testing.T) {
	p := Idct(Config{IdctBlocks: 1})
	counts := memtrace.RegionCounts(p.Trace, p.Vars)
	// Row pass: 64 outputs × 8 (block+cos reads) + 64 tmp writes.
	// Col pass: 64 outputs × 8 (tmp+cos reads) + 64 block writes.
	if counts["cos"] != 2*64*8 {
		t.Errorf("cos accesses=%d want 1024", counts["cos"])
	}
	if counts["tmp"] != 64+64*8 {
		t.Errorf("tmp accesses=%d want %d", counts["tmp"], 64+64*8)
	}
	if counts["blocks"] != 64*8+64 {
		t.Errorf("blocks accesses=%d want %d", counts["blocks"], 64*8+64)
	}
}

func TestIdctValuesDeterministic(t *testing.T) {
	a := IdctValues(Config{IdctBlocks: 2, Seed: 9})
	b := IdctValues(Config{IdctBlocks: 2, Seed: 9})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d", i)
		}
	}
}

func TestConfigOverrides(t *testing.T) {
	cfg := Config{DequantBlocks: 3}.withDefaults()
	if cfg.DequantBlocks != 3 {
		t.Errorf("override lost: %d", cfg.DequantBlocks)
	}
	if cfg.PlusBlocks != DefaultConfig.PlusBlocks || cfg.Seed != DefaultConfig.Seed {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

func TestProgramVarLookup(t *testing.T) {
	p := Dequant(Config{})
	if _, ok := p.Var("qmat"); !ok {
		t.Error("qmat missing")
	}
	if _, ok := p.Var("nope"); ok {
		t.Error("phantom variable found")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustVar did not panic")
		}
	}()
	p.MustVar("nope")
}

func TestPipelinePhases(t *testing.T) {
	phases := Pipeline(Config{IdctBlocks: 4})
	if len(phases) != 3 {
		t.Fatalf("phases=%d", len(phases))
	}
	names := []string{"dequant", "idct", "plus"}
	for i, ph := range phases {
		if ph.Name != names[i] {
			t.Errorf("phase %d = %s want %s", i, ph.Name, names[i])
		}
		if len(ph.Prog.Trace) == 0 {
			t.Errorf("phase %s has empty trace", ph.Name)
		}
		counts := memtrace.RegionCounts(ph.Prog.Trace, ph.Vars)
		if counts[""] != 0 {
			t.Errorf("phase %s: %d accesses outside variables", ph.Name, counts[""])
		}
		// Every phase touches the shared block buffer.
		if counts["block"] == 0 {
			t.Errorf("phase %s never touches the shared block buffer", ph.Name)
		}
	}
	// The phase-specific companions appear only in their phase.
	c0 := memtrace.RegionCounts(phases[0].Prog.Trace, phases[0].Vars)
	c1 := memtrace.RegionCounts(phases[1].Prog.Trace, phases[1].Vars)
	c2 := memtrace.RegionCounts(phases[2].Prog.Trace, phases[2].Vars)
	if c0["qmat"] == 0 || c0["cos"] != 0 || c0["pred"] != 0 {
		t.Errorf("dequant companions wrong: %v", c0)
	}
	if c1["cos"] == 0 || c1["qmat"] != 0 {
		t.Errorf("idct companions wrong: %v", c1)
	}
	if c2["pred"] == 0 || c2["clip"] == 0 || c2["cos"] != 0 {
		t.Errorf("plus companions wrong: %v", c2)
	}
}

func TestPipelineTracesIndependent(t *testing.T) {
	// snapshot must prevent the recorder's Reset from aliasing phases.
	phases := Pipeline(Config{IdctBlocks: 2})
	a0 := phases[0].Prog.Trace[0]
	if phases[1].Prog.Trace[0] == a0 && phases[2].Prog.Trace[0] == a0 {
		t.Error("phase traces alias each other")
	}
}

// TestAccessesPerBlock pins each kernel's fixed per-block access count,
// and the default idct trace the service's serve mix generates.
func TestAccessesPerBlock(t *testing.T) {
	if DequantAccessesPerBlock != 193 || PlusAccessesPerBlock != 256 || IdctAccessesPerBlock != 2176 {
		t.Fatalf("per-block accesses: dequant %d, plus %d, idct %d; want 193, 256, 2176",
			DequantAccessesPerBlock, PlusAccessesPerBlock, IdctAccessesPerBlock)
	}
	if n := len(Idct(Config{}).Trace); n != 52224 || IdctAccesses(Config{}) != n {
		t.Fatalf("default idct: %d accesses, counted %d; want 52224", n, IdctAccesses(Config{}))
	}
}
