package mpeg

import (
	"colcache/internal/memory"
	"colcache/internal/memtrace"
	"colcache/internal/workloads"
)

// Pipeline builds the three decoder routines as a single streaming
// application with *shared* variables: each macroblock flows dequant →
// idct → plus through one shared coefficient buffer, with a shared
// prediction frame. Unlike the standalone kernels (disjoint variables, used
// by Figure 4), the pipeline's routines contend for the same buffers with
// different companions per phase — the situation the paper's §3.2 dynamic
// layout targets ("if procedures share variables, and the access patterns
// corresponding to these shared variables change from procedure to
// procedure, it is worthwhile to consider remapping").
//
// Per phase, the shared block buffer's hot companion changes:
//
//	dequant: block ↔ qmat        (quantizer matrix)
//	idct:    block ↔ cos, tmp    (basis table, intermediate)
//	plus:    block ↔ pred, clip  (prediction pixels, saturation table)
//
// PipelinePhase carries one routine's trace and variable set, ready for
// layout.BuildDynamic.
type PipelinePhase struct {
	Name string
	Prog *workloads.Program
	Vars []memory.Region
}

// Pipeline generates the three phases over shared buffers. Blocks are
// processed in batches (one phase pass per batch would be the streaming
// formulation; for layout purposes each routine's whole run is one phase,
// as in the paper's procedure-level granularity).
func Pipeline(cfg Config) []PipelinePhase {
	cfg = cfg.withDefaults()
	nb := cfg.IdctBlocks

	// One shared address space for the whole application.
	space := memory.NewSpace(0x10000)
	block := space.Alloc("block", uint64(nb)*64*2, 64) // shared int16 coefficient/pixel stream
	qmat := space.Alloc("qmat", 64*2, 64)              // dequant's table
	qscale := space.Alloc("qscale", uint64(nb)*2, 64)  // per-block scales
	cosT := space.Alloc("cos", 64*4, 64)               // idct's basis
	tmp := space.Alloc("tmp", 64*4, 64)                // idct's intermediate
	pred := space.Alloc("pred", uint64(nb)*64, 64)     // plus's prediction pixels
	clip := space.Alloc("clip", 512, 64)               // plus's saturation table
	allVars := space.Regions()

	// Shared real data.
	dq := dequantInit(Config{DequantBlocks: nb, Seed: cfg.Seed})
	id := idctInit(Config{IdctBlocks: nb, Seed: cfg.Seed})
	pl := plusInit(Config{PlusBlocks: nb, Seed: cfg.Seed})
	// The pipeline operates on one shared block array: seed it with the
	// dequant inputs.
	blockV := dq.coef

	// Each phase records into a recorder sized to its own trace.
	phase := func(name string, perBlock int, run func(probe)) PipelinePhase {
		rec := memtrace.NewRecorder(workloads.SatMul(nb, perBlock))
		run(probe{rec})
		return PipelinePhase{
			Name: name,
			Prog: &workloads.Program{Name: name, Trace: rec.Trace(), Vars: allVars},
			Vars: allVars,
		}
	}
	var phases []PipelinePhase

	// Phase 1: dequant over the shared block buffer.
	phases = append(phases, phase("dequant", DequantAccessesPerBlock, func(p probe) {
		dequantRun(nb, dequantData{qmat: dq.qmat, qscale: dq.qscale, coef: blockV}, p, qmat, qscale, block)
	}))

	// Phase 2: idct in place on the same buffer.
	phases = append(phases, phase("idct", IdctAccessesPerBlock, func(p probe) {
		idctRun(nb, idctData{cos: id.cos, tmp: id.tmp, blocks: blockV}, p, cosT, tmp, block)
	}))

	// Phase 3: plus — add the reconstructed residuals to the prediction.
	phases = append(phases, phase("plus", PlusAccessesPerBlock, func(p probe) {
		plusPipelineRun(nb, pl.pred, blockV, pl.clip, p, pred, block, clip)
	}))
	return phases
}

// plusPipelineRun is the motion-compensation add reading residuals from the
// shared int16 block buffer (rather than a private residual array).
func plusPipelineRun(nb int, predV []uint8, blockV []int16, clipV []uint8, p probe, predR, blockR, clipR memory.Region) {
	for b := 0; b < nb; b++ {
		p.think(4)
		for i := 0; i < 64; i++ {
			off := uint64(b*64 + i)
			p.load(predR, off)
			p.load(blockR, off*2)
			p.think(2)
			idx := int(predV[b*64+i]) + int(blockV[b*64+i]) + 128
			if idx < 0 {
				idx = 0
			} else if idx > 511 {
				idx = 511
			}
			p.load(clipR, uint64(idx))
			predV[b*64+i] = clipV[idx]
			p.store(predR, off)
		}
	}
}
