package workloads_test

import (
	"fmt"
	"math"
	"testing"

	"colcache/internal/memtrace"
	"colcache/internal/workloads"
	"colcache/internal/workloads/gzipsim"
	"colcache/internal/workloads/kernels"
	"colcache/internal/workloads/mpeg"
	"colcache/internal/workloads/synth"
)

// countCase is one generator run at one knob setting, with the access
// count its package computes from the same knobs.
type countCase struct {
	name  string
	count int
	trace func() memtrace.Trace
}

func generatorCases() []countCase {
	var cases []countCase
	add := func(count int, trace func() memtrace.Trace, format string, args ...any) {
		cases = append(cases, countCase{fmt.Sprintf(format, args...), count, trace})
	}
	for _, size := range []uint64{0, 1, 3, 4, 5, 1000, 4099} {
		for _, elem := range []int{1, 3, 4, 8} {
			for _, passes := range []int{-1, 0, 1, 3, 300} {
				add(synth.StreamAccesses(size, elem, passes),
					func() memtrace.Trace { return synth.Stream(0, size, elem, passes).Trace },
					"stream size=%d elem=%d passes=%d", size, elem, passes)
				add(synth.StreamAccesses(size, elem, passes),
					func() memtrace.Trace { return synth.WriteSweep(0, size, elem, passes).Trace },
					"writesweep size=%d elem=%d passes=%d", size, elem, passes)
			}
		}
	}
	for _, size := range []uint64{0, 1, 63, 64, 65, 4097} {
		for _, stride := range []uint64{1, 64, 100} {
			for _, passes := range []int{0, 1, 7, 300} {
				add(synth.StridedAccesses(size, stride, passes),
					func() memtrace.Trace { return synth.Strided(0, size, stride, passes).Trace },
					"strided size=%d stride=%d passes=%d", size, stride, passes)
			}
		}
	}
	for _, n := range []int{-3, 0, 1, 17, 5000} {
		add(synth.RandomAccesses(n),
			func() memtrace.Trace { return synth.Random(0, 4096, n, 7).Trace }, "random n=%d", n)
		add(synth.PointerChaseAccesses(n),
			func() memtrace.Trace { return synth.PointerChase(0, 16, 64, n, 7).Trace }, "chase hops=%d", n)
	}
	for _, region := range []uint64{1, 100, 4096} {
		for _, phases := range []int{0, 1, 3} {
			for _, passes := range []int{0, 1, 2} {
				for _, touches := range []int{0, 5} {
					for _, line := range []int{32, 64} {
						add(synth.PhaseShiftAccesses(region, phases, passes, touches, line),
							func() memtrace.Trace {
								return synth.PhaseShift(0, region, phases, passes, touches, line, 7).Trace
							},
							"phaseshift region=%d phases=%d passes=%d touches=%d line=%d",
							region, phases, passes, touches, line)
					}
				}
			}
		}
	}
	for _, n := range []int{0, 1, 3, 7} {
		cfg := kernels.MatMulConfig{N: n}
		add(kernels.MatMulAccesses(cfg), func() memtrace.Trace { return kernels.MatMul(cfg).Trace }, "matmul %+v", cfg)
	}
	for _, st := range [][2]int{{0, 0}, {1, 1}, {5, 5}, {33, 32}, {100, 7}, {0, 5}} {
		cfg := kernels.FIRConfig{Samples: st[0], Taps: st[1]}
		add(kernels.FIRAccesses(cfg), func() memtrace.Trace { return kernels.FIR(cfg).Trace }, "fir %+v", cfg)
	}
	for _, samples := range []int{0, 1, 99} {
		for _, bins := range []int{0, 1, 7} {
			cfg := kernels.HistogramConfig{Samples: samples, Bins: bins}
			add(kernels.HistogramAccesses(cfg), func() memtrace.Trace { return kernels.Histogram(cfg).Trace }, "histogram %+v", cfg)
		}
	}
	for _, nb := range []int{0, 1, 3} {
		cfg := mpeg.Config{DequantBlocks: nb, PlusBlocks: nb, IdctBlocks: nb, Seed: 5}
		add(mpeg.DequantAccesses(cfg), func() memtrace.Trace { return mpeg.Dequant(cfg).Trace }, "mpeg-dequant blocks=%d", nb)
		add(mpeg.PlusAccesses(cfg), func() memtrace.Trace { return mpeg.Plus(cfg).Trace }, "mpeg-plus blocks=%d", nb)
		add(mpeg.IdctAccesses(cfg), func() memtrace.Trace { return mpeg.Idct(cfg).Trace }, "mpeg-idct blocks=%d", nb)
	}
	for _, nb := range []int{1, 3} {
		// The pipeline runs every phase over IdctBlocks blocks.
		cfg := mpeg.Config{IdctBlocks: nb, Seed: 5}
		for i, per := range []int{mpeg.DequantAccessesPerBlock, mpeg.IdctAccessesPerBlock, mpeg.PlusAccessesPerBlock} {
			add(nb*per, func() memtrace.Trace { return mpeg.Pipeline(cfg)[i].Prog.Trace }, "mpeg pipeline phase %d blocks=%d", i, nb)
		}
	}
	for _, cfg := range []gzipsim.Config{
		{},
		{WindowBytes: 1},
		{WindowBytes: 2},
		{WindowBytes: 3},
		{WindowBytes: 101, Seed: 9},
		{WindowBytes: 1000, MaxChain: 1},
		{WindowBytes: 777, HashBits: 3, MinMatch: 5, MaxMatch: 9},
		{WindowBytes: 600, MinMatch: 9, MaxMatch: 4},
	} {
		add(gzipsim.Accesses(cfg), func() memtrace.Trace { return gzipsim.Job(cfg, 0).Trace }, "gzip %+v", cfg)
		n := gzipsim.Accesses(cfg)
		add(n, func() memtrace.Trace { return gzipsim.CountedJob(cfg, 0, n).Trace }, "counted gzip %+v", cfg)
	}
	return cases
}

// TestGeneratorCountsExact checks every generator's access count against
// the trace it records, over defaults, zeros, one, odd sizes and many
// passes: the count is the trace's length, and the trace is one exactly
// sized allocation.
func TestGeneratorCountsExact(t *testing.T) {
	for _, c := range generatorCases() {
		tr := c.trace()
		if c.count != len(tr) || cap(tr) != len(tr) {
			t.Errorf("%s: count %d, len %d, cap %d", c.name, c.count, len(tr), cap(tr))
		}
	}
}

// TestGzipMinAccesses checks the bound that lets a caller refuse a gzip
// window without counting it.
func TestGzipMinAccesses(t *testing.T) {
	for _, w := range []int{1, 2, 3, 64, 101, 4096, 0} {
		for _, chain := range []int{1, 16} {
			cfg := gzipsim.Config{WindowBytes: w, MaxChain: chain}
			if lb, n := gzipsim.MinAccesses(cfg), gzipsim.Accesses(cfg); lb > n {
				t.Errorf("%+v: MinAccesses %d > Accesses %d", cfg, lb, n)
			}
		}
	}
}

func TestSaturatingCounts(t *testing.T) {
	const inf = math.MaxInt
	for _, c := range []struct{ got, want int }{
		{workloads.SatMul(3, 4), 12},
		{workloads.SatMul(-3, 4), 0},
		{workloads.SatMul(4, -3), 0},
		{workloads.SatMul(1<<40, 1<<30), inf},
		{workloads.SatMul(inf, 1), inf},
		{workloads.SatMul(inf, 0), 0},
		{workloads.SatAdd(3, 4), 7},
		{workloads.SatAdd(-3, 4), 4},
		{workloads.SatAdd(inf, 1), inf},
		{workloads.SatAdd(inf-1, 1), inf},
		{workloads.SatInt(5), 5},
		{workloads.SatInt(math.MaxUint64), inf},
		// 2^28 bytes of 1-byte elements, 1024 passes: 2^38, no overflow.
		{synth.StreamAccesses(1<<28, 1, 1024), 1 << 38},
		{synth.StreamAccesses(math.MaxUint64, 1, 2), inf},
		{synth.PhaseShiftAccesses(math.MaxUint64, 1024, 1024, 64, 1), inf},
		{kernels.MatMulAccesses(kernels.MatMulConfig{N: 1 << 40}), inf},
		{mpeg.IdctAccesses(mpeg.Config{IdctBlocks: inf / 1000}), inf},
	} {
		if c.got != c.want {
			t.Errorf("got %d, want %d", c.got, c.want)
		}
	}
}
