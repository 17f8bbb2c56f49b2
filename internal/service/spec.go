// Package service implements colserved: simulation-as-a-service on top of
// the colcache substrates. It turns the one-shot CLI pipeline (build a
// machine, run a trace, print stats) into a long-running daemon with a
// bounded job queue, explicit backpressure, cooperative cancellation
// plumbed into the simulation loop, graceful drain, and a hand-rolled
// Prometheus-text metrics endpoint.
package service

import (
	"fmt"
	"math"
	"strings"

	colcache "colcache"
	"colcache/internal/build"
	"colcache/internal/controller"
	"colcache/internal/memory"
	"colcache/internal/memsys"
	"colcache/internal/memtrace"
	"colcache/internal/replacement"
	"colcache/internal/workloads"
	"colcache/internal/workloads/gzipsim"
	"colcache/internal/workloads/kernels"
	"colcache/internal/workloads/mpeg"
	"colcache/internal/workloads/synth"
)

// Limits bound what a single spec may ask for; they are the service's
// defense against a request that is expensive rather than malformed.
type Limits struct {
	MaxTraceAccesses int // records per trace, uploaded or generated
	MaxSets          int
	MaxWays          int
}

// DefaultLimits is what Config.withDefaults installs.
var DefaultLimits = Limits{
	MaxTraceAccesses: 4 << 20,
	MaxSets:          1 << 16,
	MaxWays:          64,
}

func (l Limits) withDefaults() Limits {
	if l.MaxTraceAccesses == 0 {
		l.MaxTraceAccesses = DefaultLimits.MaxTraceAccesses
	}
	if l.MaxSets == 0 {
		l.MaxSets = DefaultLimits.MaxSets
	}
	if l.MaxWays == 0 {
		l.MaxWays = DefaultLimits.MaxWays
	}
	return l
}

// ValidateMachine checks a machine spec against the limits without
// building anything; submission-time rejection keeps garbage out of the
// queue.
func ValidateMachine(m colcache.MachineSpec, lim Limits) error {
	m = build.WithDefaults(m)
	lim = lim.withDefaults()
	if !memory.IsPow2(m.LineBytes) || m.LineBytes < 8 || m.LineBytes > 4096 {
		return fmt.Errorf("line_bytes %d: want a power of two in [8,4096]", m.LineBytes)
	}
	if !memory.IsPow2(m.Sets) || m.Sets < 1 || m.Sets > lim.MaxSets {
		return fmt.Errorf("sets %d: want a power of two in [1,%d]", m.Sets, lim.MaxSets)
	}
	if m.Ways < 1 || m.Ways > lim.MaxWays {
		return fmt.Errorf("ways %d: want [1,%d]", m.Ways, lim.MaxWays)
	}
	if !memory.IsPow2(m.PageBytes) || m.PageBytes < m.LineBytes {
		return fmt.Errorf("page_bytes %d: want a power of two >= line_bytes", m.PageBytes)
	}
	switch replacement.Kind(m.Policy) {
	case replacement.LRU, replacement.TreePLRU, replacement.FIFO, replacement.Random:
	default:
		return fmt.Errorf("unknown policy %q", m.Policy)
	}
	if m.MissPenalty < 0 || m.MissPenalty > 1<<20 {
		return fmt.Errorf("miss_penalty %d out of range", m.MissPenalty)
	}
	return nil
}

// ValidateSim checks a full simulate spec. hasUpload reports whether a
// binary trace body accompanies the spec (the octet-stream path). An inline
// trace_text is parsed here, bounded by lim.MaxTraceAccesses, so a
// malformed, empty or oversized one is rejected at submission instead of
// being accepted and failing in the queue.
func ValidateSim(spec colcache.SimSpec, hasUpload bool, lim Limits) error {
	_, err := checkSim(spec, hasUpload, lim)
	return err
}

// checkSim is ValidateSim that also returns the parsed trace_text (nil
// without one), so a submission parses its inline trace only once.
func checkSim(spec colcache.SimSpec, hasUpload bool, lim Limits) (memtrace.Trace, error) {
	if err := validateSpec(spec, hasUpload, lim); err != nil {
		return nil, err
	}
	if spec.TraceText == "" {
		return nil, nil
	}
	return parseTraceText(spec.TraceText, lim)
}

// parseTraceText decodes an inline trace of at most lim.MaxTraceAccesses
// records. An empty trace is an error, as it is for a binary upload.
func parseTraceText(text string, lim Limits) (memtrace.Trace, error) {
	tr, err := memtrace.ReadTextLimit(strings.NewReader(text), lim.withDefaults().MaxTraceAccesses)
	if err != nil {
		return nil, fmt.Errorf("trace_text: %w", err)
	}
	if len(tr) == 0 {
		return nil, fmt.Errorf("trace_text: empty trace")
	}
	return tr, nil
}

// validateSpec is ValidateSim without parsing trace_text, for callers that
// parse it once themselves (a sweep shares its base's trace across points).
func validateSpec(spec colcache.SimSpec, hasUpload bool, lim Limits) error {
	if err := ValidateMachine(spec.Machine, lim); err != nil {
		return err
	}
	sources := 0
	if spec.Workload != nil {
		sources++
	}
	if spec.TraceText != "" {
		sources++
	}
	if hasUpload {
		sources++
	}
	if spec.Multicore != nil {
		sources++
	}
	if sources != 1 {
		return fmt.Errorf("want exactly one trace source (workload, trace_text, multicore, or binary upload), got %d", sources)
	}
	m := build.WithDefaults(spec.Machine)
	if spec.Workload != nil {
		if err := validateWorkload(*spec.Workload, m.LineBytes, lim); err != nil {
			return err
		}
	}
	if spec.Multicore != nil {
		return ValidateMulticore(spec, lim)
	}
	for i, mp := range spec.Maps {
		if mp.Size == 0 {
			return fmt.Errorf("maps[%d]: zero size", i)
		}
		if len(mp.Columns) == 0 {
			return fmt.Errorf("maps[%d]: no columns", i)
		}
		for _, c := range mp.Columns {
			if c < 0 || c >= m.Ways {
				return fmt.Errorf("maps[%d]: column %d outside [0,%d)", i, c, m.Ways)
			}
		}
	}
	if spec.Adaptive != nil {
		if len(spec.Maps)+1 > m.Ways {
			return fmt.Errorf("adaptive: %d tints but only %d columns", len(spec.Maps)+1, m.Ways)
		}
	}
	return nil
}

// validateWorkload bounds w's knobs and refuses a spec whose trace would
// exceed lim.MaxTraceAccesses, from the generator's access count, before
// anything is generated. lineBytes is the machine's line size (phaseshift
// sweeps line by line).
func validateWorkload(w colcache.WorkloadSpec, lineBytes int, lim Limits) error {
	lim = lim.withDefaults()
	if w.N < 0 || w.N > lim.MaxTraceAccesses {
		return fmt.Errorf("workload n %d out of [0,%d]", w.N, lim.MaxTraceAccesses)
	}
	if w.SizeBytes > 1<<28 {
		return fmt.Errorf("workload size_bytes %d exceeds %d", w.SizeBytes, 1<<28)
	}
	if w.Passes < 0 || w.Passes > 1024 {
		return fmt.Errorf("workload passes %d out of [0,1024]", w.Passes)
	}
	if w.Phases < 0 || w.Phases > 1024 {
		return fmt.Errorf("workload phases %d out of [0,1024]", w.Phases)
	}
	if w.Taps < 0 || w.Taps > 1<<16 {
		return fmt.Errorf("workload taps %d out of [0,%d]", w.Taps, 1<<16)
	}
	if w.Bins < 0 || w.Bins > 1<<20 {
		return fmt.Errorf("workload bins %d out of [0,%d]", w.Bins, 1<<20)
	}
	if w.Name == "matmul" && w.N > 512 {
		return fmt.Errorf("matmul n %d exceeds 512", w.N)
	}
	n, _, err := generate(w, lineBytes, lim.MaxTraceAccesses, false)
	if err != nil {
		return err
	}
	if n == 0 {
		// fir with fewer samples than taps, or a stream shorter than one
		// element: nothing to simulate, as for an empty upload.
		return fmt.Errorf("workload %s: empty trace", w.Name)
	}
	return nil
}

// BuildWorkload synthesizes the named workload's trace. Deterministic in
// the spec.
func BuildWorkload(w colcache.WorkloadSpec, lineBytes int) (*workloads.Program, error) {
	_, prog, err := generate(w, lineBytes, math.MaxInt, true)
	return prog, err
}

// generate resolves w's defaults once and counts the accesses its trace
// will hold from those knobs. A count past limit is an error wrapping
// memtrace.ErrTraceTooLarge, and the trace is never generated; otherwise,
// with build set, generate records it. A gzip window whose lower bound
// already exceeds limit is refused without counting it, so the count
// reported for it is that bound.
func generate(w colcache.WorkloadSpec, lineBytes, limit int, build bool) (int, *workloads.Program, error) {
	n := w.N
	size := w.SizeBytes
	passes := w.Passes
	seed := w.Seed
	if seed == 0 {
		seed = 1
	}
	orDefault := func(v *int, d int) {
		if *v <= 0 {
			*v = d
		}
	}
	orDefaultU := func(v *uint64, d uint64) {
		if *v == 0 {
			*v = d
		}
	}
	var (
		accesses int
		gen      func() *workloads.Program
	)
	switch w.Name {
	case "stream":
		orDefaultU(&size, 1<<16)
		orDefault(&passes, 2)
		accesses = synth.StreamAccesses(size, 4, passes)
		gen = func() *workloads.Program { return synth.Stream(0, size, 4, passes) }
	case "strided":
		orDefaultU(&size, 1<<16)
		orDefault(&passes, 2)
		stride := w.Stride
		orDefaultU(&stride, 128)
		accesses = synth.StridedAccesses(size, stride, passes)
		gen = func() *workloads.Program { return synth.Strided(0, size, stride, passes) }
	case "random":
		orDefaultU(&size, 1<<20)
		orDefault(&n, 20000)
		accesses = synth.RandomAccesses(n)
		gen = func() *workloads.Program { return synth.Random(0, size, n, seed) }
	case "chase":
		orDefault(&n, 20000)
		accesses = synth.PointerChaseAccesses(n)
		gen = func() *workloads.Program { return synth.PointerChase(0, 1024, 64, n, seed) }
	case "phaseshift":
		orDefaultU(&size, 4096)
		phases := w.Phases
		orDefault(&phases, 4)
		orDefault(&passes, 2)
		accesses = synth.PhaseShiftAccesses(size, phases, passes, 64, lineBytes)
		gen = func() *workloads.Program { return synth.PhaseShift(0, size, phases, passes, 64, lineBytes, seed) }
	case "writesweep":
		orDefaultU(&size, 1<<16)
		orDefault(&passes, 2)
		accesses = synth.StreamAccesses(size, 4, passes)
		gen = func() *workloads.Program { return synth.WriteSweep(0, size, 4, passes) }
	case "matmul":
		cfg := kernels.MatMulConfig{N: n, Seed: seed}
		accesses = kernels.MatMulAccesses(cfg)
		gen = func() *workloads.Program { return kernels.MatMul(cfg) }
	case "fir":
		cfg := kernels.FIRConfig{Samples: n, Taps: w.Taps, Seed: seed}
		accesses = kernels.FIRAccesses(cfg)
		gen = func() *workloads.Program { return kernels.FIR(cfg) }
	case "histogram":
		cfg := kernels.HistogramConfig{Samples: n, Bins: w.Bins, Seed: seed}
		accesses = kernels.HistogramAccesses(cfg)
		gen = func() *workloads.Program { return kernels.Histogram(cfg) }
	case "mpeg-dequant":
		cfg := mpeg.Config{DequantBlocks: n, Seed: seed}
		accesses = mpeg.DequantAccesses(cfg)
		gen = func() *workloads.Program { return mpeg.Dequant(cfg) }
	case "mpeg-plus":
		cfg := mpeg.Config{PlusBlocks: n, Seed: seed}
		accesses = mpeg.PlusAccesses(cfg)
		gen = func() *workloads.Program { return mpeg.Plus(cfg) }
	case "mpeg-idct":
		cfg := mpeg.Config{IdctBlocks: n, Seed: seed}
		accesses = mpeg.IdctAccesses(cfg)
		gen = func() *workloads.Program { return mpeg.Idct(cfg) }
	case "gzip":
		cfg := gzipsim.Config{Seed: seed}
		if size != 0 {
			cfg.WindowBytes = int(size)
		}
		if accesses = gzipsim.MinAccesses(cfg); accesses <= limit {
			accesses = gzipsim.Accesses(cfg)
		}
		gen = func() *workloads.Program { return gzipsim.CountedJob(cfg, 0, accesses) }
	default:
		return 0, nil, fmt.Errorf("unknown workload %q (want one of stream, strided, random, chase, phaseshift, writesweep, matmul, fir, histogram, mpeg-dequant, mpeg-plus, mpeg-idct, gzip)", w.Name)
	}
	if accesses > limit {
		return accesses, nil, fmt.Errorf("workload %s: %d accesses: %w (limit %d)", w.Name, accesses, memtrace.ErrTraceTooLarge, limit)
	}
	if !build {
		return accesses, nil, nil
	}
	return accesses, gen(), nil
}

// Built is a ready-to-run simulation: the machine, its trace, and the
// attached adaptive controller (nil unless requested).
type Built struct {
	Sys      *memsys.System
	Trace    memtrace.Trace
	Ctl      *controller.Controller
	Workload string
}

// BuildSim constructs the machine and trace a validated spec describes.
// trace, when non-nil, is the already-decoded trace: the binary body of an
// octet-stream submission, or trace_text parsed at submission (once for
// all of a sweep's points).
func BuildSim(spec colcache.SimSpec, trace memtrace.Trace, lim Limits) (*Built, error) {
	lim = lim.withDefaults()
	m := build.WithDefaults(spec.Machine)
	b := &Built{Trace: trace}
	var err error
	switch {
	case spec.TraceText != "":
		if b.Trace == nil {
			if b.Trace, err = parseTraceText(spec.TraceText, lim); err != nil {
				return nil, err
			}
		}
		b.Workload = "inline"
	case trace != nil:
		// An upload recovered from the WAL was decoded without a limit,
		// and the limit may have fallen since it was accepted.
		if len(trace) > lim.MaxTraceAccesses {
			return nil, fmt.Errorf("%w (limit %d)", memtrace.ErrTraceTooLarge, lim.MaxTraceAccesses)
		}
		b.Workload = "upload"
	case spec.Workload != nil:
		_, prog, err := generate(*spec.Workload, m.LineBytes, lim.MaxTraceAccesses, true)
		if err != nil {
			return nil, err
		}
		b.Trace = prog.Trace
		b.Workload = spec.Workload.Name
	default:
		return nil, fmt.Errorf("no trace source")
	}
	if b.Sys, err = build.System(m, spec.Maps); err != nil {
		return nil, err
	}
	if spec.Adaptive != nil {
		if b.Ctl, err = build.Adaptive(b.Sys, m, build.AdaptiveWithDefaults(*spec.Adaptive)); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// TintViews renders the machine's current tint table through the
// thread-safe snapshot — callable while the simulation runs.
func TintViews(sys *memsys.System, ways int) []colcache.TintView {
	table := sys.Tints()
	snap := table.Snapshot()
	ids := table.Tints()
	out := make([]colcache.TintView, 0, len(ids))
	for _, id := range ids {
		mask, ok := snap[id]
		if !ok {
			continue
		}
		out = append(out, colcache.TintView{Name: table.Name(id), Mask: uint64(mask), Columns: mask.Ways(ways)})
	}
	return out
}

// Result composes the final SimResult from a finished run.
func Result(label string, b *Built, cycles int64, m colcache.MachineSpec) colcache.SimResult {
	st := b.Sys.Stats()
	mm := build.WithDefaults(m)
	res := colcache.SimResult{
		Label:         label,
		Workload:      b.Workload,
		TraceAccesses: int64(len(b.Trace)),
		Instructions:  st.Instructions,
		Cycles:        cycles,
		CPI:           st.CPI(),
		Cache:         cacheCounters(st.Cache),
		TLBHitRate:    st.TLB.HitRate(),
		Remaps:        b.Sys.Tints().Remaps(),
		Tints:         TintViews(b.Sys, mm.Ways),
	}
	if b.Ctl != nil {
		b.Ctl.FinishEpoch()
		decisions := b.Ctl.Decisions()
		ar := &colcache.AdaptiveResult{Epochs: len(decisions), Remaps: b.Ctl.Remaps()}
		for _, d := range decisions {
			ar.Decisions = append(ar.Decisions, d.String())
		}
		res.Adaptive = ar
	}
	return res
}
