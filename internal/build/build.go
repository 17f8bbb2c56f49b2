// Package build turns a machine description — the colcache specs: sets ×
// ways, a tint per mapped region, a column bit vector per tint — into a
// simulated machine. It is the one place that decides what machine a spec
// means, so colsim's flags and colserved's JSON specs build the same
// machine from the same description: frontends translate their input to
// colcache specs, and only this package calls memsys.New, multicore.New
// and controller.New for a spec.
//
// The builders take specs as given. A frontend whose zero values mean
// "default" (the service's JSON) fills them with the *WithDefaults
// functions first; colsim's flags carry the same defaults explicitly.
package build

import (
	"errors"
	"fmt"

	colcache "colcache"
	"colcache/internal/cache"
	"colcache/internal/controller"
	"colcache/internal/memory"
	"colcache/internal/memsys"
	"colcache/internal/memtrace"
	"colcache/internal/multicore"
	"colcache/internal/replacement"
)

// WithDefaults fills m's zero fields with the default machine: 32-byte
// lines, 16 sets × 4 ways, 4 KB pages, LRU, a 20-cycle miss penalty.
func WithDefaults(m colcache.MachineSpec) colcache.MachineSpec {
	if m.LineBytes == 0 {
		m.LineBytes = 32
	}
	if m.Sets == 0 {
		m.Sets = 16
	}
	if m.Ways == 0 {
		m.Ways = 4
	}
	if m.PageBytes == 0 {
		m.PageBytes = 4096
	}
	if m.Policy == "" {
		m.Policy = string(replacement.LRU)
	}
	if m.MissPenalty == 0 {
		m.MissPenalty = 20
	}
	return m
}

// MulticoreWithDefaults fills mc's zero L2 fields with the default shared
// L2: 64 sets × 8 ways, 6-cycle hits.
func MulticoreWithDefaults(mc colcache.MulticoreSpec) colcache.MulticoreSpec {
	if mc.L2Sets == 0 {
		mc.L2Sets = 64
	}
	if mc.L2Ways == 0 {
		mc.L2Ways = 8
	}
	if mc.L2HitCycles == 0 {
		mc.L2HitCycles = 6
	}
	return mc
}

// AdaptiveWithDefaults fills a's unset fields with the default controller:
// 4096-access epochs and a 16-hit hysteresis. SampleEvery's zero already
// means every set.
func AdaptiveWithDefaults(a colcache.AdaptiveSpec) colcache.AdaptiveSpec {
	if a.EpochAccesses <= 0 {
		a.EpochAccesses = 4096
	}
	if a.MinGainHits <= 0 {
		a.MinGainHits = 16
	}
	return a
}

// l1 is the cache m describes; a multicore machine's L2 shares its line
// size and policy.
func l1(m colcache.MachineSpec) cache.Config {
	return cache.Config{
		LineBytes: m.LineBytes,
		NumSets:   m.Sets,
		NumWays:   m.Ways,
		Policy:    replacement.Kind(m.Policy),
	}
}

func timing(m colcache.MachineSpec) memsys.Timing {
	t := memsys.DefaultTiming
	t.MissPenalty = m.MissPenalty
	return t
}

// System builds the single-core machine m describes and maps each region
// in maps to its columns, in order, each under a tint of its own. An
// unnamed map i is named map<i>@<hex base>.
func System(m colcache.MachineSpec, maps []colcache.MapSpec) (*memsys.System, error) {
	g, err := memory.NewGeometry(m.LineBytes, m.PageBytes)
	if err != nil {
		return nil, err
	}
	sys, err := memsys.New(memsys.Config{Geometry: g, Cache: l1(m), Timing: timing(m)})
	if err != nil {
		return nil, err
	}
	for i, mp := range maps {
		name := mp.Name
		if name == "" {
			name = fmt.Sprintf("map%d@%x", i, mp.Base)
		}
		r := memory.Region{Name: name, Base: mp.Base, Size: mp.Size}
		if _, err := sys.MapRegion(r, replacement.Of(mp.Columns...)); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// Adaptive puts every tint in sys's table — the default tint included, so
// unmapped pages keep a share — under the online controller a describes,
// and hooks the controller to the machine. m is the spec sys was built
// from. Each tint keeps at least one column, so there may be no more tints
// than columns.
func Adaptive(sys *memsys.System, m colcache.MachineSpec, a colcache.AdaptiveSpec) (*controller.Controller, error) {
	tints := sys.Tints().Tints()
	if len(tints) > m.Ways {
		return nil, fmt.Errorf("adaptive: %d tints but only %d columns", len(tints), m.Ways)
	}
	specs := make([]controller.Spec, len(tints))
	for i, id := range tints {
		specs[i] = controller.Spec{ID: id, Min: 1, Max: m.Ways}
	}
	ctl, err := controller.New(sys.Tints(), m.Sets, m.LineBytes, specs, controller.Config{
		EpochAccesses: a.EpochAccesses,
		MinGainHits:   a.MinGainHits,
		SampleEvery:   a.SampleEvery,
	})
	if err != nil {
		return nil, err
	}
	sys.SetAccessObserver(ctl)
	return ctl, nil
}

// WindowShift sizes the per-core address windows: unless a multicore spec
// shares addresses, core i's trace runs shifted up by i<<WindowShift, so
// the cores' footprints are disjoint and a shared-L2 line's address names
// the core that owns it (inspect.WindowOwner undoes the shift).
const WindowShift = 32

// windows returns a copy of each trace shifted into its core's window.
func windows(traces []memtrace.Trace) []memtrace.Trace {
	out := make([]memtrace.Trace, len(traces))
	for i, tr := range traces {
		shifted := make(memtrace.Trace, len(tr))
		shift := uint64(i) << WindowShift
		for k, a := range tr {
			a.Addr += shift
			shifted[k] = a
		}
		out[i] = shifted
	}
	return out
}

// Multicore builds the co-run machine mc describes: one core per trace, or
// per decoder when the traces stream, each with a private L1 of m's shape,
// over a shared L2 of mc's shape in which core i replaces only into
// mc.Cores[i].Columns (every column when empty). The caller sources the
// traces; mc.Cores' workloads are not read. Unless mc.SharedAddresses is
// set, the traces are copied into the per-core windows (see WindowShift);
// a streamed trace cannot be moved, so decoders need shared addresses.
func Multicore(m colcache.MachineSpec, mc colcache.MulticoreSpec, traces []memtrace.Trace, decoders []*memtrace.Decoder) (*multicore.Machine, error) {
	if !mc.SharedAddresses {
		if decoders != nil {
			return nil, errors.New("multicore: streamed traces cannot move into per-core windows")
		}
		traces = windows(traces)
	}
	g, err := memory.NewGeometry(m.LineBytes, m.PageBytes)
	if err != nil {
		return nil, err
	}
	l2 := l1(m)
	l2.NumSets, l2.NumWays = mc.L2Sets, mc.L2Ways
	mach, err := multicore.New(multicore.Config{
		Geometry:    g,
		L1:          l1(m),
		L2:          l2,
		Timing:      timing(m),
		L2HitCycles: mc.L2HitCycles,
		Traces:      traces,
		Decoders:    decoders,
	})
	if err != nil {
		return nil, err
	}
	for i, cs := range mc.Cores {
		if len(cs.Columns) > 0 {
			if err := mach.SetL2Mask(i, replacement.Of(cs.Columns...)); err != nil {
				return nil, fmt.Errorf("cores[%d]: %w", i, err)
			}
		}
	}
	return mach, nil
}
