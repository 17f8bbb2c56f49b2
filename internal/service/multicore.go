package service

import (
	"fmt"

	colcache "colcache"
	"colcache/internal/build"
	"colcache/internal/cache"
	"colcache/internal/memory"
	"colcache/internal/memtrace"
	"colcache/internal/multicore"
)

// MaxCores bounds a multicore spec's core count: cores multiply a job's
// simulated work linearly.
const MaxCores = 16

// ValidateMulticore checks the multicore half of a simulate spec. The
// machine spec (the per-core L1) is validated by ValidateSim as usual.
func ValidateMulticore(spec colcache.SimSpec, lim Limits) error {
	lim = lim.withDefaults()
	m := build.WithDefaults(spec.Machine)
	mc := build.MulticoreWithDefaults(*spec.Multicore)
	if len(spec.Maps) != 0 {
		return fmt.Errorf("multicore: maps are not supported (use per-core columns for the shared L2)")
	}
	if spec.Adaptive != nil {
		return fmt.Errorf("multicore: the adaptive controller is not supported over the service yet")
	}
	if len(mc.Cores) < 1 || len(mc.Cores) > MaxCores {
		return fmt.Errorf("multicore: %d cores, want [1,%d]", len(mc.Cores), MaxCores)
	}
	if !memory.IsPow2(mc.L2Sets) || mc.L2Sets < 1 || mc.L2Sets > lim.MaxSets {
		return fmt.Errorf("multicore: l2_sets %d: want a power of two in [1,%d]", mc.L2Sets, lim.MaxSets)
	}
	if mc.L2Ways < 1 || mc.L2Ways > lim.MaxWays {
		return fmt.Errorf("multicore: l2_ways %d: want [1,%d]", mc.L2Ways, lim.MaxWays)
	}
	if mc.L2HitCycles < 0 || mc.L2HitCycles > 1<<20 {
		return fmt.Errorf("multicore: l2_hit_cycles %d out of range", mc.L2HitCycles)
	}
	for i, cs := range mc.Cores {
		if err := validateWorkload(cs.Workload, m.LineBytes, lim); err != nil {
			return fmt.Errorf("multicore: cores[%d]: %w", i, err)
		}
		for _, c := range cs.Columns {
			if c < 0 || c >= mc.L2Ways {
				return fmt.Errorf("multicore: cores[%d]: column %d outside [0,%d)", i, c, mc.L2Ways)
			}
		}
	}
	return nil
}

// BuiltMulticore is a ready-to-run multicore co-run.
type BuiltMulticore struct {
	M             *multicore.Machine
	TraceAccesses int64
	Workloads     []string
	// SharedAddresses records whether the cores' traces share one address
	// space; when false build.Multicore moved each core's trace into its
	// own window and shared-L2 line ownership is derivable from the address.
	SharedAddresses bool
}

// BuildMulticore constructs the machine and per-core traces a validated
// multicore spec describes. Deterministic in the spec.
func BuildMulticore(spec colcache.SimSpec, lim Limits) (*BuiltMulticore, error) {
	lim = lim.withDefaults()
	m := build.WithDefaults(spec.Machine)
	mc := build.MulticoreWithDefaults(*spec.Multicore)
	b := &BuiltMulticore{SharedAddresses: mc.SharedAddresses}
	traces := make([]memtrace.Trace, len(mc.Cores))
	for i, cs := range mc.Cores {
		_, prog, err := generate(cs.Workload, m.LineBytes, lim.MaxTraceAccesses, true)
		if err != nil {
			return nil, fmt.Errorf("cores[%d]: %w", i, err)
		}
		traces[i] = prog.Trace
		b.TraceAccesses += int64(len(prog.Trace))
		b.Workloads = append(b.Workloads, cs.Workload.Name)
	}
	var err error
	if b.M, err = build.Multicore(m, mc, traces, nil); err != nil {
		return nil, err
	}
	return b, nil
}

func cacheCounters(st cache.Stats) colcache.CacheCounters {
	return colcache.CacheCounters{
		Accesses:   st.Accesses,
		Hits:       st.Hits,
		Misses:     st.Misses,
		Evictions:  st.Evictions,
		Writebacks: st.Writebacks,
		Fills:      st.Fills,
		MissRate:   st.MissRate(),
	}
}

// MulticoreResult composes the wire result of a finished co-run. The
// SimResult aggregates hold the makespan, summed instructions, and summed
// L1 counters; the Multicore block carries the per-core and bus detail.
func MulticoreResult(label string, b *BuiltMulticore) colcache.SimResult {
	st := b.M.Stats()
	res := colcache.SimResult{
		Label:         label,
		Workload:      "multicore",
		TraceAccesses: b.TraceAccesses,
		Instructions:  st.Instructions,
		Cycles:        st.Cycles,
		CPI:           st.CPI(),
		Multicore: &colcache.MulticoreResult{
			Bus: colcache.BusCounters{
				Reads:          st.Bus.Reads,
				ReadXs:         st.Bus.ReadXs,
				Upgrades:       st.Bus.Upgrades,
				Invalidations:  st.Bus.Invalidations,
				Interventions:  st.Bus.Interventions,
				WritebackRaces: st.Bus.WritebackRaces,
			},
			L2: cacheCounters(st.L2),
		},
	}
	var l1 cache.Stats
	for i, cs := range st.Cores {
		l1.Accesses += cs.L1.Accesses
		l1.Hits += cs.L1.Hits
		l1.Misses += cs.L1.Misses
		l1.Evictions += cs.L1.Evictions
		l1.Writebacks += cs.L1.Writebacks
		l1.Fills += cs.L1.Fills
		cr := colcache.CoreResult{
			Workload:          b.Workloads[i],
			Instructions:      cs.Instructions,
			Cycles:            cs.Cycles,
			CPI:               cs.CPI(),
			L1:                cacheCounters(cs.L1),
			L2Accesses:        cs.L2Accesses,
			L2Misses:          cs.L2Misses,
			InvalidationsRecv: cs.InvalidationsRecv,
			Interventions:     cs.Interventions,
			Upgrades:          cs.Upgrades,
			Columns:           b.M.L2Mask(i).Ways(64),
		}
		res.Multicore.Cores = append(res.Multicore.Cores, cr)
	}
	res.Cache = cacheCounters(l1)
	return res
}
