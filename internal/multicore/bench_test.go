package multicore

import (
	"fmt"
	"testing"

	"colcache/internal/cache"
	"colcache/internal/memory"
	"colcache/internal/memsys"
	"colcache/internal/memtrace"
)

// benchTraces builds n per-core synthetic traces with idct-like locality:
// block sweeps with periodic re-touches, disjoint 4GB windows per core.
func benchTraces(n, accesses int) []memtrace.Trace {
	traces := make([]memtrace.Trace, n)
	for i := range traces {
		tr := make(memtrace.Trace, accesses)
		state := uint64(i + 1)
		var addr uint64
		for k := range tr {
			// xorshift-driven mix of sequential sweeps and block re-touches
			state ^= state >> 12
			state ^= state << 25
			state ^= state >> 27
			if k%64 == 0 {
				addr = (state * 0x9e3779b97f4a7c15) % (1 << 18)
			}
			a := memtrace.Access{Addr: uint64(i)<<32 | (addr &^ 31), Op: memtrace.Read}
			if state&7 == 0 {
				a.Op = memtrace.Write
			}
			tr[k] = a
			addr += 32
		}
		traces[i] = tr
	}
	return traces
}

func benchMachine(b *testing.B, cores, accesses int) *Machine {
	b.Helper()
	m, err := New(Config{
		Geometry:    memory.MustGeometry(32, 4096),
		L1:          cache.Config{LineBytes: 32, NumSets: 16, NumWays: 2},
		L2:          cache.Config{LineBytes: 32, NumSets: 64, NumWays: 8},
		Timing:      memsys.DefaultTiming,
		L2HitCycles: 6,
		Traces:      benchTraces(cores, accesses),
	})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkStepper measures the deterministic stepper's end-to-end
// throughput: TLB, tint mask, L1 with way memoization, MSI bus, shared L2.
// One op is a whole run; ns/access reports the per-access cost.
func BenchmarkStepper(b *testing.B) {
	for _, cores := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
			const accesses = 100000
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := benchMachine(b, cores, accesses)
				b.StartTimer()
				if err := m.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*accesses*cores), "ns/access")
		})
	}
}
