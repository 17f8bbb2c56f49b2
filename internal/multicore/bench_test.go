package multicore

import (
	"bytes"
	"fmt"
	"testing"

	"colcache/internal/cache"
	"colcache/internal/memory"
	"colcache/internal/memsys"
	"colcache/internal/memtrace"
)

// benchTraces builds n per-core synthetic traces with idct-like locality,
// each core in its own 4GB window: 256-byte blocks at random offsets are
// walked word by word in four passes (rows, then columns, twice), and
// every eighth access reads a 512-byte coefficient table. Like mc8's idct
// traces, the mix is hit-heavy: about 4% of accesses miss L1 (mc8: 6%).
func benchTraces(n, accesses int) []memtrace.Trace {
	traces := make([]memtrace.Trace, n)
	for i := range traces {
		tr := make(memtrace.Trace, accesses)
		state := uint64(i + 1)
		var block uint64
		for k := range tr {
			state ^= state >> 12
			state ^= state << 25
			state ^= state >> 27
			if k%256 == 0 {
				block = (state * 0x9e3779b97f4a7c15) % (1 << 18) &^ 255
			}
			var off uint64
			if k%8 == 7 {
				off = 1<<20 + (state%128)*4
			} else {
				w := uint64(k % 64)
				if (k/64)%2 == 1 {
					w = w%8*8 + w/8
				}
				off = block + w*4
			}
			a := memtrace.Access{Addr: uint64(i)<<32 | off, Op: memtrace.Read}
			if state&7 == 0 && k%8 != 7 {
				a.Op = memtrace.Write
			}
			tr[k] = a
		}
		traces[i] = tr
	}
	return traces
}

// benchConfig is the benchmarks' machine, with no traces yet.
func benchConfig() Config {
	return Config{
		Geometry:    memory.MustGeometry(32, 4096),
		L1:          cache.Config{LineBytes: 32, NumSets: 16, NumWays: 2},
		L2:          cache.Config{LineBytes: 32, NumSets: 64, NumWays: 8},
		Timing:      memsys.DefaultTiming,
		L2HitCycles: 6,
	}
}

func benchMachine(b *testing.B, cores, accesses int) *Machine {
	b.Helper()
	cfg := benchConfig()
	cfg.Traces = benchTraces(cores, accesses)
	m, err := New(cfg)
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

// BenchmarkDecodeAndRun measures a whole 8-core run from binary traces, as
// colsim -cores runs them: readall decodes every core's trace into memory
// first (ReadBinary per core), streamed reads each through its decode
// window. One op decodes and runs eight 256 Ki-record traces held in
// memory as bytes; ns/access reports the per-access cost, decode included.
func BenchmarkDecodeAndRun(b *testing.B) {
	const cores, accesses = 8, 256 << 10
	encoded := make([][]byte, cores)
	for i, tr := range benchTraces(cores, accesses) {
		encoded[i] = encode(b, tr)
	}
	cases := []struct {
		name  string
		input func(cfg *Config) error
	}{
		{"readall", func(cfg *Config) error {
			cfg.Traces = make([]memtrace.Trace, cores)
			for i, enc := range encoded {
				tr, err := memtrace.ReadBinary(bytes.NewReader(enc))
				if err != nil {
					return err
				}
				cfg.Traces[i] = tr
			}
			return nil
		}},
		{"streamed", func(cfg *Config) error {
			cfg.Decoders = decoders(encoded)
			return nil
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				if err := tc.input(&cfg); err != nil {
					b.Fatal(err)
				}
				m, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := m.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*accesses*cores), "ns/access")
		})
	}
}
