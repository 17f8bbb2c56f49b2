package inspect

import (
	"context"
	"encoding/json"
	"testing"

	"colcache/internal/cache"
	"colcache/internal/memory"
	"colcache/internal/memsys"
	"colcache/internal/memtrace"
	"colcache/internal/multicore"
	"colcache/internal/workloads/mpeg"
)

// captureStride is the frame-capture stride the capture benchmark uses:
// 64Ki accesses per frame, the starting point the service documentation
// recommends for -inspect-every.
const captureStride = 65536

// idctMachine builds an n-core machine in which every core replays the
// idct reference stream (per-core seed) tiled to accessesPerCore, each in
// its own 4GB address window.
func idctMachine(b *testing.B, n, accessesPerCore int) *multicore.Machine {
	b.Helper()
	traces := make([]memtrace.Trace, n)
	for i := range traces {
		cfg := mpeg.DefaultConfig
		cfg.Seed = int64(i + 1)
		base := mpeg.Idct(cfg).Trace
		tr := make(memtrace.Trace, accessesPerCore)
		for k := range tr {
			tr[k] = base[k%len(base)]
			tr[k].Addr += uint64(i) << 32
		}
		traces[i] = tr
	}
	m, err := multicore.New(multicore.Config{
		Geometry:    memory.MustGeometry(32, 4096),
		L1:          cache.Config{LineBytes: 32, NumSets: 16, NumWays: 2},
		L2:          cache.Config{LineBytes: 32, NumSets: 64, NumWays: 8},
		Timing:      memsys.DefaultTiming,
		L2HitCycles: 6,
		Traces:      traces,
	})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkCapture times the 8-core stepper with live frame capture off
// and on. "on" attaches the service's inline capture cost at
// captureStride: a MachineReducer into a reused frame plus json.Marshal
// per frame. Both run the same RunContext loop, so the gap between the
// two ns/access figures is the capture's overhead. A measurement, not a
// gate.
func BenchmarkCapture(b *testing.B) {
	const cores, accessesPerCore = 8, 100000
	for _, on := range []bool{false, true} {
		name := "inspect=off"
		if on {
			name = "inspect=on"
		}
		b.Run(name, func(b *testing.B) {
			var accesses, frames int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := idctMachine(b, cores, accessesPerCore)
				if on {
					red := NewMachineReducer(m, WindowOwner(cores))
					var frame Frame
					m.SetInspector(captureStride, func(done int64) {
						red.Reduce(&frame, done, false)
						if _, err := json.Marshal(&frame); err != nil {
							b.Error(err)
						}
						frames++
					})
				}
				b.StartTimer()
				if err := m.RunContext(context.Background(), 0, nil); err != nil {
					b.Fatal(err)
				}
				accesses += cores * accessesPerCore
			}
			if on && frames == 0 {
				b.Fatal("capture produced no frames")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(accesses), "ns/access")
		})
	}
}
