package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"colcache/internal/cache"
	"colcache/internal/inspect"
	"colcache/internal/memory"
	"colcache/internal/memsys"
	"colcache/internal/memtrace"
	"colcache/internal/multicore"
	"colcache/internal/workloads/mpeg"
)

// Multicore stepper throughput: how fast the machine simulates as the core
// count grows. The stepper arbitrates every single access (an O(cores) scan
// per access), so its throughput falls as cores are added. The rows are the
// record the core benchmark gates, not a correctness experiment.

// ScalingResult is one core count's throughput measurement.
type ScalingResult struct {
	Cores        int     `json:"cores"`
	InspectEvery int64   `json:"inspectEvery,omitempty"` // frame-capture stride when inspected
	Accesses     int64   `json:"accesses"`               // total trace accesses simulated
	SimCycles    int64   `json:"simCycles"`              // makespan of the co-run
	WallSeconds  float64 `json:"wallSeconds"`            // host time for the Run
	CyclesPerSec float64 `json:"cyclesPerSec"`           // SimCycles / WallSeconds
}

// scalingTrace builds core i's benchmark trace: the idct reference stream
// (per-core seed) tiled to the requested length in a disjoint 4GB address
// window.
func scalingTrace(i, accesses int) memtrace.Trace {
	cfg := mpeg.DefaultConfig
	cfg.Seed = int64(i + 1)
	base := mpeg.Idct(cfg).Trace
	tr := make(memtrace.Trace, accesses)
	shift := uint64(i) << 32
	for k := range tr {
		tr[k] = base[k%len(base)]
		tr[k].Addr += shift
	}
	return tr
}

// scalingMachine builds the n-core benchmark machine: every core replays
// the same idct trace (per-core seeds, disjoint 4GB address windows) so the
// per-core work is identical across machine sizes.
func scalingMachine(n, accessesPerCore int) (*multicore.Machine, error) {
	if n < 1 {
		return nil, fmt.Errorf("experiments: scaling needs ≥1 core, got %d", n)
	}
	traces := make([]memtrace.Trace, n)
	for i := range traces {
		traces[i] = scalingTrace(i, accessesPerCore)
	}
	return multicore.New(multicore.Config{
		Geometry:    memory.MustGeometry(32, 4096),
		L1:          cache.Config{LineBytes: 32, NumSets: 16, NumWays: 2},
		L2:          cache.Config{LineBytes: 32, NumSets: 64, NumWays: 8},
		Timing:      memsys.DefaultTiming,
		L2HitCycles: 6,
		Traces:      traces,
	})
}

// timeRun times run on m and returns the scaling row for it.
func timeRun(m *multicore.Machine, accessesPerCore int, run func() error) (ScalingResult, error) {
	// Trace construction allocates tens of megabytes; collect now so a
	// background mark phase does not steal CPU inside the timed window.
	runtime.GC()
	start := time.Now()
	if err := run(); err != nil {
		return ScalingResult{}, err
	}
	wall := time.Since(start).Seconds()
	r := ScalingResult{
		Cores:       m.NumCores(),
		Accesses:    int64(m.NumCores()) * int64(accessesPerCore),
		SimCycles:   m.Stats().Cycles,
		WallSeconds: wall,
	}
	if wall > 0 {
		r.CyclesPerSec = float64(r.SimCycles) / wall
	}
	return r, nil
}

// RunMulticoreScaling measures stepper throughput at each core count.
func RunMulticoreScaling(coreCounts []int, accessesPerCore int) ([]ScalingResult, error) {
	var out []ScalingResult
	for _, n := range coreCounts {
		m, err := scalingMachine(n, accessesPerCore)
		if err != nil {
			return nil, err
		}
		r, err := timeRun(m, accessesPerCore, m.Run)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// DefaultInspectStride is the frame-capture stride the inspect-on
// benchmark row uses, and the stride the service documentation recommends
// as a starting point. The stepper simulates tens of millions of accesses
// per second, so 64Ki accesses per frame still yields hundreds of frames
// per second — far beyond what a live heatmap needs — while amortizing
// the ~tens-of-microseconds capture (occupancy reduction + JSON encoding)
// to well under the 5% overhead budget the benchmark gates.
const DefaultInspectStride = 65536

// RunMulticoreScalingInspect measures the serial stepper with a live
// frame capture attached at the given stride (0 = DefaultInspectStride).
// The capture mirrors the service's inline cost — occupancy reduction
// into a reused frame plus JSON encoding — so the row gates the real
// overhead a colserved -inspect-every deployment pays.
func RunMulticoreScalingInspect(coreCounts []int, accessesPerCore int, every int64) ([]ScalingResult, error) {
	if every <= 0 {
		every = DefaultInspectStride
	}
	var out []ScalingResult
	for _, n := range coreCounts {
		m, err := scalingMachine(n, accessesPerCore)
		if err != nil {
			return nil, err
		}
		red := inspect.NewMachineReducer(m, inspect.WindowOwner(n, 32))
		var frame inspect.Frame
		var encoded int64
		m.SetInspector(every, func(done int64) {
			red.Reduce(&frame, done, false)
			if b, err := json.Marshal(&frame); err == nil {
				encoded += int64(len(b))
			}
		})
		r, err := timeRun(m, accessesPerCore, func() error {
			return m.RunContext(context.Background(), 0, nil)
		})
		if err != nil {
			return nil, err
		}
		if encoded == 0 {
			return nil, fmt.Errorf("experiments: inspect row captured no frames")
		}
		r.InspectEvery = every
		out = append(out, r)
	}
	return out, nil
}

// ScalingTable renders the scaling sweep.
func ScalingTable(rows []ScalingResult) *Table {
	t := &Table{
		Title:   "Multicore stepper throughput",
		Headers: []string{"stepper", "cores", "accesses", "sim cycles", "wall s", "sim cycles/s"},
	}
	for _, r := range rows {
		stepper := "serial"
		if r.InspectEvery > 0 {
			stepper = fmt.Sprintf("inspect K=%d", r.InspectEvery)
		}
		t.AddRow(stepper, fmt.Sprintf("%d", r.Cores), fmt.Sprintf("%d", r.Accesses),
			fmt.Sprintf("%d", r.SimCycles), fmt.Sprintf("%.3f", r.WallSeconds),
			fmt.Sprintf("%.0f", r.CyclesPerSec))
	}
	return t
}
