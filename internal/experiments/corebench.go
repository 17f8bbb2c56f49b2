package experiments

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"colcache/internal/cache"
	"colcache/internal/memory"
	"colcache/internal/memsys"
	"colcache/internal/memtrace"
)

// Core benchmark: the regression record CI gates on (BENCH_CORE.json). Two
// measurements of the flat-state hot path:
//
//   - the multicore stepper's simulated-cycles-per-second at 1/2/4/8 cores;
//   - the chunked binary-trace replay's accesses-per-second through memsys,
//     covering the decoder → batch → access pipeline.
//
// Every row is a best-of-Reps: wall-clock benchmarks on shared CI runners
// see multi-x noise from neighbors, and the maximum over a few repetitions
// estimates the machine's actual capability far more stably than a mean.

// minInspectThroughput is the structural floor on the inspect-on row: the
// serial stepper with a frame capture attached at the default stride must
// keep at least this fraction of the uninstrumented serial stepper's
// throughput, measured in the same run on the same host. The capture is
// allocation-free at steady state and amortized over thousands of
// accesses per frame, so real degradations (per-access work leaking into
// the capture path, a stride bug firing every access) land far below it.
const minInspectThroughput = 0.95

// CoreBench is the committed benchmark snapshot.
type CoreBench struct {
	Reps           int             `json:"reps"`                     // repetitions per row; best kept
	Stepper        []ScalingResult `json:"stepper"`                  // serial rows
	StepperInspect []ScalingResult `json:"stepperInspect,omitempty"` // serial + frame capture at the default stride
	// InspectOverheadRatio is the best paired inspect/serial throughput
	// ratio: each rep measures both steppers back to back and the maximum
	// ratio over reps is kept, so common-mode host noise (frequency
	// scaling, noisy neighbors) cancels out of the overhead gate.
	InspectOverheadRatio float64     `json:"inspectOverheadRatio,omitempty"`
	Replay               ReplayBench `json:"replay"`
}

// ReplayBench measures the streaming binary-replay pipeline.
type ReplayBench struct {
	Accesses       int64   `json:"accesses"`
	WallSeconds    float64 `json:"wallSeconds"`
	AccessesPerSec float64 `json:"accessesPerSec"`
}

// RunCoreBench measures the stepper at each core count and the streaming
// replay pipeline, keeping the best of reps repetitions per row.
func RunCoreBench(coreCounts []int, accessesPerCore, reps int) (*CoreBench, error) {
	if reps < 1 {
		reps = 1
	}
	out := &CoreBench{Reps: reps}
	for _, n := range coreCounts {
		var best ScalingResult
		for r := 0; r < reps; r++ {
			rows, err := RunMulticoreScaling([]int{n}, accessesPerCore)
			if err != nil {
				return nil, err
			}
			if rows[0].CyclesPerSec > best.CyclesPerSec {
				best = rows[0]
			}
		}
		out.Stepper = append(out.Stepper, best)
	}
	// One inspect-on row at the largest core count: the capture overhead is
	// per-frame, not per-core, so one machine size gates it. The overhead
	// ratio is measured pairwise — an uninstrumented serial run immediately
	// before each inspect run — because on shared hosts the machine's speed
	// drifts by integer factors between rows, so comparing against the
	// separately-timed serial row above would gate host noise, not capture
	// cost. The best per-rep ratio is kept: noise only ever makes a pair
	// look worse, never better, so the maximum converges on the true ratio.
	// Each pair costs well under 100ms, so a higher floor of pairs buys the
	// ratio's stability for free.
	if n := coreCounts[len(coreCounts)-1]; n >= 1 {
		pairs := 2 * reps
		if pairs < 6 {
			pairs = 6
		}
		var best ScalingResult
		for r := 0; r < pairs; r++ {
			serRows, err := RunMulticoreScaling([]int{n}, accessesPerCore)
			if err != nil {
				return nil, err
			}
			insRows, err := RunMulticoreScalingInspect([]int{n}, accessesPerCore, 0)
			if err != nil {
				return nil, err
			}
			if insRows[0].CyclesPerSec > best.CyclesPerSec {
				best = insRows[0]
			}
			if ser := serRows[0].CyclesPerSec; ser > 0 {
				if ratio := insRows[0].CyclesPerSec / ser; ratio > out.InspectOverheadRatio {
					out.InspectOverheadRatio = ratio
				}
			}
		}
		out.StepperInspect = append(out.StepperInspect, best)
	}
	replay, err := runReplayBench(int64(accessesPerCore), reps)
	if err != nil {
		return nil, err
	}
	out.Replay = replay
	return out, nil
}

// runReplayBench streams an encoded idct-derived trace through memsys via
// the chunked decoder and reports the best accesses-per-second of reps runs.
func runReplayBench(accesses int64, reps int) (ReplayBench, error) {
	tr := scalingTrace(0, int(accesses))
	var buf bytes.Buffer
	if err := memtrace.WriteBinary(&buf, tr); err != nil {
		return ReplayBench{}, err
	}
	data := buf.Bytes()
	best := ReplayBench{Accesses: accesses}
	for r := 0; r < reps; r++ {
		sys, err := memsys.New(memsys.Config{
			Geometry: memory.MustGeometry(32, 4096),
			Cache:    cache.Config{LineBytes: 32, NumSets: 16, NumWays: 2},
			Timing:   memsys.DefaultTiming,
		})
		if err != nil {
			return ReplayBench{}, err
		}
		start := time.Now()
		done, _, err := sys.Replay(context.Background(), memtrace.NewDecoder(bytes.NewReader(data)),
			memsys.ReplayOptions{})
		wall := time.Since(start).Seconds()
		if err != nil {
			return ReplayBench{}, err
		}
		if done != accesses {
			return ReplayBench{}, fmt.Errorf("experiments: replay bench ran %d of %d accesses", done, accesses)
		}
		if wall > 0 && float64(done)/wall > best.AccessesPerSec {
			best.WallSeconds = wall
			best.AccessesPerSec = float64(done) / wall
		}
	}
	return best, nil
}

// CompareCoreBench checks a fresh run against the committed baseline and
// returns one problem string per row whose throughput regressed by more
// than tolerance (a fraction: 0.25 fails below 75% of the baseline).
// Rows missing from either side are reported too — a gate that silently
// skips rows is not a gate.
func CompareCoreBench(current, baseline *CoreBench, tolerance float64) []string {
	problems := compareRows("serial", current.Stepper, baseline.Stepper, tolerance)
	if floor := baseline.Replay.AccessesPerSec * (1 - tolerance); current.Replay.AccessesPerSec < floor {
		problems = append(problems, fmt.Sprintf(
			"replay: %.0f accesses/sec is below the regression floor %.0f (baseline %.0f)",
			current.Replay.AccessesPerSec, floor, baseline.Replay.AccessesPerSec))
	}
	problems = append(problems, checkInspectOverhead(current, baseline)...)
	return problems
}

// checkInspectOverhead enforces the inspect-on structural floor on the
// pairwise overhead ratio RunCoreBench measured (inspect and serial runs
// back to back within each pair, best ratio kept). Machine-relative and
// temporally adjacent, so it holds on noisy shared runners where comparing
// independently-timed rows cannot. The row's absolute throughput is NOT
// gated against the baseline: it is the serial row's throughput times
// this ratio, both of which are gated already, and the inspect row is
// measured last in the run — when a shared host has typically drifted
// furthest from the baseline's conditions — so an absolute floor on it
// would mostly gate that drift. A current run missing the ratio a
// baseline records still fails: a gate that silently skips rows is not a
// gate. Baselines from before the ratio existed are skipped.
func checkInspectOverhead(current, baseline *CoreBench) []string {
	if baseline.InspectOverheadRatio > 0 && current.InspectOverheadRatio <= 0 {
		return []string{"inspect: baseline records an overhead ratio but the current run measured none"}
	}
	if current.InspectOverheadRatio <= 0 {
		return nil
	}
	if current.InspectOverheadRatio < minInspectThroughput {
		return []string{fmt.Sprintf(
			"inspect: frame capture costs %.1f%% of paired serial throughput; floor is %.0f%%",
			100*(1-current.InspectOverheadRatio), 100*(1-minInspectThroughput))}
	}
	return nil
}

// compareRows gates one stepper's rows against its baseline rows by core
// count.
func compareRows(label string, current, baseline []ScalingResult, tolerance float64) []string {
	var problems []string
	base := make(map[int]ScalingResult, len(baseline))
	for _, r := range baseline {
		base[r.Cores] = r
	}
	seen := make(map[int]bool, len(current))
	for _, r := range current {
		seen[r.Cores] = true
		b, ok := base[r.Cores]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s cores=%d: no baseline row", label, r.Cores))
			continue
		}
		floor := b.CyclesPerSec * (1 - tolerance)
		if r.CyclesPerSec < floor {
			problems = append(problems, fmt.Sprintf(
				"%s cores=%d: %.0f cycles/sec is below the regression floor %.0f (baseline %.0f, tolerance %.0f%%)",
				label, r.Cores, r.CyclesPerSec, floor, b.CyclesPerSec, tolerance*100))
		}
	}
	for _, r := range baseline {
		if !seen[r.Cores] {
			problems = append(problems, fmt.Sprintf("%s cores=%d: baseline row not measured", label, r.Cores))
		}
	}
	return problems
}

// CoreBenchTable renders the snapshot.
func CoreBenchTable(cb *CoreBench) *Table {
	rows := append(append([]ScalingResult{}, cb.Stepper...), cb.StepperInspect...)
	t := ScalingTable(rows)
	t.Title = fmt.Sprintf("Core benchmark (best of %d)", cb.Reps)
	t.AddRow("replay", "-", fmt.Sprintf("%d", cb.Replay.Accesses), "-",
		fmt.Sprintf("%.3f", cb.Replay.WallSeconds),
		fmt.Sprintf("%.0f acc/s", cb.Replay.AccessesPerSec))
	if cb.InspectOverheadRatio > 0 {
		t.AddRow("inspect/serial", "-", "-", "-", "-",
			fmt.Sprintf("%.2fx paired", cb.InspectOverheadRatio))
	}
	return t
}
