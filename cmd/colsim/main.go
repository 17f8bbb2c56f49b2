// Command colsim runs a memory-reference trace through a configurable
// column cache and reports hit/miss statistics and cycle counts.
//
// Usage:
//
//	colsim [flags] trace-file [trace-file...]
//	colsim [flags] -synth stream|random|chase
//
// The trace file uses the text format "R|W hex-addr [think]" (use -binary
// for the compact binary format). Column mappings are given as
// -map base:size:col0[,col1...] and may repeat. With several trace files
// each becomes a round-robin job sharing the cache (quantum set by
// -quantum, per-job masks by -jobmask idx:col[,col...]) and per-job CPI is
// reported — a Figure 5-style experiment on user traces.
//
// With -adaptive the online controller (internal/controller) takes over the
// tint table: every tint — one per -map region, plus the default tint — is
// watched by a shadow-tag utility monitor, and at every -epoch accesses the
// columns are redistributed by marginal utility. The per-epoch decision log
// and the remap count are printed after the run.
//
// With -cores N the traces instead run on an N-core machine
// (internal/multicore): each core replays one trace through a private L1
// kept coherent by a snooping MSI bus over a shared, column-partitioned L2
// (-l2sets/-l2ways/-l2hit). One trace per core; a single trace is replicated
// to every core in disjoint 4GB address windows. N -binary trace files are
// streamed, one per core, instead of being loaded first. -l2cols
// core:col[,col...] restricts a core's L2 replacement to the given columns
// (repeatable). The single-core flags -map, -plan, -adaptive, -describe,
// -reuse, -jobmask, -quantum, -epoch and -mingain are rejected with -cores.
//
// The flags translate to the colcache machine specs, and internal/build
// turns those into the machine, as it does for colserved's specs.
//
// Example: isolate a stream at 0x1000 (4KB) in column 0 of a 16KB cache:
//
//	colsim -ways 4 -sets 128 -map 1000:1000:0 trace.txt
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	colcache "colcache"
	"colcache/internal/build"
	"colcache/internal/controller"
	"colcache/internal/inspect"
	"colcache/internal/layout"
	"colcache/internal/memory"
	"colcache/internal/memsys"
	"colcache/internal/memtrace"
	"colcache/internal/multicore"
	"colcache/internal/replacement"
	"colcache/internal/sched"
	"colcache/internal/workloads/synth"
)

// mapFlag parses repeated -map flags into region specs named map@<base>.
type mapFlag struct {
	entries []colcache.MapSpec
}

func (m *mapFlag) String() string { return fmt.Sprintf("%d mappings", len(m.entries)) }

func (m *mapFlag) Set(v string) error {
	parts := strings.Split(v, ":")
	if len(parts) != 3 {
		return fmt.Errorf("want base:size:columns, got %q", v)
	}
	base, err := strconv.ParseUint(parts[0], 16, 64)
	if err != nil {
		return fmt.Errorf("bad base %q: %v", parts[0], err)
	}
	size, err := strconv.ParseUint(parts[1], 16, 64)
	if err != nil {
		return fmt.Errorf("bad size %q: %v", parts[1], err)
	}
	var cols []int
	for _, c := range strings.Split(parts[2], ",") {
		n, err := strconv.Atoi(c)
		if err != nil {
			return fmt.Errorf("bad column %q: %v", c, err)
		}
		cols = append(cols, n)
	}
	m.entries = append(m.entries, colcache.MapSpec{Name: fmt.Sprintf("map@%x", base), Base: base, Size: size, Columns: cols})
	return nil
}

func main() {
	dm := build.WithDefaults(colcache.MachineSpec{})
	dmc := build.MulticoreWithDefaults(colcache.MulticoreSpec{})
	da := build.AdaptiveWithDefaults(colcache.AdaptiveSpec{})
	var (
		lineBytes = flag.Int("line", dm.LineBytes, "cache line bytes (power of two)")
		sets      = flag.Int("sets", dm.Sets, "cache sets (power of two)")
		ways      = flag.Int("ways", dm.Ways, "cache ways = columns")
		pageBytes = flag.Int("page", dm.PageBytes, "page bytes (mapping granularity)")
		policy    = flag.String("policy", dm.Policy, "replacement policy: lru, plru, fifo, random")
		penalty   = flag.Int("penalty", dm.MissPenalty, "miss penalty cycles")
		binary    = flag.Bool("binary", false, "trace file is in binary format")
		stream    = flag.Bool("stream", false, "stream a single -binary trace file through the cache in fixed-size chunks instead of loading it into memory first")
		synthKind = flag.String("synth", "", "generate a synthetic workload instead of reading a file: stream, random, chase")
		synthN    = flag.Int("n", 10000, "synthetic workload size (accesses or passes scale)")
		quantum   = flag.Int64("quantum", 1024, "round-robin quantum in instructions (multi-trace mode)")
		describe  = flag.Bool("describe", false, "print the machine's mapping state after the run")
		reuse     = flag.Bool("reuse", false, "print the trace's reuse-distance histogram and LRU hit-rate estimates")
		planPath  = flag.String("plan", "", "apply a saved layout plan (from layouttool -o) before the run")
		adaptive  = flag.Bool("adaptive", false, "let the online controller redistribute columns across tints at epoch boundaries")
		epoch     = flag.Int64("epoch", da.EpochAccesses, "adaptive decision interval in cache accesses")
		minGain   = flag.Int64("mingain", da.MinGainHits, "adaptive hysteresis: predicted sampled-hit gain required to remap")
		inspEvery = flag.Int("inspect-every", 0, "dump an occupancy frame every N accesses (needs -inspect-out)")
		inspOut   = flag.String("inspect-out", "", "occupancy frame JSONL destination (- for stdout)")
		cores     = flag.Int("cores", 0, "multicore mode: cores with private L1s over a shared snooped L2 (0 = single-core)")
		l2sets    = flag.Int("l2sets", dmc.L2Sets, "multicore mode: shared L2 sets (power of two)")
		l2ways    = flag.Int("l2ways", dmc.L2Ways, "multicore mode: shared L2 ways = columns")
		l2hit     = flag.Int("l2hit", dmc.L2HitCycles, "multicore mode: L2 hit cycles")
	)
	var maps mapFlag
	flag.Var(&maps, "map", "map hex-base:hex-size:col[,col...] to columns (repeatable)")
	var jobMasks jobMaskFlag
	flag.Var(&jobMasks, "jobmask", "per-job column mask idx:col[,col...] (repeatable, multi-trace mode)")
	var l2cols jobMaskFlag
	flag.Var(&l2cols, "l2cols", "multicore mode: restrict a core's L2 columns, core:col[,col...] (repeatable)")
	flag.Parse()
	m := colcache.MachineSpec{LineBytes: *lineBytes, Sets: *sets, Ways: *ways,
		PageBytes: *pageBytes, Policy: *policy, MissPenalty: *penalty}

	if *cores > 0 {
		if name := singleCoreFlagSet(); name != "" {
			fmt.Fprintf(os.Stderr, "colsim: -%s does not apply to -cores\n", name)
			os.Exit(1)
		}
	}

	var (
		traces []memtrace.Trace
		tr     memtrace.Trace
		err    error
	)
	// -cores N over N binary files streams each file to its core.
	streamCores := *cores > 0 && *binary && *synthKind == "" && flag.NArg() == *cores
	if *stream {
		if !*binary || *synthKind != "" || *cores > 0 || *reuse || flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "colsim: -stream wants exactly one -binary trace file (no -synth, -cores or -reuse)")
			os.Exit(1)
		}
	} else if !streamCores {
		traces, err = loadTraces(*synthKind, *synthN, *binary)
		if err != nil {
			fmt.Fprintf(os.Stderr, "colsim: %v\n", err)
			os.Exit(1)
		}
		tr = traces[0]
	}

	if *inspEvery > 0 {
		if *inspOut == "" {
			fmt.Fprintln(os.Stderr, "colsim: -inspect-every needs -inspect-out (use - for stdout)")
			os.Exit(1)
		}
		if *stream || (*cores == 0 && len(traces) > 1) {
			fmt.Fprintln(os.Stderr, "colsim: inspection wants a single in-memory trace or -cores N")
			os.Exit(1)
		}
	}

	if *cores > 0 {
		var paths []string
		if streamCores {
			paths = flag.Args()
		}
		mc := colcache.MulticoreSpec{L2Sets: *l2sets, L2Ways: *l2ways, L2HitCycles: *l2hit}
		if err := runMulticore(traces, paths, *cores, m, mc, l2cols, *inspEvery, *inspOut); err != nil {
			fmt.Fprintf(os.Stderr, "colsim: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var adapt *colcache.AdaptiveSpec
	if *adaptive {
		adapt = &colcache.AdaptiveSpec{EpochAccesses: *epoch, MinGainHits: *minGain}
	}
	sys, ctl, err := singleCoreSystem(m, maps.entries, *planPath, adapt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "colsim: %v\n", err)
		os.Exit(1)
	}
	g := sys.Geometry()

	fmt.Printf("cache:        %d sets × %d ways × %dB = %dB, policy %s\n",
		*sets, *ways, *lineBytes, *sets**ways**lineBytes, *policy)
	if *stream {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "colsim: %v\n", err)
			os.Exit(1)
		}
		done, cycles, err := sys.Replay(context.Background(), memtrace.NewDecoder(f), memsys.ReplayOptions{})
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "colsim: streaming %s: %v\n", flag.Arg(0), err)
			os.Exit(1)
		}
		st := sys.Stats()
		fmt.Printf("trace:        %d accesses (streamed)\n", done)
		fmt.Printf("cycles:       %d\n", cycles)
		fmt.Printf("CPI:          %.3f\n", st.CPI())
		fmt.Printf("cache:        %s\n", st.Cache)
		fmt.Printf("TLB hit rate: %.2f%%\n", 100*st.TLB.HitRate())
	} else if len(traces) == 1 {
		var cycles int64
		if *inspEvery > 0 {
			out, closeOut, err := openInspectOut(*inspOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "colsim: %v\n", err)
				os.Exit(1)
			}
			sys.EnablePerTintStats()
			red := inspect.NewSystemReducer(sys)
			enc := json.NewEncoder(out)
			var frame inspect.Frame
			var encErr error
			total := len(tr)
			cycles, err = sys.RunContext(context.Background(), tr, memsys.RunOptions{
				InspectEvery: *inspEvery,
				OnInspect: func(done int, st memsys.Stats) {
					red.Reduce(&frame, int64(done), done == total)
					if err := enc.Encode(&frame); err != nil && encErr == nil {
						encErr = err
					}
				},
			})
			if err == nil {
				err = closeOut()
			}
			if err == nil {
				err = encErr
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "colsim: inspect dump: %v\n", err)
				os.Exit(1)
			}
		} else {
			cycles = sys.Run(tr)
		}
		st := sys.Stats()
		fmt.Printf("trace:        %s\n", memtrace.Summarize(tr, g))
		fmt.Printf("cycles:       %d\n", cycles)
		fmt.Printf("CPI:          %.3f\n", st.CPI())
		fmt.Printf("cache:        %s\n", st.Cache)
		fmt.Printf("TLB hit rate: %.2f%%\n", 100*st.TLB.HitRate())
	} else {
		rr, err := sched.NewRoundRobin(sys, *quantum)
		if err != nil {
			fmt.Fprintf(os.Stderr, "colsim: %v\n", err)
			os.Exit(1)
		}
		for i, t := range traces {
			job := &sched.Job{
				Name:               fmt.Sprintf("job%d", i),
				Trace:              t,
				TargetInstructions: t.Instructions(),
			}
			if m, ok := jobMasks.masks[i]; ok {
				job.Mask = m
			}
			if err := rr.Add(job); err != nil {
				fmt.Fprintf(os.Stderr, "colsim: %v\n", err)
				os.Exit(1)
			}
		}
		for _, st := range rr.Run() {
			fmt.Println(st)
		}
	}
	if ctl != nil {
		ctl.FinishEpoch()
		printDecisions(sys, ctl)
	}
	if *describe {
		fmt.Print(sys.Describe())
	}
	if *reuse {
		printReuse(tr, g)
	}
}

// singleCoreSystem builds the machine the single-core flags describe: m
// with the -map regions, then the -plan layout when planPath is set, then
// the adaptive controller over every tint when adapt is non-nil.
func singleCoreSystem(m colcache.MachineSpec, maps []colcache.MapSpec, planPath string,
	adapt *colcache.AdaptiveSpec) (*memsys.System, *controller.Controller, error) {
	sys, err := build.System(m, maps)
	if err != nil {
		return nil, nil, err
	}
	if planPath != "" {
		f, err := os.Open(planPath)
		if err != nil {
			return nil, nil, err
		}
		plan, err := layout.LoadPlan(f)
		f.Close()
		if err != nil {
			return nil, nil, err
		}
		if _, err := layout.Apply(plan, sys, 0); err != nil {
			return nil, nil, fmt.Errorf("applying plan: %w", err)
		}
	}
	if adapt == nil {
		return sys, nil, nil
	}
	ctl, err := build.Adaptive(sys, m, *adapt)
	if err != nil {
		return nil, nil, err
	}
	return sys, ctl, nil
}

// singleCoreFlagSet names a flag set on the command line that only a
// single-core run reads (the first in flag.Visit's sorted order), or
// returns "".
func singleCoreFlagSet() string {
	var name string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "map", "plan", "adaptive", "describe", "reuse", "jobmask",
			"quantum", "epoch", "mingain":
			if name == "" {
				name = f.Name
			}
		}
	})
	return name
}

// runMulticore executes the -cores path: one trace per core through private
// L1 column caches of m's shape kept coherent over a shared L2 of mc's
// shape, partitioned by l2cols. The traces are in memory, or, when paths
// is non-nil, each path is a binary trace file streamed to its core; the
// files close after the run.
func runMulticore(traces []memtrace.Trace, paths []string, cores int, m colcache.MachineSpec,
	mc colcache.MulticoreSpec, l2cols jobMaskFlag, inspEvery int, inspOut string) error {
	var decoders []*memtrace.Decoder
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		decoders = append(decoders, memtrace.NewDecoder(f))
	}
	// nameFile prefixes a streamed core's decode error with its file.
	nameFile := func(err error) error {
		var te *multicore.TraceError
		if errors.As(err, &te) && paths != nil {
			return fmt.Errorf("%s: %w", paths[te.Core], err)
		}
		return err
	}
	// User traces may alias, so they keep their addresses; a single trace
	// replicated to every core runs in disjoint per-core windows, where
	// each shared-L2 line is attributable to the core that owns it.
	mc.SharedAddresses = true
	switch {
	case decoders != nil: // one streamed file per core, as main checked
	case len(traces) == 1 && cores > 1:
		mc.SharedAddresses = false
		replicas := make([]memtrace.Trace, cores)
		for i := range replicas {
			replicas[i] = traces[0]
		}
		traces = replicas
	case len(traces) != cores:
		return fmt.Errorf("multicore: %d cores but %d traces", cores, len(traces))
	}
	mc.Cores = make([]colcache.CoreSpec, cores)
	for i, mask := range l2cols.masks {
		if i >= cores {
			return fmt.Errorf("-l2cols core %d out of range (%d cores)", i, cores)
		}
		mc.Cores[i].Columns = mask.Ways(64)
	}
	mach, err := build.Multicore(m, mc, traces, decoders)
	if err != nil {
		return nameFile(err)
	}
	var closeOut func() error
	var encErr error
	if inspEvery > 0 {
		out, c, err := openInspectOut(inspOut)
		if err != nil {
			return err
		}
		closeOut = c
		var owner func(memory.Addr) int
		if !mc.SharedAddresses {
			owner = inspect.WindowOwner(cores)
		}
		red := inspect.NewMachineReducer(mach, owner)
		enc := json.NewEncoder(out)
		var frame inspect.Frame
		mach.SetInspector(int64(inspEvery), func(done int64) {
			red.Reduce(&frame, done, mach.Done())
			if err := enc.Encode(&frame); err != nil && encErr == nil {
				encErr = err
			}
		})
	}
	if inspEvery > 0 {
		// Only RunContext fires the inspector.
		err = mach.RunContext(context.Background(), 0, nil)
	} else {
		err = mach.Run()
	}
	if err != nil {
		return nameFile(err)
	}
	if closeOut != nil {
		if err := closeOut(); err != nil {
			return fmt.Errorf("inspect dump: %w", err)
		}
		if encErr != nil {
			return fmt.Errorf("inspect dump: %w", encErr)
		}
	}
	st := mach.Stats()
	fmt.Printf("machine:      %d cores, L1 %d×%d×%dB private, L2 %d×%d×%dB shared\n",
		mach.NumCores(), m.Sets, m.Ways, m.LineBytes, mc.L2Sets, mc.L2Ways, m.LineBytes)
	for i, cs := range st.Cores {
		fmt.Printf("core%d:        instrs=%d cycles=%d CPI=%.3f l1{%s} l2acc=%d l2miss=%d inv=%d int=%d upg=%d mask=%s\n",
			i, cs.Instructions, cs.Cycles, cs.CPI(), cs.L1,
			cs.L2Accesses, cs.L2Misses, cs.InvalidationsRecv, cs.Interventions, cs.Upgrades,
			mach.L2Mask(i))
	}
	fmt.Printf("bus:          rd=%d rdx=%d upgr=%d inv=%d int=%d races=%d\n",
		st.Bus.Reads, st.Bus.ReadXs, st.Bus.Upgrades,
		st.Bus.Invalidations, st.Bus.Interventions, st.Bus.WritebackRaces)
	fmt.Printf("L2:           %s\n", st.L2)
	fmt.Printf("makespan:     %d cycles (aggregate CPI %.3f)\n", st.Cycles, st.CPI())
	return nil
}

// openInspectOut opens the occupancy-frame JSONL destination; "-" means
// stdout. The returned close flushes (and closes, for files).
func openInspectOut(path string) (*bufio.Writer, func() error, error) {
	if path == "-" {
		w := bufio.NewWriter(os.Stdout)
		return w, w.Flush, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	w := bufio.NewWriter(f)
	return w, func() error {
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}

// printDecisions renders the controller's epoch log and remap economy.
func printDecisions(sys *memsys.System, ctl *controller.Controller) {
	fmt.Println("adaptive decisions:")
	for _, d := range ctl.Decisions() {
		fmt.Printf("  %s\n", d)
	}
	fmt.Printf("tint remaps:  %d table writes\n", sys.Tints().Remaps())
}

// printReuse renders the reuse-distance histogram and the LRU hit rates it
// predicts across cache sizes.
func printReuse(tr memtrace.Trace, g memory.Geometry) {
	r := memtrace.ReuseDistances(tr, g)
	fmt.Printf("reuse distances: %d accesses, %d cold\n", r.Accesses, r.ColdMisses)
	for b, n := range r.Histogram {
		if n == 0 {
			continue
		}
		fmt.Printf("  [%6d,%6d) lines: %d\n", 1<<uint(b), 1<<uint(b+1), n)
	}
	for _, lines := range []int{16, 64, 256, 1024, 4096} {
		fmt.Printf("  est. LRU hit rate @ %4d lines (%5dB): %.1f%%\n",
			lines, lines*g.LineBytes, 100*r.HitRateAt(lines))
	}
}

// jobMaskFlag parses repeated "idx:col[,col...]" per-job masks.
type jobMaskFlag struct {
	masks map[int]replacement.Mask
}

func (j *jobMaskFlag) String() string { return fmt.Sprintf("%d job masks", len(j.masks)) }

func (j *jobMaskFlag) Set(v string) error {
	idxStr, colStr, ok := strings.Cut(v, ":")
	if !ok {
		return fmt.Errorf("want idx:col[,col...], got %q", v)
	}
	idx, err := strconv.Atoi(idxStr)
	if err != nil || idx < 0 {
		return fmt.Errorf("bad job index %q", idxStr)
	}
	var cols []int
	for _, c := range strings.Split(colStr, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(c))
		if err != nil {
			return fmt.Errorf("bad column %q: %v", c, err)
		}
		cols = append(cols, n)
	}
	if j.masks == nil {
		j.masks = make(map[int]replacement.Mask)
	}
	j.masks[idx] = replacement.Of(cols...)
	return nil
}

func loadTraces(synthKind string, n int, binary bool) ([]memtrace.Trace, error) {
	switch synthKind {
	case "stream":
		return []memtrace.Trace{synth.Stream(0, uint64(n)*64, 4, 2).Trace}, nil
	case "random":
		return []memtrace.Trace{synth.Random(0, 1<<20, n, 1).Trace}, nil
	case "chase":
		return []memtrace.Trace{synth.PointerChase(0, 1024, 64, n, 1).Trace}, nil
	case "":
	default:
		return nil, fmt.Errorf("unknown synthetic workload %q", synthKind)
	}
	if flag.NArg() < 1 {
		return nil, fmt.Errorf("want at least one trace file (or -synth)")
	}
	var out []memtrace.Trace
	for _, path := range flag.Args() {
		tr, err := readTraceFile(path, binary)
		if err != nil {
			return nil, err
		}
		out = append(out, tr)
	}
	return out, nil
}

func readTraceFile(path string, binary bool) (memtrace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var tr memtrace.Trace
	if binary {
		tr, err = memtrace.ReadBinary(f)
	} else {
		tr, err = memtrace.ReadText(f)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}
