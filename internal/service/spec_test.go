package service

import (
	"errors"
	"strings"
	"testing"

	colcache "colcache"
	"colcache/internal/memtrace"
	"colcache/internal/workloads/gzipsim"
)

func TestValidateMachine(t *testing.T) {
	lim := DefaultLimits
	cases := []struct {
		name string
		m    colcache.MachineSpec
		want string // substring of the error, "" = valid
	}{
		{"defaults", colcache.MachineSpec{}, ""},
		{"explicit", colcache.MachineSpec{LineBytes: 64, Sets: 128, Ways: 8, PageBytes: 4096, Policy: "plru", MissPenalty: 40}, ""},
		{"bad line", colcache.MachineSpec{LineBytes: 48}, "line_bytes"},
		{"sets not pow2", colcache.MachineSpec{Sets: 3}, "sets"},
		{"sets too big", colcache.MachineSpec{Sets: 1 << 20}, "sets"},
		{"too many ways", colcache.MachineSpec{Ways: 65}, "ways"},
		{"page under line", colcache.MachineSpec{LineBytes: 64, PageBytes: 32}, "page_bytes"},
		{"bad policy", colcache.MachineSpec{Policy: "mru"}, "policy"},
		{"negative penalty", colcache.MachineSpec{MissPenalty: -1}, "miss_penalty"},
	}
	for _, tc := range cases {
		err := ValidateMachine(tc.m, lim)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestValidateSimTraceSources(t *testing.T) {
	lim := DefaultLimits
	wl := &colcache.WorkloadSpec{Name: "stream"}

	if err := ValidateSim(colcache.SimSpec{Workload: wl}, false, lim); err != nil {
		t.Fatalf("workload source: %v", err)
	}
	if err := ValidateSim(colcache.SimSpec{TraceText: "R 0\n"}, false, lim); err != nil {
		t.Fatalf("trace_text source: %v", err)
	}
	if err := ValidateSim(colcache.SimSpec{}, true, lim); err != nil {
		t.Fatalf("upload source: %v", err)
	}
	if err := ValidateSim(colcache.SimSpec{}, false, lim); err == nil {
		t.Fatal("no source accepted")
	}
	if err := ValidateSim(colcache.SimSpec{Workload: wl, TraceText: "R 0\n"}, false, lim); err == nil {
		t.Fatal("two sources accepted")
	}
	if err := ValidateSim(colcache.SimSpec{Workload: wl}, true, lim); err == nil {
		t.Fatal("workload plus upload accepted")
	}
	for _, text := range []string{"0", "R 0\nW zz\n", "# comments only\n"} {
		if err := ValidateSim(colcache.SimSpec{TraceText: text}, false, lim); err == nil {
			t.Errorf("trace_text %q accepted", text)
		}
	}
	small := Limits{MaxTraceAccesses: 2}
	if err := ValidateSim(colcache.SimSpec{TraceText: "R 0\nR 20\nR 40\n"}, false, small); !errors.Is(err, memtrace.ErrTraceTooLarge) {
		t.Errorf("oversized trace_text: %v, want ErrTraceTooLarge", err)
	}
}

func TestValidateSimMapsAndAdaptive(t *testing.T) {
	lim := DefaultLimits
	wl := &colcache.WorkloadSpec{Name: "stream"}
	base := colcache.SimSpec{Workload: wl, Machine: colcache.MachineSpec{Ways: 4}}

	ok := base
	ok.Maps = []colcache.MapSpec{{Base: 0, Size: 4096, Columns: []int{0, 1}}}
	if err := ValidateSim(ok, false, lim); err != nil {
		t.Fatalf("valid map rejected: %v", err)
	}

	bad := base
	bad.Maps = []colcache.MapSpec{{Base: 0, Size: 4096, Columns: []int{4}}}
	if err := ValidateSim(bad, false, lim); err == nil {
		t.Fatal("column beyond ways accepted")
	}
	bad.Maps = []colcache.MapSpec{{Base: 0, Size: 0, Columns: []int{0}}}
	if err := ValidateSim(bad, false, lim); err == nil {
		t.Fatal("zero-size map accepted")
	}

	// Adaptive needs at least tints <= ways: 3 maps + default tint = 4 tints
	// fits 4 ways, 4 maps does not.
	ad := base
	ad.Adaptive = &colcache.AdaptiveSpec{}
	for i := 0; i < 3; i++ {
		ad.Maps = append(ad.Maps, colcache.MapSpec{Base: uint64(i) << 16, Size: 4096, Columns: []int{i}})
	}
	if err := ValidateSim(ad, false, lim); err != nil {
		t.Fatalf("3 maps + adaptive on 4 ways rejected: %v", err)
	}
	ad.Maps = append(ad.Maps, colcache.MapSpec{Base: 1 << 20, Size: 4096, Columns: []int{3}})
	if err := ValidateSim(ad, false, lim); err == nil {
		t.Fatal("adaptive with more tints than columns accepted")
	}
}

// TestBuildWorkloadRegistry exercises every name the validator admits.
func TestBuildWorkloadRegistry(t *testing.T) {
	names := []string{
		"stream", "strided", "random", "chase", "phaseshift", "writesweep",
		"matmul", "fir", "histogram", "mpeg-dequant", "mpeg-plus", "mpeg-idct", "gzip",
	}
	for _, name := range names {
		w := colcache.WorkloadSpec{Name: name, N: 16}
		if name == "fir" {
			w.N = 64 // must cover the default 32-tap window
		}
		if err := validateWorkload(w, 32, DefaultLimits); err != nil {
			t.Errorf("%s: validate: %v", name, err)
			continue
		}
		prog, err := BuildWorkload(w, 32)
		if err != nil {
			t.Errorf("%s: build: %v", name, err)
			continue
		}
		if len(prog.Trace) == 0 {
			t.Errorf("%s: empty trace", name)
		}
	}
	if _, err := BuildWorkload(colcache.WorkloadSpec{Name: "nope"}, 32); err == nil {
		t.Fatal("unknown workload built")
	}
}

func TestBuildWorkloadDeterministic(t *testing.T) {
	w := colcache.WorkloadSpec{Name: "random", N: 500, Seed: 7}
	a, err := BuildWorkload(w, 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildWorkload(w, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Trace) != len(b.Trace) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Trace), len(b.Trace))
	}
	for i := range a.Trace {
		if a.Trace[i] != b.Trace[i] {
			t.Fatalf("trace diverges at %d", i)
		}
	}
}

func TestBuildSimEndToEnd(t *testing.T) {
	spec := colcache.SimSpec{
		Label:   "e2e",
		Machine: colcache.MachineSpec{Sets: 32, Ways: 4},
		Workload: &colcache.WorkloadSpec{
			Name: "strided", SizeBytes: 1 << 12, Stride: 64, Passes: 2,
		},
		Maps:     []colcache.MapSpec{{Name: "buf", Base: 0, Size: 1 << 12, Columns: []int{0, 1}}},
		Adaptive: &colcache.AdaptiveSpec{EpochAccesses: 64},
	}
	if err := ValidateSim(spec, false, DefaultLimits); err != nil {
		t.Fatal(err)
	}
	b, err := BuildSim(spec, nil, DefaultLimits)
	if err != nil {
		t.Fatal(err)
	}
	if b.Ctl == nil {
		t.Fatal("adaptive controller not attached")
	}
	cycles := b.Sys.Run(b.Trace)
	res := Result(spec.Label, b, cycles, spec.Machine)
	if res.Cycles != cycles || res.TraceAccesses != int64(len(b.Trace)) {
		t.Fatalf("result mismatch: %+v", res)
	}
	if res.Cache.Accesses == 0 || res.Adaptive == nil {
		t.Fatalf("missing counters: %+v", res)
	}
	if len(res.Tints) < 2 {
		t.Fatalf("want default + mapped tint views, got %v", res.Tints)
	}
}

func TestBuildSimTraceLimit(t *testing.T) {
	lim := Limits{MaxTraceAccesses: 10}
	spec := colcache.SimSpec{Workload: &colcache.WorkloadSpec{Name: "random", N: 100}}
	if _, err := BuildSim(spec, nil, lim); err == nil {
		t.Fatal("over-limit generated trace accepted")
	}
}

// TestValidateSimCountsWorkloads checks that the trace limit is held from
// each generator's access count: exactly at the limit is accepted and one
// past it refused, counts saturate instead of wrapping under a huge limit,
// and a gzip window too large to count is refused from its lower bound.
func TestValidateSimCountsWorkloads(t *testing.T) {
	validate := func(w colcache.WorkloadSpec, limit int) error {
		return ValidateSim(colcache.SimSpec{Workload: &w}, false, Limits{MaxTraceAccesses: limit})
	}
	gzip := gzipsim.Accesses(gzipsim.Config{Seed: 1})
	for _, tc := range []struct {
		w     colcache.WorkloadSpec
		count int
	}{
		{colcache.WorkloadSpec{Name: "mpeg-idct", N: 1}, 2176},
		{colcache.WorkloadSpec{Name: "mpeg-dequant", N: 2}, 2 * 193},
		{colcache.WorkloadSpec{Name: "mpeg-plus", N: 3}, 3 * 256},
		{colcache.WorkloadSpec{Name: "stream", SizeBytes: 4096, Passes: 3}, 3 * 1024},
		{colcache.WorkloadSpec{Name: "phaseshift", SizeBytes: 4096}, 4 * 2 * (4096/32 + 64)},
		{colcache.WorkloadSpec{Name: "gzip"}, gzip},
	} {
		if err := validate(tc.w, tc.count); err != nil {
			t.Errorf("%+v at limit %d: %v", tc.w, tc.count, err)
		}
		if err := validate(tc.w, tc.count-1); !errors.Is(err, memtrace.ErrTraceTooLarge) {
			t.Errorf("%+v at limit %d: %v, want ErrTraceTooLarge", tc.w, tc.count-1, err)
		}
	}
	// 2176·(2^62+1) wraps to 2176 in int64; saturated, it is refused.
	if err := validate(colcache.WorkloadSpec{Name: "mpeg-idct", N: 1<<62 + 1}, 1<<62+1); !errors.Is(err, memtrace.ErrTraceTooLarge) {
		t.Errorf("wrapping idct count: %v, want ErrTraceTooLarge", err)
	}
	if err := validate(colcache.WorkloadSpec{Name: "gzip", SizeBytes: 1 << 28}, DefaultLimits.MaxTraceAccesses); !errors.Is(err, memtrace.ErrTraceTooLarge) {
		t.Errorf("2^28-byte gzip window: %v, want ErrTraceTooLarge", err)
	}
	if err := validate(colcache.WorkloadSpec{Name: "fir", N: 8, Taps: 9}, DefaultLimits.MaxTraceAccesses); err == nil {
		t.Error("fir with fewer samples than taps accepted")
	}
}

// TestBuildSimInlineTrace checks both ways a trace_text run is built: with
// the trace parsed at submission, which BuildSim uses as is, and without it
// (a job recovered from the WAL), when BuildSim parses trace_text itself.
func TestBuildSimInlineTrace(t *testing.T) {
	spec := colcache.SimSpec{TraceText: "R 0\nW 40 2\nR 0\n"}
	parsed, err := checkSim(spec, false, DefaultLimits)
	if err != nil || len(parsed) != 3 {
		t.Fatalf("checkSim: %d accesses, %v", len(parsed), err)
	}
	pre, err := BuildSim(spec, parsed, DefaultLimits)
	if err != nil {
		t.Fatal(err)
	}
	if &pre.Trace[0] != &parsed[0] || pre.Workload != "inline" {
		t.Fatalf("submission trace not reused: workload %q", pre.Workload)
	}
	re, err := BuildSim(spec, nil, DefaultLimits)
	if err != nil {
		t.Fatal(err)
	}
	if re.Workload != "inline" || len(re.Trace) != len(parsed) {
		t.Fatalf("fallback parse: workload %q, %d accesses", re.Workload, len(re.Trace))
	}
	for i := range parsed {
		if re.Trace[i] != parsed[i] {
			t.Fatalf("access %d: %+v, want %+v", i, re.Trace[i], parsed[i])
		}
	}
}

func TestExpandSweep(t *testing.T) {
	sw := colcache.SweepSpec{
		Base:     colcache.SimSpec{Workload: &colcache.WorkloadSpec{Name: "stream"}},
		Sets:     []int{16, 32},
		Ways:     []int{2, 4, 8},
		Policies: []string{"lru", "fifo"},
	}
	points, err := expandSweep(sw, 512)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 12 {
		t.Fatalf("want 2*3*2 = 12 points, got %d", len(points))
	}
	seen := map[string]bool{}
	for _, p := range points {
		if seen[p.Label] {
			t.Fatalf("duplicate label %q", p.Label)
		}
		seen[p.Label] = true
		if err := ValidateSim(p, false, DefaultLimits); err != nil {
			t.Fatalf("point %q invalid: %v", p.Label, err)
		}
	}
	if _, err := expandSweep(sw, 11); err == nil {
		t.Fatal("points over cap accepted")
	}

	// Axes whose point count is exactly 2^63 would wrap a plain int
	// product negative, past the cap; the count must still be refused.
	long := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = 1 + i%8
		}
		return out
	}
	huge := colcache.SweepSpec{
		Base:          sw.Base,
		Sets:          long(1 << 12),
		Ways:          long(1 << 12),
		MissPenalties: long(1 << 12),
		Policies:      make([]string, 1<<12),
		Workloads:     make([]colcache.WorkloadSpec, 1<<15),
	}
	for i := range huge.Policies {
		huge.Policies[i] = "lru"
	}
	if _, err := expandSweep(huge, 512); err == nil {
		t.Fatal("2^63-point sweep accepted")
	}
}
