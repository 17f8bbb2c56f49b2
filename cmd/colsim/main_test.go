package main

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	colcache "colcache"
	"colcache/internal/build"
	"colcache/internal/memtrace"
	"colcache/internal/service"
)

// TestMain runs colsim's main instead of the tests when the test binary
// is re-executed by runColsim.
func TestMain(m *testing.M) {
	if os.Getenv("COLSIM_TEST_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runColsim runs colsim with args in a child process and returns its
// stdout, stderr and exit code.
func runColsim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "COLSIM_TEST_RUN_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// writeTraceFile writes a random n-record binary trace into dir and
// returns its path and bytes.
func writeTraceFile(t *testing.T, dir, name string, seed int64, n int) (string, []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr := make(memtrace.Trace, n)
	for i := range tr {
		tr[i] = memtrace.Access{Addr: uint64(rng.Intn(1 << 16)), Op: memtrace.Op(rng.Intn(2))}
	}
	var buf bytes.Buffer
	if err := memtrace.WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, buf.Bytes()
}

func TestMapFlagParsing(t *testing.T) {
	var m mapFlag
	if err := m.Set("1000:200:0"); err != nil {
		t.Fatal(err)
	}
	if err := m.Set("ff00:10:1,2,3"); err != nil {
		t.Fatal(err)
	}
	if len(m.entries) != 2 {
		t.Fatalf("entries=%d", len(m.entries))
	}
	e := m.entries[0]
	if e.Name != "map@1000" || e.Base != 0x1000 || e.Size != 0x200 || len(e.Columns) != 1 || e.Columns[0] != 0 {
		t.Errorf("entry 0 = %+v", e)
	}
	e = m.entries[1]
	if e.Name != "map@ff00" || e.Base != 0xff00 || e.Size != 0x10 || len(e.Columns) != 3 || e.Columns[2] != 3 {
		t.Errorf("entry 1 = %+v", e)
	}
	if m.String() == "" {
		t.Error("empty String()")
	}
}

func TestMapFlagErrors(t *testing.T) {
	var m mapFlag
	for _, in := range []string{
		"1000:200",     // missing columns
		"zz:200:0",     // bad base
		"1000:zz:0",    // bad size
		"1000:200:x",   // bad column
		"1000:200:0:5", // too many parts
	} {
		if err := m.Set(in); err == nil {
			t.Errorf("Set(%q) succeeded", in)
		}
	}
}

// One machine description gives one machine: colsim's flags, translated to
// specs, and the same description as a colserved spec build machines that
// end a run of the same trace with identical statistics, tint tables and
// adaptive decisions.
func TestFlagsBuildTheServiceMachine(t *testing.T) {
	dir := t.TempDir()
	path, _ := writeTraceFile(t, dir, "t.bin", 7, 20000)
	tr, err := readTraceFile(path, true)
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := memtrace.WriteText(&text, tr); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		flags    colcache.MachineSpec // as colsim's flags carry it, defaults explicit
		spec     colcache.MachineSpec // as a service client sends it
		maps     []string
		adaptive bool
	}{
		{
			name:     "defaults",
			flags:    build.WithDefaults(colcache.MachineSpec{}),
			maps:     []string{"0:4000:0", "8000:2000:1,2"},
			adaptive: true,
		},
		{
			name:  "explicit",
			flags: colcache.MachineSpec{LineBytes: 64, Sets: 32, Ways: 8, PageBytes: 8192, Policy: "plru", MissPenalty: 30},
			spec:  colcache.MachineSpec{LineBytes: 64, Sets: 32, Ways: 8, PageBytes: 8192, Policy: "plru", MissPenalty: 30},
			maps:  []string{"4000:4000:0,1,2,3"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var maps mapFlag
			spec := colcache.SimSpec{Machine: tc.spec, TraceText: text.String()}
			for _, v := range tc.maps {
				if err := maps.Set(v); err != nil {
					t.Fatal(err)
				}
				e := maps.entries[len(maps.entries)-1]
				spec.Maps = append(spec.Maps, colcache.MapSpec{Base: e.Base, Size: e.Size, Columns: e.Columns})
			}
			var adapt *colcache.AdaptiveSpec
			if tc.adaptive {
				adapt = &colcache.AdaptiveSpec{EpochAccesses: 4096, MinGainHits: 16}
				spec.Adaptive = &colcache.AdaptiveSpec{}
			}
			if err := service.ValidateSim(spec, false, service.DefaultLimits); err != nil {
				t.Fatal(err)
			}
			sys, ctl, err := singleCoreSystem(tc.flags, maps.entries, "", adapt)
			if err != nil {
				t.Fatal(err)
			}
			b, err := service.BuildSim(spec, nil, service.DefaultLimits)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sys.Run(tr), b.Sys.Run(b.Trace); got != want {
				t.Errorf("cycles: colsim %d, service %d", got, want)
			}
			if got, want := sys.Stats(), b.Sys.Stats(); !reflect.DeepEqual(got, want) {
				t.Errorf("stats differ:\ncolsim  %+v\nservice %+v", got, want)
			}
			// Region names are presentation: colsim names map@<base>, the
			// service map<i>@<base>. The tints and their columns must agree.
			got, want := service.TintViews(sys, tc.flags.Ways), service.TintViews(b.Sys, tc.flags.Ways)
			if len(got) != len(want) {
				t.Fatalf("tints: colsim %d, service %d", len(got), len(want))
			}
			for i := range got {
				got[i].Name, want[i].Name = "", ""
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("tint tables differ:\ncolsim  %+v\nservice %+v", got, want)
			}
			if (ctl == nil) != (b.Ctl == nil) {
				t.Fatalf("controller: colsim %v, service %v", ctl != nil, b.Ctl != nil)
			}
			if ctl != nil && !reflect.DeepEqual(ctl.Allocations(), b.Ctl.Allocations()) {
				t.Errorf("allocations: colsim %v, service %v", ctl.Allocations(), b.Ctl.Allocations())
			}
		})
	}
}

// -cores rejects each flag only a single-core run reads, naming it,
// instead of running without it.
func TestMulticoreRejectsSingleCoreFlags(t *testing.T) {
	dir := t.TempDir()
	a, _ := writeTraceFile(t, dir, "a.bin", 1, 1000)
	b, _ := writeTraceFile(t, dir, "b.bin", 2, 1000)
	for _, args := range [][]string{
		{"-map", "0:1000:0"},
		{"-plan", filepath.Join(dir, "plan.json")},
		{"-adaptive"},
		{"-describe"},
		{"-reuse"},
		{"-jobmask", "0:0"},
		{"-quantum", "7"},
		{"-epoch", "3"},
		{"-mingain", "0"},
	} {
		argv := append([]string{"-binary", "-cores", "2"}, args...)
		stdout, stderr, code := runColsim(t, append(argv, a, b)...)
		if code == 0 || !strings.Contains(stderr, args[0]) || stdout != "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want a failure naming %s", args, code, stdout, stderr, args[0])
		}
	}
}

func TestLoadTracesSynthetic(t *testing.T) {
	for _, kind := range []string{"stream", "random", "chase"} {
		traces, err := loadTraces(kind, 100, false)
		if err != nil {
			t.Errorf("loadTraces(%s): %v", kind, err)
			continue
		}
		if len(traces) != 1 || len(traces[0]) == 0 {
			t.Errorf("loadTraces(%s) shape wrong", kind)
		}
	}
	if _, err := loadTraces("bogus", 100, false); err == nil {
		t.Error("bogus synthetic kind accepted")
	}
}

func TestJobMaskFlag(t *testing.T) {
	var j jobMaskFlag
	if err := j.Set("0:0,1"); err != nil {
		t.Fatal(err)
	}
	if err := j.Set("2:3"); err != nil {
		t.Fatal(err)
	}
	if len(j.masks) != 2 || !j.masks[0].Has(1) || !j.masks[2].Has(3) {
		t.Errorf("masks=%v", j.masks)
	}
	if j.String() == "" {
		t.Error("empty String")
	}
	for _, bad := range []string{"nocolon", "x:1", "-1:1", "0:x"} {
		if err := j.Set(bad); err == nil {
			t.Errorf("Set(%q) succeeded", bad)
		}
	}
}

// -cores 3 streams three binary files; a corrupt one fails the run with
// its path on stderr and no statistics on stdout, whether the fault is a
// bad header (found before the run) or a record cut short mid-stream.
func TestMulticoreCorruptFile(t *testing.T) {
	dir := t.TempDir()
	a, _ := writeTraceFile(t, dir, "a.bin", 1, 10000)
	b, _ := writeTraceFile(t, dir, "b.bin", 2, 10000)
	_, c := writeTraceFile(t, dir, "c.bin", 3, 10000)
	for name, bad := range map[string][]byte{
		"cut.bin":      c[:len(c)-5],
		"badmagic.bin": append([]byte("XXXXXXXX"), c[8:]...),
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		stdout, stderr, code := runColsim(t, "-binary", "-cores", "3", a, path, b)
		if code == 0 {
			t.Errorf("%s: colsim exited 0", name)
		}
		if !strings.Contains(stderr, path) || !strings.Contains(stderr, "core 1") {
			t.Errorf("%s: stderr %q does not name the file and core 1", name, stderr)
		}
		for _, line := range strings.Split(stdout, "\n") {
			for _, p := range []string{"core", "bus:", "L2:"} {
				if strings.HasPrefix(line, p) {
					t.Errorf("%s: statistics printed after a failed run: %q", name, line)
				}
			}
		}
	}
	// The intact files run.
	if stdout, stderr, code := runColsim(t, "-binary", "-cores", "2", a, b); code != 0 || !strings.Contains(stdout, "makespan:") {
		t.Fatalf("intact run: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}

// A trace that fails to load is named in the error.
func TestReadTraceFileNamesPath(t *testing.T) {
	dir := t.TempDir()
	_, data := writeTraceFile(t, dir, "ok.bin", 1, 10)
	path := filepath.Join(dir, "cut.bin")
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readTraceFile(path, true); err == nil || !strings.HasPrefix(err.Error(), path+": ") {
		t.Fatalf("readTraceFile = %v, want an error starting with %q", err, path+": ")
	}
}
