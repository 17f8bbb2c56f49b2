package main

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"colcache/internal/cache"
	"colcache/internal/memory"
	"colcache/internal/memsys"
	"colcache/internal/memtrace"
	"colcache/internal/replacement"
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
	if e.base != 0x1000 || e.size != 0x200 || len(e.columns) != 1 || e.columns[0] != 0 {
		t.Errorf("entry 0 = %+v", e)
	}
	e = m.entries[1]
	if e.base != 0xff00 || e.size != 0x10 || len(e.columns) != 3 || e.columns[2] != 3 {
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

func adaptiveTestSystem(t *testing.T, ways int) *memsys.System {
	t.Helper()
	sys, err := memsys.New(memsys.Config{
		Geometry: memory.MustGeometry(32, 4096),
		Cache:    cache.Config{LineBytes: 32, NumSets: 16, NumWays: ways},
		Timing:   memsys.DefaultTiming,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestAttachAdaptiveManagesAllTints(t *testing.T) {
	sys := adaptiveTestSystem(t, 4)
	if _, err := sys.MapRegion(memory.Region{Name: "r", Base: 0, Size: 4096}, replacement.Of(0)); err != nil {
		t.Fatal(err)
	}
	ctl, err := attachAdaptive(sys, 16, 32, 4, 1024, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Default tint + mapped tint, every column owned by exactly one.
	if got := ctl.Specs(); len(got) != 2 {
		t.Fatalf("managed tints = %d, want 2", len(got))
	}
	total := 0
	for _, a := range ctl.Allocations() {
		total += a
	}
	if total != 4 {
		t.Errorf("initial allocation covers %d of 4 columns", total)
	}
}

func TestAttachAdaptiveTooManyTints(t *testing.T) {
	sys := adaptiveTestSystem(t, 2)
	for i := 0; i < 2; i++ {
		if _, err := sys.MapRegion(memory.Region{Name: "r", Base: memory.Addr(i) << 20, Size: 4096},
			replacement.Of(i)); err != nil {
			t.Fatal(err)
		}
	}
	// 3 tints (default + 2 mapped) onto 2 columns cannot keep everyone's
	// one-column minimum.
	if _, err := attachAdaptive(sys, 16, 32, 2, 1024, 16); err == nil {
		t.Error("over-subscribed adaptive setup accepted")
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
