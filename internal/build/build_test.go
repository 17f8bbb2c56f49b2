package build

import (
	"bytes"
	"testing"

	colcache "colcache"
	"colcache/internal/memtrace"
)

func TestAdaptiveManagesAllTints(t *testing.T) {
	m := WithDefaults(colcache.MachineSpec{Ways: 4})
	sys, err := System(m, []colcache.MapSpec{{Name: "r", Base: 0, Size: 4096, Columns: []int{0}}})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := Adaptive(sys, m, colcache.AdaptiveSpec{EpochAccesses: 1024, MinGainHits: 16})
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

func TestAdaptiveTooManyTints(t *testing.T) {
	m := WithDefaults(colcache.MachineSpec{Ways: 2})
	sys, err := System(m, []colcache.MapSpec{
		{Name: "r", Base: 0, Size: 4096, Columns: []int{0}},
		{Name: "r", Base: 1 << 20, Size: 4096, Columns: []int{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 3 tints (default + 2 mapped) onto 2 columns cannot keep everyone's
	// one-column minimum.
	if _, err := Adaptive(sys, m, colcache.AdaptiveSpec{EpochAccesses: 1024, MinGainHits: 16}); err == nil {
		t.Error("over-subscribed adaptive setup accepted")
	}
}

// windows moves trace i up by i<<WindowShift without touching its input,
// which a replicated run shares across cores.
func TestWindows(t *testing.T) {
	tr := memtrace.Trace{{Addr: 0x40}, {Addr: 0xffff_ffff, Op: memtrace.Write, Think: 3}}
	out := windows([]memtrace.Trace{tr, tr, tr})
	for i, w := range out {
		for k, a := range w {
			want := tr[k]
			want.Addr += uint64(i) << WindowShift
			if a != want {
				t.Errorf("core %d record %d = %+v, want %+v", i, k, a, want)
			}
			if int(a.Addr>>WindowShift) != i {
				t.Errorf("core %d record %d lies in window %d", i, k, a.Addr>>WindowShift)
			}
		}
	}
	if tr[1].Addr != 0xffff_ffff {
		t.Errorf("input trace modified: %+v", tr)
	}
}

// A streamed trace cannot be shifted, so decoders need shared addresses.
func TestMulticoreDecodersNeedSharedAddresses(t *testing.T) {
	var buf bytes.Buffer
	if err := memtrace.WriteBinary(&buf, memtrace.Trace{{Addr: 0x40}}); err != nil {
		t.Fatal(err)
	}
	m := WithDefaults(colcache.MachineSpec{})
	mc := MulticoreWithDefaults(colcache.MulticoreSpec{})
	dec := []*memtrace.Decoder{memtrace.NewDecoder(bytes.NewReader(buf.Bytes()))}
	if _, err := Multicore(m, mc, nil, dec); err == nil {
		t.Error("decoders accepted into per-core windows")
	}
	mc.SharedAddresses = true
	mach, err := Multicore(m, mc, nil, dec)
	if err != nil {
		t.Fatal(err)
	}
	if err := mach.Run(); err != nil || mach.AccessesDone() != 1 {
		t.Errorf("run: err %v, %d accesses done", err, mach.AccessesDone())
	}
}
