package workloads

import (
	"testing"
)

func TestEnvAndProgram(t *testing.T) {
	env := NewEnv(0x1000, 2)
	a := env.Space.Alloc("a", 64, 64)
	b := env.Space.Alloc("b", 32, 64)
	env.Rec.Think(2)
	env.Rec.LoadRegion(a, 0)
	env.Rec.StoreRegion(b, 4)

	p := env.Finish("prog")
	if p.Name != "prog" {
		t.Errorf("name=%q", p.Name)
	}
	if len(p.Trace) != 2 || len(p.Vars) != 2 {
		t.Fatalf("trace=%d vars=%d", len(p.Trace), len(p.Vars))
	}
	if p.Trace[0].Addr != a.Base || p.Trace[1].Addr != b.Base+4 {
		t.Errorf("addrs: %#x %#x", p.Trace[0].Addr, p.Trace[1].Addr)
	}
	if got := p.DataBytes(); got != 96 {
		t.Errorf("DataBytes=%d want 96", got)
	}
	if r, ok := p.Var("b"); !ok || r.Size != 32 {
		t.Errorf("Var(b)=%v,%v", r, ok)
	}
	if _, ok := p.Var("zzz"); ok {
		t.Error("phantom var")
	}
	if r := p.MustVar("a"); r.Name != "a" {
		t.Errorf("MustVar=%v", r)
	}
}

func TestMustVarPanics(t *testing.T) {
	p := &Program{Name: "p"}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	p.MustVar("missing")
}
