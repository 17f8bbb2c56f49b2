package gzipsim

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"

	"colcache/internal/memory"
	"colcache/internal/memtrace"
)

func TestCompressDecompressRoundTrip(t *testing.T) {
	input := make([]byte, 4096)
	SyntheticText(input, 42)
	toks := Compress(Config{WindowBytes: 4096}, input)
	got := Decompress(toks)
	if !bytes.Equal(got, input) {
		t.Fatalf("round trip failed: %d bytes in, %d out", len(input), len(got))
	}
	// Pseudo-text must actually compress: fewer tokens than bytes.
	if len(toks) >= len(input)/2 {
		t.Errorf("only %d tokens for %d bytes — matcher found too few matches", len(toks), len(input))
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) == 0 {
			return true
		}
		toks := Compress(Config{WindowBytes: len(data)}, data)
		return bytes.Equal(Decompress(toks), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRoundTripAdversarialInputs(t *testing.T) {
	cases := [][]byte{
		[]byte("a"),
		[]byte("ab"),
		[]byte("abc"),
		bytes.Repeat([]byte("a"), 500),
		bytes.Repeat([]byte("abc"), 100),
		{0, 0, 0, 0, 0, 0, 0, 0},
		[]byte("abcdefghijklmnopqrstuvwxyz"),
	}
	for _, in := range cases {
		toks := Compress(Config{WindowBytes: len(in)}, in)
		if got := Decompress(toks); !bytes.Equal(got, in) {
			t.Errorf("round trip failed for %q", in)
		}
	}
}

func TestMatchesRespectBounds(t *testing.T) {
	input := bytes.Repeat([]byte("columncache "), 400)
	cfg := Config{WindowBytes: len(input), MaxChain: 8}.withDefaults()
	toks := Compress(cfg, input)
	for _, tok := range toks {
		if tok.Length == 0 {
			continue
		}
		if tok.Length < cfg.MinMatch || tok.Length > cfg.MaxMatch {
			t.Fatalf("match length %d outside [%d,%d]", tok.Length, cfg.MinMatch, cfg.MaxMatch)
		}
		if tok.Distance <= 0 {
			t.Fatalf("non-positive distance %d", tok.Distance)
		}
	}
}

func TestJobTraceWithinVariables(t *testing.T) {
	p := Job(Config{WindowBytes: 2048}, 0x100000)
	counts := memtrace.RegionCounts(p.Trace, p.Vars)
	if counts[""] != 0 {
		t.Errorf("%d accesses outside declared variables", counts[""])
	}
	for _, name := range []string{"window", "head", "prev", "out"} {
		if counts[name] == 0 {
			t.Errorf("variable %s never accessed", name)
		}
	}
	if p.Trace.Instructions() <= int64(len(p.Trace)) {
		t.Error("trace carries no think time")
	}
}

func TestJobDisjointAddressSpaces(t *testing.T) {
	g := memory.MustGeometry(32, 4096)
	a := Job(Config{WindowBytes: 1024}, 0)
	b := Job(Config{WindowBytes: 1024}, 1<<30)
	aMax := memtrace.Summarize(a.Trace, g).MaxAddr
	bMin := memtrace.Summarize(b.Trace, g).MinAddr
	if aMax >= bMin {
		t.Errorf("address spaces overlap: aMax=%#x bMin=%#x", aMax, bMin)
	}
}

func TestSyntheticTextDeterministic(t *testing.T) {
	a := make([]byte, 256)
	b := make([]byte, 256)
	SyntheticText(a, 1)
	SyntheticText(b, 1)
	if !bytes.Equal(a, b) {
		t.Error("same seed, different text")
	}
	SyntheticText(b, 2)
	if bytes.Equal(a, b) {
		t.Error("different seeds, same text")
	}
}

func TestWorkingSetSize(t *testing.T) {
	// The default job's working set must exceed 16KB (the small cache in
	// Fig. 5) — that contrast is what the experiment depends on.
	p := Job(Config{}, 0)
	if got := p.DataBytes(); got <= 16*1024 {
		t.Errorf("working set %d bytes does not exceed 16KB", got)
	}
}

// BenchmarkAccesses times the count-only pass that sizes Job's trace at
// the default 16KB window; its allocs/op show what the pass leaves behind.
func BenchmarkAccesses(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		Accesses(Config{})
	}
}

// CountedJob records the trace Job does; only the count pass is skipped.
func TestCountedJobMatchesJob(t *testing.T) {
	for _, cfg := range []Config{{}, {WindowBytes: 777, Seed: 3}} {
		want := Job(cfg, 1<<32)
		got := CountedJob(cfg, 1<<32, Accesses(cfg))
		if !slices.Equal(got.Trace, want.Trace) || !slices.Equal(got.Vars, want.Vars) {
			t.Errorf("%+v: CountedJob's program differs from Job's", cfg)
		}
	}
}
