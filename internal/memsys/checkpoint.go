package memsys

import (
	"context"
	"fmt"

	"colcache/internal/memtrace"
)

// Checkpoint is the serializable progress marker of a RunContext run: how
// many accesses have executed and the cycles they consumed. Because the
// machine is deterministic in (config, trace), this pair is a complete
// resume token — RunContextFrom rebuilds the exact machine state by
// fast-forwarding the trace prefix, so nothing else needs to be
// serialized. colserved journals these to its write-ahead log at
// checkpoint cadence and resumes in-flight jobs from the last one after a
// crash.
type Checkpoint struct {
	Done   int64 `json:"done"`   // accesses executed
	Cycles int64 `json:"cycles"` // cycles consumed by them
}

// RunContextFrom is RunContext starting after a checkpoint: the first
// cp.Done accesses are replayed without context polls or checkpoint
// callbacks — the fast-forward that reconstructs machine state (counters,
// cache contents, recency, TLB) exactly as the interrupted run built it —
// then execution continues with the usual cooperative cadence.
// OnCheckpoint's done argument counts absolute trace position, so a
// resumed job's progress continues where the old one stopped. The
// returned cycle count covers the whole trace, prefix included, and is
// identical to what an uninterrupted RunContext would have returned; the
// prefix cycles are cross-checked against cp.Cycles so a checkpoint that
// does not belong to this (config, trace) pair fails loudly instead of
// silently producing a wrong result.
func (s *System) RunContextFrom(ctx context.Context, t memtrace.Trace, cp Checkpoint, opts RunOptions) (int64, error) {
	if cp.Done <= 0 {
		return s.RunContext(ctx, t, opts)
	}
	if cp.Done > int64(len(t)) {
		return 0, fmt.Errorf("memsys: checkpoint at %d past trace end %d", cp.Done, len(t))
	}
	total := s.Run(t[:cp.Done])
	if total != cp.Cycles {
		return total, fmt.Errorf("memsys: fast-forward to %d produced %d cycles, checkpoint recorded %d (checkpoint from a different spec or trace?)",
			cp.Done, total, cp.Cycles)
	}
	return s.runFrom(ctx, t, int(cp.Done), total, opts)
}
