package memsys

import (
	"context"
	"fmt"
	"io"

	"colcache/internal/memtrace"
)

// Chunked trace replay: a memtrace.Decoder feeds the system batch-wise, so
// an arbitrarily long trace streams through a fixed-size buffer instead of
// materializing in memory first, and the replay loop pays the decoder's
// per-call error handling once per chunk rather than once per access.

// ReplayOptions parameterize Replay.
type ReplayOptions struct {
	// BatchSize is the number of accesses decoded per chunk; zero or
	// negative means DefaultCheckEvery. The chunk buffer is allocated once
	// per Replay call, so the replay loop itself allocates nothing.
	BatchSize int
	// MaxAccesses, when positive, caps the number of records replayed; a
	// longer stream fails with an error wrapping memtrace.ErrTraceTooLarge.
	// The cap is enforced as chunks arrive, like memtrace.ReadBinaryLimit,
	// so an adversarial stream never occupies more than one chunk.
	MaxAccesses int64
	// OnCheckpoint, when non-nil, receives the number of accesses replayed
	// so far and a detached Stats snapshot after every chunk and once more
	// at end of stream. Same contract as RunOptions.OnCheckpoint.
	OnCheckpoint func(done int64, st Stats)
}

// Replay streams the decoder's remaining records through the system and
// returns the accesses replayed and the cycles consumed. The context is
// polled at every chunk boundary; on cancellation the accesses and cycles
// consumed so far are returned with ctx.Err(). A decode error (bad magic,
// truncated record, invalid op) is returned as-is after the records that
// preceded it have been replayed.
func (s *System) Replay(ctx context.Context, d *memtrace.Decoder, opts ReplayOptions) (int64, int64, error) {
	size := opts.BatchSize
	if size <= 0 {
		size = DefaultCheckEvery
	}
	chunk := make([]memtrace.Access, size)
	var done, cycles int64
	checkpoint := func() {
		if opts.OnCheckpoint != nil {
			opts.OnCheckpoint(done, s.Stats())
		}
	}
	for {
		n, err := d.DecodeBatch(chunk)
		if err == io.EOF {
			checkpoint()
			return done, cycles, nil
		}
		if opts.MaxAccesses > 0 && done+int64(n) > opts.MaxAccesses {
			return done, cycles, fmt.Errorf("%w (limit %d)", memtrace.ErrTraceTooLarge, opts.MaxAccesses)
		}
		// A decode error arrives with the records before it, which run
		// first.
		cycles += s.Run(chunk[:n])
		done += int64(n)
		if err != nil {
			return done, cycles, err
		}
		checkpoint()
		if err := ctx.Err(); err != nil {
			return done, cycles, err
		}
	}
}
