// Package synth generates synthetic memory-reference workloads — sequential
// streams, strided sweeps, uniform random accesses and pointer chases — used
// by tests, examples and ablation benchmarks to exercise the cache with
// access patterns of known locality.
package synth

import (
	"colcache/internal/memory"
	"colcache/internal/workloads"
)

// xorshift is a tiny deterministic PRNG so workloads are reproducible.
type xorshift uint64

func newXorshift(seed int64) xorshift {
	if seed == 0 {
		return xorshift(0x9e3779b97f4a7c15)
	}
	return xorshift(seed)
}

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v >> 12
	v ^= v << 25
	v ^= v >> 27
	*x = xorshift(v)
	return v * 0x2545f4914f6cdd1d
}

// Stream builds a workload that sweeps sequentially over a buffer of size
// bytes, passes times, reading every element at the given element size.
// Pure spatial locality, no temporal reuse within a pass.
func Stream(base memory.Addr, size uint64, elem int, passes int) *workloads.Program {
	env := workloads.NewEnv(base, StreamAccesses(size, elem, passes))
	buf := env.Space.Alloc("stream", size, 64)
	for p := 0; p < passes; p++ {
		for off := uint64(0); off+uint64(elem) <= size; off += uint64(elem) {
			env.Rec.Think(1)
			env.Rec.LoadRegion(buf, off)
		}
	}
	return env.Finish("stream")
}

// Strided builds a workload reading a buffer at a fixed stride, passes
// times. A stride equal to the cache's set span makes every access map to
// one set — the classic conflict generator.
func Strided(base memory.Addr, size, stride uint64, passes int) *workloads.Program {
	env := workloads.NewEnv(base, StridedAccesses(size, stride, passes))
	buf := env.Space.Alloc("strided", size, 64)
	for p := 0; p < passes; p++ {
		for off := uint64(0); off < size; off += stride {
			env.Rec.Think(1)
			env.Rec.LoadRegion(buf, off)
		}
	}
	return env.Finish("strided")
}

// Random builds a workload of n uniform random reads over a buffer of size
// bytes. No locality beyond what the buffer size provides.
func Random(base memory.Addr, size uint64, n int, seed int64) *workloads.Program {
	env := workloads.NewEnv(base, RandomAccesses(n))
	buf := env.Space.Alloc("random", size, 64)
	rng := newXorshift(seed)
	for i := 0; i < n; i++ {
		env.Rec.Think(2)
		env.Rec.LoadRegion(buf, rng.next()%size)
	}
	return env.Finish("random")
}

// PointerChase builds a workload following a random cyclic permutation of
// nodes node-sized cells, hops times: pure dependent loads, one access per
// node, the classic latency-bound pattern.
func PointerChase(base memory.Addr, nodes int, nodeBytes uint64, hops int, seed int64) *workloads.Program {
	env := workloads.NewEnv(base, PointerChaseAccesses(hops))
	buf := env.Space.Alloc("chase", uint64(nodes)*nodeBytes, 64)
	// Sattolo's algorithm for a single-cycle permutation.
	perm := make([]int, nodes)
	for i := range perm {
		perm[i] = i
	}
	rng := newXorshift(seed)
	for i := nodes - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i))
		perm[i], perm[j] = perm[j], perm[i]
	}
	cur := 0
	for h := 0; h < hops; h++ {
		env.Rec.Think(1)
		env.Rec.LoadRegion(buf, uint64(cur)*nodeBytes)
		cur = perm[cur]
	}
	return env.Finish("chase")
}

// PhaseShift builds a two-region workload whose hot working set alternates
// between the regions phase by phase: in even phases region "phaseA" is
// swept line by line passes times while "phaseB" receives only touches
// random reads per pass, and odd phases swap the roles. No single static
// column split serves both phases when each region alone overflows its
// share — the workload the adaptive column-allocation controller exists
// for.
func PhaseShift(base memory.Addr, regionBytes uint64, phases, passes, touches, lineBytes int, seed int64) *workloads.Program {
	env := workloads.NewEnv(base, PhaseShiftAccesses(regionBytes, phases, passes, touches, lineBytes))
	a := env.Space.Alloc("phaseA", regionBytes, 64)
	b := env.Space.Alloc("phaseB", regionBytes, 64)
	rng := newXorshift(seed)
	for ph := 0; ph < phases; ph++ {
		hot, cold := a, b
		if ph%2 == 1 {
			hot, cold = b, a
		}
		for p := 0; p < passes; p++ {
			for off := uint64(0); off < regionBytes; off += uint64(lineBytes) {
				env.Rec.Think(1)
				env.Rec.LoadRegion(hot, off)
			}
			for i := 0; i < touches; i++ {
				env.Rec.Think(1)
				env.Rec.LoadRegion(cold, rng.next()%regionBytes)
			}
		}
	}
	return env.Finish("phaseshift")
}

// WriteSweep builds a workload that writes every element of a buffer,
// passes times — a dirty-line generator for writeback experiments.
func WriteSweep(base memory.Addr, size uint64, elem int, passes int) *workloads.Program {
	env := workloads.NewEnv(base, StreamAccesses(size, elem, passes))
	buf := env.Space.Alloc("wsweep", size, 64)
	for p := 0; p < passes; p++ {
		for off := uint64(0); off+uint64(elem) <= size; off += uint64(elem) {
			env.Rec.Think(1)
			env.Rec.StoreRegion(buf, off)
		}
	}
	return env.Finish("wsweep")
}

// The access counts of the generators above, from the same knobs; each is
// exact for the strictly positive elem, stride and lineBytes the generators
// need, and saturates instead of overflowing (workloads.SatMul).

// StreamAccesses is Stream's and WriteSweep's trace length: one access per
// whole element of the buffer, per pass.
func StreamAccesses(size uint64, elem, passes int) int {
	if elem <= 0 {
		return 0
	}
	return workloads.SatMul(passes, workloads.SatInt(size/uint64(elem)))
}

// StridedAccesses is Strided's trace length: one access per stride step
// that starts inside the buffer, per pass.
func StridedAccesses(size, stride uint64, passes int) int {
	if stride == 0 {
		return 0
	}
	return workloads.SatMul(passes, workloads.SatInt(ceilDiv(size, stride)))
}

// RandomAccesses is Random's trace length: n reads.
func RandomAccesses(n int) int { return max(n, 0) }

// PointerChaseAccesses is PointerChase's trace length: one read per hop.
func PointerChaseAccesses(hops int) int { return max(hops, 0) }

// PhaseShiftAccesses is PhaseShift's trace length: per pass of every
// phase, one read per line of the hot region and touches reads of the cold
// one.
func PhaseShiftAccesses(regionBytes uint64, phases, passes, touches, lineBytes int) int {
	if lineBytes <= 0 {
		return 0
	}
	perPass := workloads.SatAdd(workloads.SatInt(ceilDiv(regionBytes, uint64(lineBytes))), touches)
	return workloads.SatMul(workloads.SatMul(phases, passes), perPass)
}

// ceilDiv returns ⌈a/b⌉ for b > 0 without overflowing a+b-1.
func ceilDiv(a, b uint64) uint64 {
	q := a / b
	if a%b != 0 {
		q++
	}
	return q
}
