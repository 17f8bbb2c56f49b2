package conform

import "testing"

// The run-loop equivalence acceptance sweep: hundreds of seeded machines —
// geometries, core counts, replacement policies, L2 partitions, mid-run
// remap schedules and the checkpoint and inspector strides all drawn from
// the seed — run through Step with live invariant checks and through the
// batched checks-off RunContext, and are compared on every counter, the
// counters at every inspection, the event positions, the full cache
// contents and the final column masks.
func TestMulticoreSerialEquivalenceSweep(t *testing.T) {
	cases := 500
	if testing.Short() {
		cases = 60
	}
	for seed := int64(1); seed <= int64(cases); seed++ {
		c := NewMCCase(seed)
		if d := RunMCCase(c); d != nil {
			t.Fatalf("seed %d (cores=%d check=%d inspect=%d partition=%v remap=%d events): %v",
				seed, len(c.Cfg.Traces), c.CheckEvery, c.InspectEvery, c.Partition, len(c.Remap), d)
		}
	}
}

// The sweep's case generator must actually produce the variety it claims:
// across the first 100 seeds every checkpoint and inspector stride in the
// axis, runs that end off the inspector grid, partitioned and
// unpartitioned machines, and at least one remap schedule have to appear.
func TestMCCaseGeneratorCoverage(t *testing.T) {
	checks, inspects := map[int64]bool{}, map[int64]bool{}
	partitioned, unpartitioned, remapped, offGrid := 0, 0, 0, 0
	for seed := int64(1); seed <= 100; seed++ {
		c := NewMCCase(seed)
		checks[int64(c.CheckEvery)] = true
		inspects[c.InspectEvery] = true
		var total int64
		for _, tr := range c.Cfg.Traces {
			total += int64(len(tr))
		}
		if total%c.InspectEvery != 0 {
			offGrid++
		}
		if c.Partition != nil {
			partitioned++
		} else {
			unpartitioned++
		}
		if len(c.Remap) > 0 {
			remapped++
		}
	}
	for _, k := range mcStrides {
		if !checks[k] {
			t.Errorf("checkpoint stride %d never drawn", k)
		}
		if !inspects[k] {
			t.Errorf("inspector stride %d never drawn", k)
		}
	}
	if partitioned == 0 || unpartitioned == 0 || remapped == 0 || offGrid == 0 {
		t.Errorf("axis collapsed: partitioned=%d unpartitioned=%d remapped=%d off-grid=%d",
			partitioned, unpartitioned, remapped, offGrid)
	}
}
