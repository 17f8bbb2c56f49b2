package service

import (
	"encoding/json"
	"testing"

	colcache "colcache"
)

// fuzzLimits are deliberately small so the fuzzer reaches the limit
// checks with short inputs.
var fuzzLimits = Limits{MaxTraceAccesses: 1 << 12, MaxSets: 1 << 8, MaxWays: 16}

// FuzzSimSpec decodes arbitrary JSON into a SimSpec and checks the
// submission contract: ValidateSim never panics, and every spec it accepts
// builds without error. A generated trace is held to MaxTraceAccesses from
// its access count at validation, so an accepted spec never fails with
// ErrTraceTooLarge, and building one costs at most the limit's worth of
// trace per core.
func FuzzSimSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec colcache.SimSpec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		if ValidateSim(spec, false, fuzzLimits) != nil {
			return
		}
		var err error
		if spec.Multicore != nil {
			_, err = BuildMulticore(spec, fuzzLimits)
		} else {
			_, err = BuildSim(spec, nil, fuzzLimits)
		}
		if err != nil {
			t.Fatalf("validated spec failed to build: %v\nspec: %s", err, data)
		}
	})
}

// FuzzExpandSweep decodes arbitrary JSON into a SweepSpec and checks that
// expandSweep never panics and never returns more than maxPoints points
// (or none without an error).
func FuzzExpandSweep(f *testing.F) {
	for _, seed := range []string{
		`{"base":{"workload":{"name":"stream"}},"sets":[16,32],"ways":[2,4,8],"policies":["lru","fifo"]}`,
		`{"base":{"workload":{"name":"stream"}},"ways":[1,2,3,0]}`,
		`{"base":{"trace_text":"R 0\nW 20\n"},"miss_penalties":[5,10,20,40]}`,
		`{"base":{"machine":{"sets":16}},"workloads":[{"name":"fir","n":64},{"name":"gzip"}],"policies":[""]}`,
		`{"base":{},"sets":[1,1,1,1],"ways":[1,1,1,1],"policies":["a","b","c","d"],"miss_penalties":[1,2,3,4],"workloads":[{},{},{},{}]}`,
	} {
		f.Add([]byte(seed), uint16(16))
	}
	f.Fuzz(func(t *testing.T, data []byte, maxPoints uint16) {
		var sw colcache.SweepSpec
		if json.Unmarshal(data, &sw) != nil {
			return
		}
		points, err := expandSweep(sw, int(maxPoints))
		if err != nil {
			return
		}
		if len(points) == 0 || len(points) > int(maxPoints) {
			t.Fatalf("expandSweep returned %d points for maxPoints %d: %s", len(points), maxPoints, data)
		}
	})
}
