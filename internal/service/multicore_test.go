package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	colcache "colcache"
)

func multicoreSpec(label string) colcache.SimSpec {
	return colcache.SimSpec{
		Label:   label,
		Machine: colcache.MachineSpec{Sets: 16, Ways: 2},
		Multicore: &colcache.MulticoreSpec{
			Cores: []colcache.CoreSpec{
				{Workload: colcache.WorkloadSpec{Name: "mpeg-idct", N: 4}, Columns: []int{0, 1, 2}},
				{Workload: colcache.WorkloadSpec{Name: "gzip", SizeBytes: 8192}, Columns: []int{3, 4, 5, 6, 7}},
			},
		},
	}
}

func TestMulticoreRoundTrip(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 8})
	defer srv.Drain(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	run := func(label string) colcache.SimResult {
		resp, body := postJSON(t, ts, "/v1/simulate", multicoreSpec(label))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, body)
		}
		var info colcache.JobInfo
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		if info.Kind != "multicore" {
			t.Fatalf("job kind %q, want multicore", info.Kind)
		}
		done := waitTerminal(t, ts, info.ID)
		if done.State != colcache.StateDone {
			t.Fatalf("job ended %s: %s", done.State, done.Error)
		}
		if done.Result == nil {
			t.Fatal("terminal job has no result")
		}
		return *done.Result
	}

	res := run("mc")
	mc := res.Multicore
	if mc == nil {
		t.Fatal("result has no multicore block")
	}
	if len(mc.Cores) != 2 {
		t.Fatalf("%d core results, want 2", len(mc.Cores))
	}
	if res.Cycles <= 0 || res.Instructions <= 0 || res.TraceAccesses <= 0 {
		t.Fatalf("degenerate aggregates: %+v", res)
	}
	if mc.L2.Accesses == 0 {
		t.Error("shared L2 saw no traffic")
	}
	if got := mc.Cores[0].Columns; len(got) != 3 {
		t.Errorf("core 0 columns %v, want the 3 requested", got)
	}
	// Disjoint address windows: pure capacity sharing, no coherence traffic.
	if mc.Bus.Invalidations != 0 || mc.Bus.Interventions != 0 || mc.Bus.WritebackRaces != 0 {
		t.Errorf("disjoint co-run produced coherence traffic: %+v", mc.Bus)
	}
	if mc.Bus.Reads == 0 {
		t.Error("no BusRd traffic at all")
	}

	// The serial stepper is deterministic: an identical spec replays to the
	// identical makespan and counters.
	res2 := run("mc-again")
	if res2.Cycles != res.Cycles || res2.Cache != res.Cache || res2.Multicore.Bus != res.Multicore.Bus {
		t.Fatalf("same spec, different outcome: %d vs %d cycles", res2.Cycles, res.Cycles)
	}
}

// Bodies written for the retired epoch-parallel stepper still carry
// "parallel" and "epoch". The lenient decoder drops them, so such a body is
// the plain spec: same digest, and served from the plain spec's cached
// result rather than simulated a second time.
func TestMulticoreLegacyStepperFieldsHitCache(t *testing.T) {
	plain := multicoreSpec("plain")
	raw, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	mc := body["multicore"].(map[string]any)
	mc["parallel"] = true
	mc["epoch"] = 256
	legacyRaw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	var legacy colcache.SimSpec
	if err := json.Unmarshal(legacyRaw, &legacy); err != nil {
		t.Fatal(err)
	}
	if got, want := SimDigest(legacy, nil), SimDigest(plain, nil); got != want {
		t.Fatalf("legacy body digest %s, plain spec digest %s", got, want)
	}

	srv := newDurable(t, t.TempDir(), Config{Workers: 2, QueueDepth: 8})
	defer srv.Drain(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	first := waitTerminal(t, ts, submitJob(t, ts, plain))
	if first.State != colcache.StateDone {
		t.Fatalf("plain job ended %s: %s", first.State, first.Error)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(legacyRaw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cached colcache.JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&cached); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !cached.Cached {
		t.Fatalf("legacy body: HTTP %d cached=%v, want a cache hit", resp.StatusCode, cached.Cached)
	}
	if cached.Digest != first.Digest || cached.Result == nil || cached.Result.Cycles != first.Result.Cycles {
		t.Fatalf("legacy body served %+v, want the plain spec's result (digest %s)", cached, first.Digest)
	}
}

func TestMulticoreSpecValidation(t *testing.T) {
	lim := DefaultLimits
	bad := multicoreSpec("bad")
	bad.Multicore.Cores[0].Columns = []int{9} // outside the default 8-way L2
	if err := ValidateSim(bad, false, lim); err == nil {
		t.Error("out-of-range L2 column accepted")
	}

	twoSources := multicoreSpec("two")
	twoSources.Workload = &colcache.WorkloadSpec{Name: "stream"}
	if err := ValidateSim(twoSources, false, lim); err == nil {
		t.Error("multicore plus workload accepted as a single source")
	}

	withMaps := multicoreSpec("maps")
	withMaps.Maps = []colcache.MapSpec{{Base: 0, Size: 4096, Columns: []int{0}}}
	if err := ValidateSim(withMaps, false, lim); err == nil {
		t.Error("maps accepted alongside multicore")
	}

	none := multicoreSpec("ok")
	if err := ValidateSim(none, false, lim); err != nil {
		t.Errorf("valid multicore spec rejected: %v", err)
	}
}
