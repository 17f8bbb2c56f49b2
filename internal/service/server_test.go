package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	colcache "colcache"
	"colcache/internal/memtrace"
)

func tinySpec(label string) colcache.SimSpec {
	return colcache.SimSpec{
		Label:    label,
		Machine:  colcache.MachineSpec{Sets: 16, Ways: 4},
		Workload: &colcache.WorkloadSpec{Name: "stream", SizeBytes: 2048, Passes: 1},
	}
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func waitTerminal(t *testing.T, ts *httptest.Server, id string) colcache.JobInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var info colcache.JobInfo
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch info.State {
		case colcache.StateDone, colcache.StateFailed, colcache.StateCanceled:
			return info
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return colcache.JobInfo{}
}

func TestSimulateRoundTrip(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 8})
	defer srv.Drain(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts, "/v1/simulate", tinySpec("rt"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var info colcache.JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.ID == "" || info.State != colcache.StateQueued {
		t.Fatalf("bad accept document: %+v", info)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+info.ID {
		t.Fatalf("Location = %q", loc)
	}

	final := waitTerminal(t, ts, info.ID)
	if final.State != colcache.StateDone || final.Result == nil {
		t.Fatalf("job did not finish: %+v", final)
	}
	if final.Result.Cycles <= 0 || final.Result.Cache.Accesses <= 0 {
		t.Fatalf("degenerate result: %+v", final.Result)
	}
	if final.Result.TraceAccesses != final.Result.Cache.Accesses {
		t.Fatalf("trace %d != cache accesses %d", final.Result.TraceAccesses, final.Result.Cache.Accesses)
	}
	if final.StartedAt == nil || final.FinishedAt == nil {
		t.Fatalf("missing timestamps: %+v", final)
	}
}

func TestSimulateDeterministicAcrossQueue(t *testing.T) {
	srv := New(Config{Workers: 4, QueueDepth: 32})
	defer srv.Drain(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := colcache.SimSpec{
		Machine:  colcache.MachineSpec{Sets: 32, Ways: 4},
		Workload: &colcache.WorkloadSpec{Name: "random", N: 2000, Seed: 3},
		Adaptive: &colcache.AdaptiveSpec{EpochAccesses: 256},
	}
	var cycles []int64
	for i := 0; i < 4; i++ {
		_, body := postJSON(t, ts, "/v1/simulate", spec)
		var info colcache.JobInfo
		json.Unmarshal(body, &info)
		final := waitTerminal(t, ts, info.ID)
		if final.State != colcache.StateDone {
			t.Fatalf("run %d: %+v", i, final)
		}
		cycles = append(cycles, final.Result.Cycles)
	}
	for i := 1; i < len(cycles); i++ {
		if cycles[i] != cycles[0] {
			t.Fatalf("same spec, different cycles: %v", cycles)
		}
	}
}

func TestTraceUpload(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	defer srv.Drain(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	tr := make(memtrace.Trace, 256)
	for i := range tr {
		tr[i] = memtrace.Access{Addr: uint64(i * 32), Op: memtrace.Read}
	}
	var buf bytes.Buffer
	if err := memtrace.WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/simulate?sets=16&ways=2&label=upload", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	var info colcache.JobInfo
	json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("upload: HTTP %d", resp.StatusCode)
	}
	final := waitTerminal(t, ts, info.ID)
	if final.State != colcache.StateDone || final.Result.TraceAccesses != 256 {
		t.Fatalf("upload job: %+v", final)
	}
	if final.Result.Workload != "upload" {
		t.Fatalf("workload = %q", final.Result.Workload)
	}

	// Malformed upload: rejected at submission, not enqueued.
	resp, err = ts.Client().Post(ts.URL+"/v1/simulate", "application/octet-stream", strings.NewReader("NOTATRACE"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage upload: HTTP %d, want 400", resp.StatusCode)
	}

	// Oversized upload: distinct 413.
	big := make(memtrace.Trace, 64)
	buf.Reset()
	memtrace.WriteBinary(&buf, big)
	srv2 := New(Config{Workers: 1, QueueDepth: 4, Limits: Limits{MaxTraceAccesses: 16}})
	defer srv2.Drain(context.Background())
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	resp, err = ts2.Client().Post(ts2.URL+"/v1/simulate", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: HTTP %d, want 413", resp.StatusCode)
	}
}

func TestBadRequests(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	defer srv.Drain(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		path string
		body string
		want int
	}{
		{"/v1/simulate", "{not json", http.StatusBadRequest},
		{"/v1/simulate", `{"machine":{"policy":"mru"},"workload":{"name":"stream"}}`, http.StatusBadRequest},
		{"/v1/simulate", `{"machine":{}}`, http.StatusBadRequest}, // no trace source
		{"/v1/simulate", `{"workload":{"name":"nope"}}`, http.StatusBadRequest},
		{"/v1/sweep", `{"base":{"workload":{"name":"stream"}},"ways":[1,2,3,0]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := ts.Client().Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var apiErr colcache.APIError
		json.NewDecoder(resp.Body).Decode(&apiErr)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %q: HTTP %d, want %d", tc.path, tc.body, resp.StatusCode, tc.want)
		}
		if apiErr.Error == "" {
			t.Errorf("%s %q: empty error body", tc.path, tc.body)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/j99999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestTraceTextRejectedAtSubmit checks that an inline trace is parsed at
// submission: a malformed, empty or oversized trace_text is a 400 for a
// simulate and for a sweep base, and never reaches the queue, so the
// accepted ledger does not move.
func TestTraceTextRejectedAtSubmit(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4, Limits: Limits{MaxTraceAccesses: 4}})
	defer srv.Drain(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for name, text := range map[string]string{
		"malformed": "0",
		"bad op":    "R 0\nX 20\n",
		"empty":     "# no records\n\n",
		"oversized": "R 0\nR 20\nR 40\nR 60\nR 80\n",
	} {
		spec := colcache.SimSpec{Machine: colcache.MachineSpec{Sets: 16, Ways: 4}, TraceText: text}
		if resp, body := postJSON(t, ts, "/v1/simulate", spec); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("simulate %s: HTTP %d, want 400: %s", name, resp.StatusCode, body)
		}
		sw := colcache.SweepSpec{Base: spec, Ways: []int{1, 2}}
		if resp, body := postJSON(t, ts, "/v1/sweep", sw); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("sweep %s: HTTP %d, want 400: %s", name, resp.StatusCode, body)
		}
	}
	m := srv.MetricsRegistry()
	for _, kind := range []string{"simulate", "sweep"} {
		if got := m.Jobs.Get(kind, "accepted"); got != 0 {
			t.Errorf("%s accepted = %d after rejected submissions, want 0", kind, got)
		}
	}

	// A trace at the limit is accepted, and a sweep over it runs every
	// point on the base trace parsed once.
	spec := colcache.SimSpec{Machine: colcache.MachineSpec{Sets: 16, Ways: 4}, TraceText: "R 0\nW 20 3\nR 0\nR 400\n"}
	resp, body := postJSON(t, ts, "/v1/simulate", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("valid trace_text: HTTP %d: %s", resp.StatusCode, body)
	}
	var info colcache.JobInfo
	json.Unmarshal(body, &info)
	single := waitTerminal(t, ts, info.ID)
	if single.State != colcache.StateDone || single.Result.TraceAccesses != 4 {
		t.Fatalf("valid trace_text: %+v", single)
	}
	resp, body = postJSON(t, ts, "/v1/sweep", colcache.SweepSpec{Base: spec, Ways: []int{2, 4}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("valid trace_text sweep: HTTP %d: %s", resp.StatusCode, body)
	}
	json.Unmarshal(body, &info)
	final := waitTerminal(t, ts, info.ID)
	if final.State != colcache.StateDone || final.Sweep == nil || len(final.Sweep.Points) != 2 {
		t.Fatalf("trace_text sweep: %+v", final)
	}
	if got, want := final.Sweep.Points[1].Result.Cycles, single.Result.Cycles; got != want {
		t.Errorf("sweep point ways=4: %d cycles, want the simulate's %d", got, want)
	}
}

func TestSweepRoundTrip(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4, SweepWorkers: 2})
	defer srv.Drain(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sw := colcache.SweepSpec{
		Label: "ways-sweep",
		Base:  tinySpec(""),
		Ways:  []int{1, 2, 4},
	}
	resp, body := postJSON(t, ts, "/v1/sweep", sw)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var info colcache.JobInfo
	json.Unmarshal(body, &info)
	final := waitTerminal(t, ts, info.ID)
	if final.State != colcache.StateDone || final.Sweep == nil {
		t.Fatalf("sweep: %+v", final)
	}
	if len(final.Sweep.Points) != 3 {
		t.Fatalf("want 3 points, got %d", len(final.Sweep.Points))
	}
	// More ways can't hurt a streaming workload: weakly monotone cycles.
	for i, p := range final.Sweep.Points {
		if p.Result.Cycles <= 0 {
			t.Fatalf("point %d degenerate: %+v", i, p)
		}
	}
	if final.Progress == nil || final.Progress.PointsDone != 3 {
		t.Fatalf("sweep progress: %+v", final.Progress)
	}
}

// TestBackpressure saturates a one-worker, depth-2 queue and checks the
// 429 contract: Retry-After set, JSON body, and every *accepted* job still
// runs to completion.
func TestBackpressure(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 2})
	gate := make(chan struct{})
	var gateOnce sync.Once
	srv.testHook = func(ctx context.Context, j *Job) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Pin the first job in the worker so exactly QueueDepth slots remain.
	resp0, body0 := postJSON(t, ts, "/v1/simulate", tinySpec("bp-pin"))
	if resp0.StatusCode != http.StatusAccepted {
		t.Fatalf("pin job: HTTP %d: %s", resp0.StatusCode, body0)
	}
	var pinned colcache.JobInfo
	json.Unmarshal(body0, &pinned)
	for deadline := time.Now().Add(5 * time.Second); srv.pool.Running() != 1; {
		if time.Now().After(deadline) {
			t.Fatal("pinned job never started")
		}
		time.Sleep(time.Millisecond)
	}

	accepted := []string{pinned.ID}
	rejected := 0
	for i := 0; i < 9; i++ {
		resp, body := postJSON(t, ts, "/v1/simulate", tinySpec(fmt.Sprintf("bp%d", i)))
		switch resp.StatusCode {
		case http.StatusAccepted:
			var info colcache.JobInfo
			json.Unmarshal(body, &info)
			accepted = append(accepted, info.ID)
		case http.StatusTooManyRequests:
			rejected++
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			var apiErr colcache.APIError
			if err := json.Unmarshal(body, &apiErr); err != nil || apiErr.Error == "" {
				t.Fatalf("429 body not an APIError: %s", body)
			}
			if apiErr.RetryAfterSeconds <= 0 {
				t.Fatalf("429 without retry_after_seconds: %s", body)
			}
		default:
			t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
		}
	}
	// 1 pinned + 2 queued can be in flight; the rest must shed.
	if len(accepted) != 3 || rejected != 7 {
		t.Fatalf("accepted %d rejected %d, want 3/7", len(accepted), rejected)
	}
	gateOnce.Do(func() { close(gate) })

	for _, id := range accepted {
		if final := waitTerminal(t, ts, id); final.State != colcache.StateDone {
			t.Fatalf("accepted job %s: %+v", id, final)
		}
	}
	m := srv.MetricsRegistry()
	if got := m.Jobs.Get("simulate", "accepted"); got != 3 {
		t.Fatalf("accepted counter = %d", got)
	}
	if got := m.Jobs.Get("simulate", "rejected"); got != 7 {
		t.Fatalf("rejected counter = %d", got)
	}
	if got := m.Jobs.Get("simulate", "done"); got != 3 {
		t.Fatalf("done counter = %d", got)
	}
	srv.Drain(context.Background())
}

// TestConcurrentLoad is the in-process acceptance check: 200 concurrent
// submitters against a bounded queue; every accepted job completes (zero
// dropped), overload surfaces only as 429, and the metrics ledger matches
// what the clients observed.
func TestConcurrentLoad(t *testing.T) {
	srv := New(Config{Workers: 4, QueueDepth: 64})
	defer srv.Drain(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ts.Client().Timeout = 30 * time.Second

	const clients = 200
	var accepted, rejected, completed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			spec := tinySpec(fmt.Sprintf("load%d", c))
			for {
				b, _ := json.Marshal(spec)
				resp, err := ts.Client().Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(b))
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				var info colcache.JobInfo
				json.NewDecoder(resp.Body).Decode(&info)
				resp.Body.Close()
				if resp.StatusCode == http.StatusTooManyRequests {
					rejected.Add(1)
					time.Sleep(time.Duration(c%7+1) * time.Millisecond)
					continue
				}
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf("client %d: HTTP %d", c, resp.StatusCode)
					return
				}
				accepted.Add(1)
				deadline := time.Now().Add(30 * time.Second)
				for time.Now().Before(deadline) {
					r2, err := ts.Client().Get(ts.URL + "/v1/jobs/" + info.ID)
					if err != nil {
						t.Errorf("client %d poll: %v", c, err)
						return
					}
					var cur colcache.JobInfo
					json.NewDecoder(r2.Body).Decode(&cur)
					r2.Body.Close()
					if r2.StatusCode == http.StatusNotFound {
						t.Errorf("client %d: accepted job %s vanished", c, info.ID)
						return
					}
					if cur.State == colcache.StateDone {
						completed.Add(1)
						return
					}
					if cur.State == colcache.StateFailed || cur.State == colcache.StateCanceled {
						t.Errorf("client %d: job %s %s: %s", c, info.ID, cur.State, cur.Error)
						return
					}
					time.Sleep(2 * time.Millisecond)
				}
				t.Errorf("client %d: job %s never finished", c, info.ID)
				return
			}
		}(c)
	}
	wg.Wait()

	if completed.Load() != clients || accepted.Load() != clients {
		t.Fatalf("accepted %d completed %d, want %d each", accepted.Load(), completed.Load(), clients)
	}
	m := srv.MetricsRegistry()
	if got := m.Jobs.Get("simulate", "accepted"); got != accepted.Load() {
		t.Fatalf("metrics accepted %d != client-observed %d", got, accepted.Load())
	}
	if got := m.Jobs.Get("simulate", "done"); got != completed.Load() {
		t.Fatalf("metrics done %d != client-observed %d", got, completed.Load())
	}
	if got := m.Jobs.Get("simulate", "rejected"); got != rejected.Load() {
		t.Fatalf("metrics rejected %d != client-observed %d", got, rejected.Load())
	}
	// Ledger closes: accepted = done + failed + canceled at idle.
	sum := m.Jobs.Get("simulate", "done") + m.Jobs.Get("simulate", "failed") + m.Jobs.Get("simulate", "canceled")
	if got := m.Jobs.Get("simulate", "accepted"); got != sum {
		t.Fatalf("ledger open: accepted %d != terminal %d", got, sum)
	}
	if m.SimAccesses.Load() <= 0 || m.SimCycles.Load() <= 0 {
		t.Fatal("sim work counters empty")
	}

	// Scrape parses and carries the totals.
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	want := fmt.Sprintf(`colserved_jobs_total{kind="simulate",outcome="done"} %d`, clients)
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("scrape missing %q", want)
	}
}

func TestJobsListing(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 8})
	defer srv.Drain(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var ids []string
	for i := 0; i < 3; i++ {
		_, body := postJSON(t, ts, "/v1/simulate", tinySpec(fmt.Sprintf("ls%d", i)))
		var info colcache.JobInfo
		json.Unmarshal(body, &info)
		ids = append(ids, info.ID)
	}
	for _, id := range ids {
		waitTerminal(t, ts, id)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list colcache.JobList
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list.Jobs) != 3 {
		t.Fatalf("listing has %d jobs, want 3", len(list.Jobs))
	}
	// Newest first.
	if list.Jobs[0].ID != ids[2] {
		t.Fatalf("listing order: %s first, want %s", list.Jobs[0].ID, ids[2])
	}
}

func TestStoreEvictionKeepsLiveJobs(t *testing.T) {
	st := newStore(3)
	mk := func(state string) *Job {
		j := &Job{Kind: "simulate", state: state}
		st.add(j)
		return j
	}
	done1 := mk(colcache.StateDone)
	running := mk(colcache.StateRunning)
	queued := mk(colcache.StateQueued)
	done2 := mk(colcache.StateDone)

	if _, ok := st.get(done1.ID); ok {
		t.Fatal("oldest terminal job not evicted")
	}
	for _, j := range []*Job{running, queued} {
		if _, ok := st.get(j.ID); !ok {
			t.Fatalf("live job %s evicted", j.ID)
		}
	}
	if _, ok := st.get(done2.ID); !ok {
		t.Fatal("newest job evicted")
	}
}

// TestOverLimitWorkloadRejectedAtSubmit checks that a generated trace
// longer than MaxTraceAccesses is refused from its access count at
// submission — as a simulate's workload, as one core of a multicore
// co-run, and as one point of a sweep — with a 400 that names the limit.
// No job is accepted and nothing reaches the WAL.
func TestOverLimitWorkloadRejectedAtSubmit(t *testing.T) {
	srv := newDurable(t, t.TempDir(), Config{Workers: 1, QueueDepth: 4, Limits: Limits{MaxTraceAccesses: 1000}})
	defer srv.Drain(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	idct := colcache.WorkloadSpec{Name: "mpeg-idct", N: 1} // one block: 2,176 accesses
	fits := colcache.WorkloadSpec{Name: "stream", SizeBytes: 2048, Passes: 1}
	machine := colcache.MachineSpec{Sets: 16, Ways: 4}
	for _, tc := range []struct {
		name, path string
		body       any
	}{
		{"simulate", "/v1/simulate", colcache.SimSpec{Machine: machine, Workload: &idct}},
		// size_bytes 2^28 over 1,024 passes of 4-byte elements: 2^36.
		{"saturating", "/v1/simulate", colcache.SimSpec{Machine: machine,
			Workload: &colcache.WorkloadSpec{Name: "stream", SizeBytes: 1 << 28, Passes: 1024}}},
		{"multicore core", "/v1/simulate", colcache.SimSpec{Machine: machine, Multicore: &colcache.MulticoreSpec{
			Cores: []colcache.CoreSpec{{Workload: fits}, {Workload: idct}}}}},
		{"sweep point", "/v1/sweep", colcache.SweepSpec{Base: colcache.SimSpec{Machine: machine, Workload: &fits},
			Workloads: []colcache.WorkloadSpec{fits, idct}}},
	} {
		resp, body := postJSON(t, ts, tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "limit 1000") {
			t.Errorf("%s: HTTP %d: %s; want a 400 naming the limit", tc.name, resp.StatusCode, body)
		}
	}
	for _, kind := range []string{"simulate", "multicore", "sweep"} {
		if got := srv.MetricsRegistry().Jobs.Get(kind, "accepted"); got != 0 {
			t.Errorf("%s accepted = %d after over-limit submissions, want 0", kind, got)
		}
	}
	if n := len(srv.store.recent(10)); n != 0 {
		t.Errorf("%d jobs stored after over-limit submissions, want 0", n)
	}
	if st := srv.dur.Log.Stats(); st.Records != 0 {
		t.Errorf("%d WAL records after over-limit submissions, want 0", st.Records)
	}

	// The same machine accepts a workload that fits, and logs it.
	resp, body := postJSON(t, ts, "/v1/simulate", colcache.SimSpec{Machine: machine, Workload: &fits})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fitting workload: HTTP %d: %s", resp.StatusCode, body)
	}
	if st := srv.dur.Log.Stats(); st.Records == 0 {
		t.Error("accepted job left no WAL record")
	}
}
