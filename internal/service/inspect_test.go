package service

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	colcache "colcache"
	"colcache/internal/inspect"
)

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data string
}

// readSSE consumes events from an open SSE body until an "end" event, the
// maximum count, or EOF.
func readSSE(t *testing.T, body *bufio.Scanner, max int) []sseEvent {
	t.Helper()
	var events []sseEvent
	cur := sseEvent{}
	for body.Scan() {
		line := body.Text()
		switch {
		case line == "":
			if cur.name != "" || cur.data != "" {
				events = append(events, cur)
				if cur.name == "end" || len(events) >= max {
					return events
				}
				cur = sseEvent{}
			}
		case strings.HasPrefix(line, ":"): // comment / heartbeat
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		}
	}
	return events
}

func inspectServer(t *testing.T, every int) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Config{Workers: 2, QueueDepth: 8, InspectEvery: every, InspectHeartbeat: 25 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Drain(context.Background())
	})
	return srv, ts
}

func submitJob(t *testing.T, ts *httptest.Server, spec colcache.SimSpec) string {
	t.Helper()
	resp, body := postJSON(t, ts, "/v1/simulate", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var info colcache.JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	return info.ID
}

// Live SSE: attach while the job is pinned queued-in-worker, release it,
// and watch well-formed frames arrive followed by a clean "done" end event.
func TestInspectSSELiveStream(t *testing.T) {
	srv, ts := inspectServer(t, 64)
	gate := make(chan struct{})
	var once sync.Once
	srv.testHook = func(ctx context.Context, j *Job) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
	}
	defer once.Do(func() { close(gate) })

	id := submitJob(t, ts, tinySpec("sse-live"))
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/inspect")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inspect: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	once.Do(func() { close(gate) })

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	events := readSSE(t, sc, 10000)
	if len(events) < 2 {
		t.Fatalf("got %d events, want frames plus end", len(events))
	}
	last := events[len(events)-1]
	if last.name != "end" {
		t.Fatalf("stream did not terminate with an end event: %+v", last)
	}
	var end struct {
		Reason  string `json:"reason"`
		Dropped int64  `json:"dropped"`
	}
	if err := json.Unmarshal([]byte(last.data), &end); err != nil {
		t.Fatalf("end payload: %v", err)
	}
	if end.Reason != colcache.StateDone {
		t.Fatalf("end reason = %q, want done", end.Reason)
	}
	var frames int
	var prevSeq int64 = -1
	for _, ev := range events[:len(events)-1] {
		if ev.name != "frame" {
			continue
		}
		frames++
		var f inspect.Frame
		if err := json.Unmarshal([]byte(ev.data), &f); err != nil {
			t.Fatalf("malformed frame: %v\n%s", err, ev.data)
		}
		if f.Seq != prevSeq+1 {
			t.Fatalf("frame seq %d after %d", f.Seq, prevSeq)
		}
		prevSeq = f.Seq
		if len(f.Caches) == 0 || f.Caches[0].Name != "l1" ||
			len(f.Caches[0].Occ) != f.Caches[0].Sets*f.Caches[0].Ways {
			t.Fatalf("malformed cache frame: %+v", f.Caches)
		}
		if len(f.Masks) == 0 {
			t.Fatal("frame without mask table")
		}
	}
	if frames < 1 {
		t.Fatalf("saw %d frames, want >= 1", frames)
	}
	lastFrameEv := events[len(events)-2]
	var lastFrame inspect.Frame
	if err := json.Unmarshal([]byte(lastFrameEv.data), &lastFrame); err != nil {
		t.Fatal(err)
	}
	if !lastFrame.Final {
		t.Fatal("last streamed frame not marked final")
	}

	// The metrics surface reflects the capture.
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sc2 := bufio.NewScanner(mresp.Body)
	for sc2.Scan() {
		sb.WriteString(sc2.Text() + "\n")
	}
	mresp.Body.Close()
	if !strings.Contains(sb.String(), "colserved_inspect_frames_total") {
		t.Fatal("metrics missing colserved_inspect_frames_total")
	}
}

// A subscriber attaching after the job finished gets an immediate clean
// end event instead of a hang.
func TestInspectSSELateSubscriber(t *testing.T) {
	_, ts := inspectServer(t, 64)
	id := submitJob(t, ts, tinySpec("sse-late"))
	waitTerminal(t, ts, id)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/jobs/"+id+"/inspect", nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	events := readSSE(t, sc, 10)
	if len(events) != 1 || events[0].name != "end" {
		t.Fatalf("late subscriber events = %+v, want a single end", events)
	}
	if !strings.Contains(events[0].data, colcache.StateDone) {
		t.Fatalf("end payload %q missing done reason", events[0].data)
	}
}

// A slow client (tiny buffer, never reading while the job runs) loses
// frames without blocking the simulation; the loss is counted.
func TestInspectSlowClientDrops(t *testing.T) {
	srv, ts := inspectServer(t, 16)
	gate := make(chan struct{})
	srv.testHook = func(ctx context.Context, j *Job) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
	}
	id := submitJob(t, ts, tinySpec("sse-slow"))
	// Subscribe at the hub level with a depth-1 buffer and never drain it
	// while the job runs — the publisher must never block on it.
	sub := srv.inspect.feed(id).Subscribe(1)
	close(gate)
	waitTerminal(t, ts, id)
	var delivered int
	for range sub.C {
		delivered++
	}
	if delivered > 1 {
		t.Fatalf("undrained depth-1 subscriber got %d frames", delivered)
	}
	if sub.Dropped() == 0 {
		t.Fatal("no frames counted as dropped for the slow subscriber")
	}
	if sub.Reason() != colcache.StateDone {
		t.Fatalf("slow subscriber reason = %q, want done", sub.Reason())
	}
	if srv.inspect.feed(id).Dropped() != sub.Dropped() {
		t.Fatal("feed total does not reflect the subscriber's drops")
	}
}

// Graceful drain terminates streams of jobs that never ran with a
// "canceled" end event.
func TestInspectStreamEndsOnDrain(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 8, InspectEvery: 64, InspectHeartbeat: 25 * time.Millisecond})
	gate := make(chan struct{})
	srv.testHook = func(ctx context.Context, j *Job) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer close(gate)

	pin := submitJob(t, ts, tinySpec("drain-pin"))
	_ = pin
	queued := submitJob(t, ts, tinySpec("drain-queued"))

	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + queued + "/inspect")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	done := make(chan []sseEvent, 1)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		done <- readSSE(t, sc, 100)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	_ = srv.Drain(ctx)

	select {
	case events := <-done:
		if len(events) == 0 || events[len(events)-1].name != "end" {
			t.Fatalf("drained stream events = %+v, want terminal end", events)
		}
		if !strings.Contains(events[len(events)-1].data, colcache.StateCanceled) {
			t.Fatalf("end payload %q, want canceled", events[len(events)-1].data)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("stream never terminated after drain")
	}
}

// Time travel: retained frames of a finished job are scrubbable by range,
// inverted ranges 400, and both endpoints 404 when inspection is off.
func TestInspectTimeTravel(t *testing.T) {
	_, ts := inspectServer(t, 64)
	id := submitJob(t, ts, tinySpec("tt"))
	waitTerminal(t, ts, id)

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			sb.WriteString(sc.Text())
		}
		return resp, []byte(sb.String())
	}

	resp, body := get("/v1/jobs/" + id + "/inspect/frames")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("frames: HTTP %d: %s", resp.StatusCode, body)
	}
	var doc colcache.InspectFrames
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Count < 2 || doc.First != 0 {
		t.Fatalf("frames count=%d first=%d, want several from 0", doc.Count, doc.First)
	}
	for i, raw := range doc.Frames {
		var f inspect.Frame
		if err := json.Unmarshal(raw, &f); err != nil {
			t.Fatalf("frame %d malformed: %v", i, err)
		}
		if f.Seq != int64(i) {
			t.Fatalf("frame %d has seq %d", i, f.Seq)
		}
	}

	// Range slice.
	resp, body = get("/v1/jobs/" + id + "/inspect/frames?from=1&to=2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("range: HTTP %d", resp.StatusCode)
	}
	var slice colcache.InspectFrames
	if err := json.Unmarshal(body, &slice); err != nil {
		t.Fatal(err)
	}
	if slice.Count != 2 || slice.First != 1 {
		t.Fatalf("slice count=%d first=%d, want 2 from 1", slice.Count, slice.First)
	}

	// Inverted range.
	resp, _ = get("/v1/jobs/" + id + "/inspect/frames?from=5&to=2")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("inverted range: HTTP %d, want 400", resp.StatusCode)
	}
	// Unknown job.
	resp, _ = get("/v1/jobs/zzz/inspect/frames")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: HTTP %d, want 404", resp.StatusCode)
	}

	// Disabled server: both endpoints 404 even for real jobs.
	srv2 := New(Config{Workers: 1, QueueDepth: 4})
	defer srv2.Drain(context.Background())
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	id2 := submitJob(t, ts2, tinySpec("tt-off"))
	waitTerminal(t, ts2, id2)
	for _, p := range []string{"/v1/jobs/" + id2 + "/inspect", "/v1/jobs/" + id2 + "/inspect/frames"} {
		resp, err := ts2.Client().Get(ts2.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s on disabled server: HTTP %d, want 404", p, resp.StatusCode)
		}
	}
}

// Multicore jobs emit per-core L1 frames plus the shared L2.
func TestInspectMulticoreFrames(t *testing.T) {
	_, ts := inspectServer(t, 256)

	id := submitJob(t, ts, multicoreSpec("mc"))
	info := waitTerminal(t, ts, id)
	if info.State != colcache.StateDone {
		t.Fatalf("state %s: %s", info.State, info.Error)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/inspect/frames")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc colcache.InspectFrames
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Count == 0 {
		t.Fatal("no frames retained")
	}
	var last inspect.Frame
	if err := json.Unmarshal(doc.Frames[len(doc.Frames)-1], &last); err != nil {
		t.Fatal(err)
	}
	if len(last.Caches) != 3 || last.Caches[0].Name != "core0" || last.Caches[2].Name != "l2" {
		t.Fatalf("multicore cache frames = %+v", last.Caches)
	}
	if len(last.Masks) != 2 || last.Masks[0].Kind != "core" {
		t.Fatalf("multicore masks = %+v", last.Masks)
	}
}
