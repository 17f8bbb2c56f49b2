package fabric

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	colcache "colcache"
	"colcache/internal/service"
)

// testWorker is one in-process worker: a real service.Server behind an
// httptest listener, kept registered by a real heartbeat agent.
type testWorker struct {
	name  string
	srv   *service.Server
	http  *httptest.Server
	agent *Agent
}

func (w *testWorker) stop() {
	if w.agent != nil {
		w.agent.Stop()
	}
	w.http.Close()
}

// kill simulates a crash: the heartbeats stop and the listener drops
// connections, with no drain.
func (w *testWorker) kill() {
	w.agent.Stop()
	w.agent = nil
	w.http.CloseClientConnections()
	w.http.Close()
}

// startTestWorker names the server after the worker, as colserved -role
// worker does, so its cache-hit documents carry the node.
func startTestWorker(t *testing.T, coordURL, name string, cfg service.Config) *testWorker {
	t.Helper()
	cfg.Node = name
	srv := service.New(cfg)
	hs := httptest.NewServer(srv.Handler())
	w := &testWorker{name: name, srv: srv, http: hs}
	w.agent = StartAgent(AgentConfig{
		Coordinator: coordURL,
		Name:        name,
		BaseURL:     hs.URL,
		Interval:    50 * time.Millisecond,
		Status:      srv.FabricStatus,
	})
	t.Cleanup(w.stop)
	return w
}

func startTestCoordinator(t *testing.T, cfg CoordinatorConfig) (*Coordinator, string) {
	t.Helper()
	if cfg.PeerTTL == 0 {
		cfg.PeerTTL = 300 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	coord := NewCoordinator(cfg)
	hs := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		hs.Close()
		coord.Close()
	})
	return coord, hs.URL
}

func waitAlive(t *testing.T, coordURL string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		cv := clusterViewOf(t, coordURL)
		alive := 0
		for _, w := range cv.Workers {
			if w.Alive {
				alive++
			}
		}
		if alive == n {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("cluster never reached %d alive workers", n)
}

func clusterViewOf(t *testing.T, coordURL string) ClusterView {
	t.Helper()
	resp, err := http.Get(coordURL + "/fabric/v1/nodes")
	if err != nil {
		t.Fatalf("nodes: %v", err)
	}
	defer resp.Body.Close()
	var cv ClusterView
	if err := json.NewDecoder(resp.Body).Decode(&cv); err != nil {
		t.Fatalf("nodes decode: %v", err)
	}
	return cv
}

func streamSpec(size uint64) colcache.SimSpec {
	return colcache.SimSpec{
		Machine:  colcache.MachineSpec{Sets: 16, Ways: 4},
		Workload: &colcache.WorkloadSpec{Name: "stream", SizeBytes: size, Passes: 1},
	}
}

func submitVia(t *testing.T, coordURL string, spec colcache.SimSpec) colcache.JobInfo {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(coordURL+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	var info colcache.JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("submit decode: %v", err)
	}
	if info.Digest == "" || info.Node == "" {
		t.Fatalf("submission missing fabric fields: %+v", info)
	}
	return info
}

func TestCoordinatorRoutesByDigest(t *testing.T) {
	_, coordURL := startTestCoordinator(t, CoordinatorConfig{})
	startTestWorker(t, coordURL, "w1", service.Config{})
	startTestWorker(t, coordURL, "w2", service.Config{})
	waitAlive(t, coordURL, 2)

	// The same spec routes to the same worker every time: that is the
	// warm-cache affinity the ring exists for.
	first := submitVia(t, coordURL, streamSpec(4096))
	for i := 0; i < 3; i++ {
		again := submitVia(t, coordURL, streamSpec(4096))
		if again.Node != first.Node {
			t.Fatalf("resubmission routed to %s, first went to %s", again.Node, first.Node)
		}
		if again.Digest != first.Digest {
			t.Fatalf("digest changed across identical submissions")
		}
	}

	// Distinct specs spread over both workers (12 digests on 2 nodes: the
	// chance of a one-sided split is ~2^-11 per hash choice, i.e. never —
	// the hash is deterministic, so this either always passes or the
	// placement is broken).
	nodes := map[string]bool{}
	client := colcache.NewClient(coordURL, nil)
	var ids []string
	for i := 0; i < 12; i++ {
		info := submitVia(t, coordURL, streamSpec(uint64(4096+64*i)))
		nodes[info.Node] = true
		if info.ID != "" {
			ids = append(ids, info.ID)
		}
	}
	if len(nodes) != 2 {
		t.Fatalf("12 distinct digests landed on %d nodes, want 2", len(nodes))
	}

	// Every accepted job polls to done through the coordinator, under its
	// fabric ID.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, id := range ids {
		final, err := client.Wait(ctx, id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if final.State != colcache.StateDone {
			t.Fatalf("job %s ended %s: %s", id, final.State, final.Error)
		}
		if final.ID != id {
			t.Fatalf("poll answered ID %s for fabric ID %s", final.ID, id)
		}
	}

	cv := clusterViewOf(t, coordURL)
	if cv.JobsRouted < 13 {
		t.Fatalf("JobsRouted = %d, want >= 13", cv.JobsRouted)
	}
	if cv.StealFailures != 0 || cv.JobsStolen != 0 {
		t.Fatalf("unexpected stealing on a healthy cluster: %+v", cv)
	}
}

func TestCoordinatorStealsFromDeadWorker(t *testing.T) {
	_, coordURL := startTestCoordinator(t, CoordinatorConfig{PeerTTL: 250 * time.Millisecond})
	w1 := startTestWorker(t, coordURL, "w1", service.Config{})
	w2 := startTestWorker(t, coordURL, "w2", service.Config{})
	waitAlive(t, coordURL, 2)

	// Submit a batch without polling: the coordinator cannot know which
	// are terminal, so every victim-owned job must be stolen on death.
	var ids []string
	victims := 0
	for i := 0; i < 10; i++ {
		info := submitVia(t, coordURL, streamSpec(uint64(2048+64*i)))
		ids = append(ids, info.ID)
		if info.Node == "w2" {
			victims++
		}
	}
	if victims == 0 {
		t.Fatalf("no jobs routed to the victim worker; placement is broken")
	}
	w2.kill()

	client := colcache.NewClient(coordURL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, id := range ids {
		final, err := client.Wait(ctx, id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if final.State != colcache.StateDone {
			t.Fatalf("job %s ended %s after steal: %s", id, final.State, final.Error)
		}
		if final.Node == "w2" {
			t.Fatalf("job %s reported done on the dead worker", id)
		}
	}

	cv := clusterViewOf(t, coordURL)
	if cv.JobsStolen == 0 {
		t.Fatalf("no jobs stolen although %d were routed to the dead worker", victims)
	}
	if cv.StealFailures != 0 {
		t.Fatalf("%d steal failures; every job had a live successor", cv.StealFailures)
	}
	_ = w1
}

func TestCoordinatorCachedRelay(t *testing.T) {
	_, coordURL := startTestCoordinator(t, CoordinatorConfig{})
	dur, err := service.OpenDurability(t.TempDir(), "", 0)
	if err != nil {
		t.Fatalf("durability: %v", err)
	}
	t.Cleanup(func() { dur.Close() })
	startTestWorker(t, coordURL, "w1", service.Config{Durability: dur})
	waitAlive(t, coordURL, 1)

	info := submitVia(t, coordURL, streamSpec(4096))
	client := colcache.NewClient(coordURL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := client.Wait(ctx, info.ID); err != nil {
		t.Fatalf("wait: %v", err)
	}

	// Resubmission is answered from the worker's result cache and relayed
	// as a terminal 200 by the coordinator.
	body, _ := json.Marshal(streamSpec(4096))
	resp, err := http.Post(coordURL+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: HTTP %d, want 200 cached", resp.StatusCode)
	}
	var cached colcache.JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&cached); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !cached.Cached || cached.Result == nil || cached.Node != "w1" {
		t.Fatalf("cached relay missing fields: %+v", cached)
	}

	// The digest read path is proxied with its HTTP cache validators.
	resp2, err := http.Get(coordURL + "/v1/results/" + info.Digest)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("result: HTTP %d", resp2.StatusCode)
	}
	if et := resp2.Header.Get("ETag"); et != `"`+info.Digest+`"` {
		t.Fatalf("result ETag = %q, want the digest", et)
	}
	if cc := resp2.Header.Get("Cache-Control"); cc == "" {
		t.Fatal("result missing Cache-Control")
	}

	req, _ := http.NewRequest(http.MethodGet, coordURL+"/v1/results/"+info.Digest, nil)
	req.Header.Set("If-None-Match", `"`+info.Digest+`"`)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("conditional result: %v", err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional result: HTTP %d, want 304", resp3.StatusCode)
	}
}

func TestCoordinatorRelaysInspectStream(t *testing.T) {
	_, coordURL := startTestCoordinator(t, CoordinatorConfig{})
	startTestWorker(t, coordURL, "w1", service.Config{InspectEvery: 4096})
	waitAlive(t, coordURL, 1)

	// A job long enough that the SSE attach lands while it is running.
	spec := colcache.SimSpec{
		Machine:  colcache.MachineSpec{Sets: 16, Ways: 4},
		Workload: &colcache.WorkloadSpec{Name: "stream", SizeBytes: 1 << 20, Passes: 8},
	}
	info := submitVia(t, coordURL, spec)

	resp, err := http.Get(coordURL + "/v1/jobs/" + info.ID + "/inspect")
	if err != nil {
		t.Fatalf("inspect: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inspect: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("inspect Content-Type = %q", ct)
	}
	// Walk the relayed event stream to its terminal event.
	var frames int
	var lastEvent, lastData string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	event, data := "", ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if event == "frame" {
				frames++
			}
			if event != "" {
				lastEvent, lastData = event, data
			}
			event, data = "", ""
		case len(line) > 0 && line[0] == ':':
		case len(line) > 7 && line[:7] == "event: ":
			event = line[7:]
		case len(line) > 6 && line[:6] == "data: ":
			data = line[6:]
		}
		if lastEvent == "end" {
			break
		}
	}
	if lastEvent != "end" {
		t.Fatalf("relayed stream did not end cleanly (last event %q)", lastEvent)
	}
	var end struct {
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal([]byte(lastData), &end); err != nil || end.Reason != colcache.StateDone {
		t.Fatalf("relayed end payload %q, want reason done", lastData)
	}
	if frames == 0 {
		t.Fatal("no frames relayed from the worker's live stream")
	}

	// The time-travel relay answers under the fabric ID.
	fresp, err := http.Get(coordURL + "/v1/jobs/" + info.ID + "/inspect/frames?from=0&to=1")
	if err != nil {
		t.Fatalf("frames: %v", err)
	}
	defer fresp.Body.Close()
	if fresp.StatusCode != http.StatusOK {
		t.Fatalf("frames: HTTP %d", fresp.StatusCode)
	}
	var doc colcache.InspectFrames
	if err := json.NewDecoder(fresp.Body).Decode(&doc); err != nil {
		t.Fatalf("frames decode: %v", err)
	}
	if doc.Job != info.ID || doc.Count != 2 || doc.First != 0 {
		t.Fatalf("frames doc = job %s count %d first %d, want fabric ID and [0,1]", doc.Job, doc.Count, doc.First)
	}

	// Inverted ranges and unknown jobs relay their errors.
	bresp, err := http.Get(coordURL + "/v1/jobs/" + info.ID + "/inspect/frames?from=3&to=1")
	if err != nil {
		t.Fatal(err)
	}
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("inverted range relay: HTTP %d, want 400", bresp.StatusCode)
	}
	nresp, err := http.Get(coordURL + "/v1/jobs/f99999999/inspect")
	if err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job relay: HTTP %d, want 404", nresp.StatusCode)
	}
}

// A restarted coordinator must not hand out its predecessor's fabric IDs: a
// client still holding a pre-restart ID gets a 404 from the new process,
// never somebody else's job. The restart swaps a fresh coordinator in behind
// the same address, so the worker's heartbeat agent re-registers on its own.
func TestCoordinatorRestartMintsFreshIDs(t *testing.T) {
	cfg := CoordinatorConfig{PeerTTL: 300 * time.Millisecond, Logf: t.Logf}
	var cur atomic.Pointer[Coordinator]
	cur.Store(NewCoordinator(cfg))
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur.Load().Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		front.Close()
		cur.Load().Close()
	})
	startTestWorker(t, front.URL, "w1", service.Config{})

	client := colcache.NewClient(front.URL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Each boot submits its own distinct specs, so every submission is
	// forwarded fresh (never a cached relay) and gets a fabric ID.
	submitBatch := func(sizeBase uint64) []string {
		waitAlive(t, front.URL, 1)
		var ids []string
		for i := uint64(0); i < 3; i++ {
			info := submitVia(t, front.URL, streamSpec(sizeBase+64*i))
			if info.ID == "" {
				t.Fatalf("fresh submission got no fabric ID: %+v", info)
			}
			if _, err := client.Wait(ctx, info.ID); err != nil {
				t.Fatalf("wait %s: %v", info.ID, err)
			}
			ids = append(ids, info.ID)
		}
		return ids
	}

	before := submitBatch(4096)
	cur.Swap(NewCoordinator(cfg)).Close()
	after := submitBatch(8192)

	seen := map[string]bool{}
	for _, id := range before {
		seen[id] = true
	}
	for _, id := range after {
		if seen[id] {
			t.Fatalf("restarted coordinator repeated fabric ID %s (before %v, after %v)", id, before, after)
		}
	}
	for _, id := range before {
		resp, err := http.Get(front.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("poll %s: %v", id, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("pre-restart ID %s polled HTTP %d at the new coordinator, want 404", id, resp.StatusCode)
		}
	}
}

func TestRegistryLeaseExpiry(t *testing.T) {
	reg := NewRegistry(100 * time.Millisecond)
	now := time.Now()
	if !reg.Upsert(Heartbeat{Name: "a", BaseURL: "http://a"}, now) {
		t.Fatal("first heartbeat not newly alive")
	}
	if reg.Upsert(Heartbeat{Name: "a", BaseURL: "http://a"}, now.Add(50*time.Millisecond)) {
		t.Fatal("renewal reported newly alive")
	}
	if dead := reg.Sweep(now.Add(80 * time.Millisecond)); len(dead) != 0 {
		t.Fatalf("lease expired early: %v", dead)
	}
	dead := reg.Sweep(now.Add(200 * time.Millisecond))
	if len(dead) != 1 || dead[0] != "a" {
		t.Fatalf("Sweep = %v, want [a]", dead)
	}
	if reg.Alive() != 0 {
		t.Fatalf("Alive() = %d after expiry", reg.Alive())
	}
	// A comeback heartbeat is newly alive again.
	if !reg.Upsert(Heartbeat{Name: "a", BaseURL: "http://a"}, now.Add(300*time.Millisecond)) {
		t.Fatal("comeback heartbeat not newly alive")
	}
	if !reg.MarkDead("a") || reg.MarkDead("a") {
		t.Fatal("MarkDead not edge-triggered")
	}
}

func TestCoordinatorShedsWithNoWorkers(t *testing.T) {
	_, coordURL := startTestCoordinator(t, CoordinatorConfig{PeerTTL: 100 * time.Millisecond})
	body, _ := json.Marshal(streamSpec(4096))
	resp, err := http.Post(coordURL+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty cluster submit: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 shed missing Retry-After")
	}
}

func TestHash64Deterministic(t *testing.T) {
	if hash64("a", "b") != hash64("a", "b") {
		t.Fatal("hash64 not deterministic")
	}
	if hash64("a", "b") == hash64("ab") {
		t.Fatal("hash64 joins parts without separation")
	}
	if hash64(fmt.Sprintf("k%d", 1)) == hash64(fmt.Sprintf("k%d", 2)) {
		t.Fatal("distinct keys collided (astronomically unlikely)")
	}
}
