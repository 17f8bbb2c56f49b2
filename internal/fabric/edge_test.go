package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	colcache "colcache"
	"colcache/internal/memtrace"
	"colcache/internal/service"
)

// edgeKind is one kind of submission: how to post it under a label, and
// the digest the coordinator routes it by.
type edgeKind struct {
	name   string
	path   string
	ctype  string
	body   func(label string) []byte
	query  func(label string) string
	digest string
}

func uploadTrace() []byte {
	tr := make(memtrace.Trace, 512)
	for i := range tr {
		tr[i] = memtrace.Access{Addr: uint64(i%96) * 16, Op: memtrace.Op(i % 2)}
	}
	var buf bytes.Buffer
	if err := memtrace.WriteBinary(&buf, tr); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func jsonKind(name, path string, spec func(label string) any, digest string) edgeKind {
	return edgeKind{
		name: name, path: path, ctype: "application/json", digest: digest,
		body: func(label string) []byte {
			b, _ := json.Marshal(spec(label))
			return b
		},
		query: func(string) string { return "" },
	}
}

// simKind is a single-core simulation of a stream over size bytes.
func simKind(size uint64) edgeKind {
	sim := func(label string) colcache.SimSpec {
		s := streamSpec(size)
		s.Label = label
		return s
	}
	return jsonKind("simulate", "/v1/simulate", func(l string) any { return sim(l) }, service.SimDigest(sim(""), nil))
}

func edgeKinds() []edgeKind {
	mc := func(label string) colcache.SimSpec {
		return colcache.SimSpec{
			Label:   label,
			Machine: colcache.MachineSpec{Sets: 16, Ways: 2},
			Multicore: &colcache.MulticoreSpec{Cores: []colcache.CoreSpec{
				{Workload: colcache.WorkloadSpec{Name: "mpeg-idct", N: 2}, Columns: []int{0}},
				{Workload: colcache.WorkloadSpec{Name: "stream", SizeBytes: 4096, Passes: 1}, Columns: []int{1}},
			}},
		}
	}
	sweep := func(label string) colcache.SweepSpec {
		return colcache.SweepSpec{Label: label, Base: streamSpec(4096), Ways: []int{1, 2}}
	}
	trace := uploadTrace()
	return []edgeKind{
		simKind(8192),
		jsonKind("multicore", "/v1/simulate", func(l string) any { return mc(l) }, service.SimDigest(mc(""), nil)),
		jsonKind("sweep", "/v1/sweep", func(l string) any { return sweep(l) }, service.SweepDigest(sweep(""))),
		{name: "upload", path: "/v1/simulate", ctype: "application/octet-stream",
			body:   func(string) []byte { return trace },
			query:  func(l string) string { return "sets=16&ways=4&label=" + url.QueryEscape(l) },
			digest: service.SimDigest(colcache.SimSpec{Machine: colcache.MachineSpec{Sets: 16, Ways: 4}}, trace)},
	}
}

// post submits k under label to base and returns the status and body.
func (k edgeKind) post(t *testing.T, base, label string) (int, []byte) {
	t.Helper()
	u := base + k.path
	if q := k.query(label); q != "" {
		u += "?" + q
	}
	resp, err := http.Post(u, k.ctype, bytes.NewReader(k.body(label)))
	if err != nil {
		t.Fatalf("%s submit: %v", k.name, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("%s read: %v", k.name, err)
	}
	return resp.StatusCode, buf.Bytes()
}

var hitTimes = regexp.MustCompile(`"(submitted_at|finished_at)":"[^"]*"`)

// withoutTimes blanks a hit document's two timestamps, the only bytes two
// answers of the same hit may differ in.
func withoutTimes(doc []byte) []byte {
	return hitTimes.ReplaceAll(doc, []byte(`"$1":""`))
}

func waitResident(t *testing.T, c *Coordinator, digest string) edgeEntry {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ent, ok := c.edge.get(digest); ok {
			return ent
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("digest %s never became resident at the coordinator", digest)
	return edgeEntry{}
}

// waitFillsDone waits until no fill is in flight.
func waitFillsDone(t *testing.T, c *Coordinator) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		c.edge.mu.Lock()
		n := len(c.edge.filling)
		c.edge.mu.Unlock()
		if n == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("a fill never finished")
}

func startDurableWorker(t *testing.T, coordURL, name string) *testWorker {
	t.Helper()
	dur, err := service.OpenDurability(t.TempDir(), "", 0)
	if err != nil {
		t.Fatalf("durability: %v", err)
	}
	w := startTestWorker(t, coordURL, name, service.Config{Durability: dur, Workers: 2})
	t.Cleanup(func() { dur.Close() })
	return w
}

// runToDone submits k once through the coordinator and waits for the job.
func runToDone(t *testing.T, coordURL string, k edgeKind, label string) {
	t.Helper()
	code, body := k.post(t, coordURL, label)
	if code != http.StatusAccepted {
		t.Fatalf("%s first submit: HTTP %d: %s", k.name, code, body)
	}
	var info colcache.JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := colcache.NewClient(coordURL, nil).Wait(ctx, info.ID)
	if err != nil || final.State != colcache.StateDone {
		t.Fatalf("%s first job: %v %+v", k.name, err, final)
	}
}

// TestEdgeHitMatchesRelay: once an owner has answered a hit, the
// coordinator answers that digest itself, and its answer is the owner's
// byte for byte, timestamps aside, for every kind and for labels that are
// empty or need escaping.
func TestEdgeHitMatchesRelay(t *testing.T) {
	coord, coordURL := startTestCoordinator(t, CoordinatorConfig{})
	w := startDurableWorker(t, coordURL, "w1")
	waitAlive(t, coordURL, 1)

	labels := []string{"", "plain", `<"&"> \ `, "line\u2028sep ümlaut"}
	for _, k := range edgeKinds() {
		runToDone(t, coordURL, k, "first")

		code, relayed := k.post(t, coordURL, "second")
		if code != http.StatusOK {
			t.Fatalf("%s relayed hit: HTTP %d: %s", k.name, code, relayed)
		}
		direct := func(label string) []byte {
			code, doc := k.post(t, w.http.URL, label)
			if code != http.StatusOK {
				t.Fatalf("%s direct hit: HTTP %d: %s", k.name, code, doc)
			}
			return withoutTimes(doc)
		}
		if want := direct("second"); !bytes.Equal(withoutTimes(relayed), want) {
			t.Fatalf("%s relayed hit is not the owner's document:\n got %s\nwant %s", k.name, relayed, want)
		}
		if ent := waitResident(t, coord, k.digest); ent.node != "w1" {
			t.Fatalf("%s resident envelope from %q, want w1", k.name, ent.node)
		}

		for _, label := range labels {
			before := coord.edgeHits.Load()
			code, doc := k.post(t, coordURL, label)
			if code != http.StatusOK {
				t.Fatalf("%s edge hit %q: HTTP %d: %s", k.name, label, code, doc)
			}
			if coord.edgeHits.Load() != before+1 {
				t.Fatalf("%s label %q was not answered at the coordinator", k.name, label)
			}
			if want := direct(label); !bytes.Equal(withoutTimes(doc), want) {
				t.Fatalf("%s label %q:\n got %s\nwant %s", k.name, label, doc, want)
			}
			var info colcache.JobInfo
			if err := json.Unmarshal(doc, &info); err != nil || info.Label != label || info.Node != "w1" || info.Digest != k.digest {
				t.Fatalf("%s label %q: decoded %+v (%v)", k.name, label, info, err)
			}
		}
	}
	if cv := clusterViewOf(t, coordURL); cv.EdgeHits != int64(len(edgeKinds())*len(labels)) || cv.CachedRelays != int64(len(edgeKinds())) {
		t.Fatalf("edge_hits %d, cached_relays %d", cv.EdgeHits, cv.CachedRelays)
	}
}

// fakeWorker answers every submission with a cache-hit document and every
// result read with whatever envelope the test sets.
type fakeWorker struct {
	http     *httptest.Server
	submits  atomic.Int64
	mu       sync.Mutex
	envelope []byte
}

func startFakeWorker(t *testing.T, coordURL, name string) *fakeWorker {
	t.Helper()
	f := &fakeWorker{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/simulate", func(w http.ResponseWriter, r *http.Request) {
		f.submits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"kind":"simulate","state":"done","cached":true,"node":"` + name + `"}` + "\n"))
	})
	mux.HandleFunc("GET /v1/results/{digest}", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		env := f.envelope
		f.mu.Unlock()
		w.Write(env)
	})
	f.http = httptest.NewServer(mux)
	agent := StartAgent(AgentConfig{
		Coordinator: coordURL,
		Name:        name,
		BaseURL:     f.http.URL,
		Interval:    50 * time.Millisecond,
		Status:      func() (map[string]int64, int, int) { return nil, 0, 0 },
	})
	t.Cleanup(func() {
		agent.Stop()
		f.http.Close()
	})
	return f
}

func (f *fakeWorker) serve(envelope []byte) {
	f.mu.Lock()
	f.envelope = envelope
	f.mu.Unlock()
}

// TestEdgeFillVerifies: a fill keeps an envelope only if it names the
// routed digest and closes where CachedHit expects; anything else stores
// nothing, and the digest's hits keep going to the owner.
func TestEdgeFillVerifies(t *testing.T) {
	k := simKind(8192)
	digest := k.digest
	res := colcache.SimResult{Label: "first", Workload: "stream", Cycles: 123}
	envelope := func(kind, digest string) []byte {
		b, err := json.Marshal(colcache.StoredResult{Kind: kind, Digest: digest, Result: &res})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	good := envelope("simulate", digest)
	other := envelope("simulate", service.SimDigest(streamSpec(4096), nil))

	for _, tc := range []struct {
		name     string
		envelope []byte
		kept     bool
	}{
		{"other digest", other, false},
		{"other kind", envelope("sweep", digest), false},
		{"truncated", good[:len(good)-1], false},
		{"cut inside the result", good[:len(good)/2], false},
		{"verified", good, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coord, coordURL := startTestCoordinator(t, CoordinatorConfig{})
			f := startFakeWorker(t, coordURL, "fake")
			waitAlive(t, coordURL, 1)
			f.serve(tc.envelope)

			for i := 0; i < 2; i++ {
				if code, doc := k.post(t, coordURL, "x"); code != http.StatusOK {
					t.Fatalf("submission %d: HTTP %d: %s", i, code, doc)
				}
				waitFillsDone(t, coord)
				if _, ok := coord.edge.get(digest); ok != tc.kept {
					t.Fatalf("after submission %d resident = %v, want %v", i, ok, tc.kept)
				}
			}
			wantSubmits, wantEdge := int64(2), int64(0)
			if tc.kept {
				wantSubmits, wantEdge = 1, 1
			}
			if f.submits.Load() != wantSubmits || coord.edgeHits.Load() != wantEdge {
				t.Fatalf("owner saw %d submissions, coordinator answered %d; want %d and %d",
					f.submits.Load(), coord.edgeHits.Load(), wantSubmits, wantEdge)
			}
		})
	}
}

// TestEdgeEvictionRespectsBudget: the resident bytes never pass the
// budget, the oldest fill leaves first, and an envelope larger than the
// whole budget is never kept.
func TestEdgeEvictionRespectsBudget(t *testing.T) {
	e := newEdgeCache(1000)
	blob := func(n int) []byte { return bytes.Repeat([]byte{'x'}, n) }
	for i, d := range []string{"a", "b", "c", "d", "e"} {
		if !e.startFill(d) {
			t.Fatalf("fill %s refused", d)
		}
		if e.startFill(d) {
			t.Fatalf("second fill of %s in flight at once", d)
		}
		e.endFill(d, blob(300), "w")
		if n, b := e.size(); b > 1000 || n != min(i+1, 3) {
			t.Fatalf("after %s: %d entries, %d bytes", d, n, b)
		}
		if e.startFill(d) {
			t.Fatalf("resident %s filled again", d)
		}
	}
	for d, want := range map[string]bool{"a": false, "b": false, "c": true, "d": true, "e": true} {
		if _, ok := e.get(d); ok != want {
			t.Fatalf("%s resident = %v, want %v", d, ok, want)
		}
	}
	e.startFill("huge")
	e.endFill("huge", blob(1001), "w")
	if _, ok := e.get("huge"); ok {
		t.Fatal("an envelope over the whole budget was kept")
	}
	if _, ok := e.get("e"); !ok {
		t.Fatal("a refused envelope evicted resident ones")
	}

	// Through a live coordinator: a budget of one and a half envelopes
	// keeps only the latest digest filled.
	coord, coordURL := startTestCoordinator(t, CoordinatorConfig{})
	startDurableWorker(t, coordURL, "w1")
	waitAlive(t, coordURL, 1)
	older, newer := simKind(8192), simKind(16384)
	runToDone(t, coordURL, older, "x")
	older.post(t, coordURL, "x")
	ent := waitResident(t, coord, older.digest)
	coord.edge.mu.Lock()
	coord.edge.budget = int64(len(ent.blob)) * 3 / 2
	coord.edge.mu.Unlock()
	runToDone(t, coordURL, newer, "x")
	newer.post(t, coordURL, "x")
	waitResident(t, coord, newer.digest)
	if _, ok := coord.edge.get(older.digest); ok {
		t.Fatal("older envelope still resident past the budget")
	}
	if _, b := coord.edge.size(); b > coord.edge.budget {
		t.Fatalf("%d resident bytes over a budget of %d", b, coord.edge.budget)
	}
}

// TestEdgeHitsOutliveTheirWorker: a resident digest is still answered
// after the worker it came from dies, naming that worker.
func TestEdgeHitsOutliveTheirWorker(t *testing.T) {
	coord, coordURL := startTestCoordinator(t, CoordinatorConfig{PeerTTL: 250 * time.Millisecond})
	w := startDurableWorker(t, coordURL, "w1")
	waitAlive(t, coordURL, 1)
	k := edgeKinds()[0]
	runToDone(t, coordURL, k, "a")
	k.post(t, coordURL, "a")
	waitResident(t, coord, k.digest)

	w.kill()
	waitAlive(t, coordURL, 0)
	code, doc := k.post(t, coordURL, "after")
	var info colcache.JobInfo
	if code != http.StatusOK || json.Unmarshal(doc, &info) != nil || !info.Cached || info.Node != "w1" || info.Label != "after" {
		t.Fatalf("hit after the worker died: HTTP %d: %s", code, doc)
	}
	// A digest that was never resident has nowhere to go.
	if code, _ := edgeKinds()[2].post(t, coordURL, "x"); code != http.StatusServiceUnavailable {
		t.Fatalf("non-resident digest with no workers: HTTP %d, want 503", code)
	}
}

// TestEdgeKeepsRejections: a spec the worker rejects is still a 400 once
// a valid spec's envelope is resident, and so is one that only the
// coordinator can tell is malformed.
func TestEdgeKeepsRejections(t *testing.T) {
	coord, coordURL := startTestCoordinator(t, CoordinatorConfig{})
	startDurableWorker(t, coordURL, "w1")
	waitAlive(t, coordURL, 1)
	k := edgeKinds()[0]
	runToDone(t, coordURL, k, "a")
	k.post(t, coordURL, "a")
	waitResident(t, coord, k.digest)

	for name, body := range map[string]string{
		"negative sets":     `{"machine":{"sets":-16,"ways":4},"workload":{"name":"stream","size_bytes":8192,"passes":1}}`,
		"two sources":       `{"machine":{"sets":16,"ways":4},"workload":{"name":"stream","size_bytes":8192,"passes":1},"trace_text":"R 0\n"}`,
		"unknown workload":  `{"machine":{"sets":16,"ways":4},"workload":{"name":"nope"}}`,
		"trailing garbage":  `{"machine":{"sets":16,"ways":4},"workload":{"name":"stream","size_bytes":8192,"passes":1}} x`,
		"label of bad type": `{"label":7,"machine":{"sets":16,"ways":4},"workload":{"name":"stream","size_bytes":8192,"passes":1}}`,
	} {
		resp, err := http.Post(coordURL+"/v1/simulate", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: HTTP %d, want 400", name, resp.StatusCode)
		}
	}
	if n := coord.edgeHits.Load(); n != 0 {
		t.Fatalf("%d rejected specs answered at the coordinator", n)
	}
}

// TestForwardKeepsConnectionsAlive: eight concurrent clients forwarding
// through the coordinator reuse a handful of connections to the worker
// instead of dialing it for most requests.
func TestForwardKeepsConnectionsAlive(t *testing.T) {
	_, coordURL := startTestCoordinator(t, CoordinatorConfig{})
	var opened atomic.Int64
	worker := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// A rejection: every submission is forwarded and relayed, and
		// none starts a fill.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"bad spec"}` + "\n"))
	}))
	worker.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	worker.Start()
	agent := StartAgent(AgentConfig{Coordinator: coordURL, Name: "w1", BaseURL: worker.URL,
		Interval: 50 * time.Millisecond, Status: func() (map[string]int64, int, int) { return nil, 0, 0 }})
	t.Cleanup(func() {
		agent.Stop()
		worker.Close()
	})
	waitAlive(t, coordURL, 1)

	const clients, perClient = 8, 200
	body, _ := json.Marshal(streamSpec(4096))
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < perClient; n++ {
				resp, err := client.Post(coordURL+"/v1/simulate", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var sink bytes.Buffer
				sink.ReadFrom(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusBadRequest {
					errs <- fmt.Errorf("HTTP %d: %s", resp.StatusCode, sink.Bytes())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := opened.Load(); n > 2*clients {
		t.Fatalf("%d clients x %d forwards opened %d worker connections, want at most %d", clients, perClient, n, 2*clients)
	}
}
