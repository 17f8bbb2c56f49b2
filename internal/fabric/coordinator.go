package fabric

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	colcache "colcache"
	"colcache/internal/service"
)

// CoordinatorConfig parameterizes a Coordinator. Zero fields take the
// documented defaults.
type CoordinatorConfig struct {
	// VNodes is the virtual-node count per worker (default DefaultVNodes).
	VNodes int
	// PeerTTL expires a worker that stops heartbeating (default 2s).
	PeerTTL time.Duration
	// SweepEvery is the failure-detector period (default PeerTTL/4).
	SweepEvery time.Duration
	// MaxBodyBytes bounds a forwarded submission body (default 32 MiB).
	MaxBodyBytes int64
	// RetainJobs bounds the routing table; oldest terminal routes are
	// evicted first (default 16384).
	RetainJobs int
	// ForwardTimeout bounds one proxied request (default 30s).
	ForwardTimeout time.Duration
	// Logf receives membership and stealing events (default: silent).
	Logf func(format string, args ...any)
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.PeerTTL <= 0 {
		c.PeerTTL = 2 * time.Second
	}
	if c.SweepEvery <= 0 {
		c.SweepEvery = c.PeerTTL / 4
	}
	if c.SweepEvery < 25*time.Millisecond {
		c.SweepEvery = 25 * time.Millisecond
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 16384
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// routedJob is the coordinator's record of one forwarded submission. The
// original body is retained until the job is terminal, because it is the
// steal currency: if the owning worker dies, the coordinator resubmits
// the body to the digest's new ring owner.
type routedJob struct {
	fabricID    string
	digest      string
	kind        string
	path        string // "/v1/simulate" or "/v1/sweep"
	rawQuery    string // octet-stream machine selection rides in the query
	contentType string

	mu       sync.Mutex
	body     []byte
	node     string // current assignment
	workerID string // job ID on that node
	stolen   bool
	stealing bool
	terminal bool
	failMsg  string            // set when stealing exhausted every option
	cached   *colcache.JobInfo // a steal answered from a successor's result cache
	accepted time.Time
}

// Coordinator is the fabric control plane: it owns the ring and the
// registry, serves the same /v1 data-plane API as a worker (proxying by
// digest), and re-routes the unfinished jobs of dead workers.
type Coordinator struct {
	cfg    CoordinatorConfig
	ring   *Ring
	reg    *Registry
	mux    *http.ServeMux
	client *http.Client
	// stream has no timeout: it carries open-ended SSE relays, which the
	// subscriber's request context bounds instead of the forward budget.
	stream *http.Client
	start  time.Time
	// edge holds verified result envelopes, so the coordinator answers
	// repeat hits itself instead of forwarding them to the owner.
	edge *edgeCache

	// idPrefix is "f" plus a random boot nonce, so fabric IDs issued by a
	// restarted coordinator never collide with the ones its predecessor
	// handed out.
	idPrefix string

	mu      sync.Mutex
	seq     int64
	jobs    map[string]*routedJob
	order   []string // insertion order, for retention eviction
	byNode  map[string]int64
	stopc   chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup

	routed        atomic.Int64
	forwardErrors atomic.Int64
	steals        atomic.Int64
	stealFailures atomic.Int64
	cachedRelays  atomic.Int64
	edgeHits      atomic.Int64
}

// ClusterView is the document of GET /fabric/v1/nodes: the membership
// table plus the coordinator's own books — what colload -fabric
// reconciles against the per-node ledgers.
type ClusterView struct {
	VNodes        int        `json:"vnodes"`
	Workers       []NodeView `json:"workers"`
	PendingJobs   int        `json:"pending_jobs"`
	JobsRouted    int64      `json:"jobs_routed"`
	JobsStolen    int64      `json:"jobs_stolen"`
	StealFailures int64      `json:"steal_failures"`
	ForwardErrors int64      `json:"forward_errors"`
	CachedRelays  int64      `json:"cached_relays"`
	EdgeHits      int64      `json:"edge_hits"`
}

// RouteView is the document of GET /fabric/v1/route/{digest}: where a
// content address routes right now. The chaos test measures join/leave
// remapping through this endpoint.
type RouteView struct {
	Digest     string   `json:"digest"`
	Node       string   `json:"node"`
	Successors []string `json:"successors,omitempty"`
}

// forwardIdlePerHost is how many idle connections the coordinator keeps
// open to each worker. The default transport keeps two, so more than two
// concurrent clients made the coordinator dial a worker afresh for most
// forwards.
const forwardIdlePerHost = 64

// NewCoordinator builds a coordinator and starts its failure detector.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	cfg = cfg.withDefaults()
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConns = 0 // no cap across workers; the per-host one holds
	transport.MaxIdleConnsPerHost = forwardIdlePerHost
	c := &Coordinator{
		cfg:    cfg,
		ring:   NewRing(cfg.VNodes),
		reg:    NewRegistry(cfg.PeerTTL),
		mux:    http.NewServeMux(),
		client: &http.Client{Timeout: cfg.ForwardTimeout, Transport: transport},
		stream: &http.Client{Transport: transport},
		start:  time.Now(),
		edge:   newEdgeCache(edgeBudgetBytes),
		jobs:   make(map[string]*routedJob),
		byNode: make(map[string]int64),
		stopc:  make(chan struct{}),
	}
	var nonce [8]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		// Only toolchains before Go 1.24 return an error here (later ones
		// abort the process); the boot time still differs across restarts.
		binary.BigEndian.PutUint64(nonce[:], uint64(c.start.UnixNano()))
	}
	c.idPrefix = "f" + hex.EncodeToString(nonce[:])
	c.mux.HandleFunc("POST /fabric/v1/heartbeat", c.handleHeartbeat)
	c.mux.HandleFunc("GET /fabric/v1/nodes", c.handleNodes)
	c.mux.HandleFunc("GET /fabric/v1/route/{digest}", c.handleRoute)
	c.mux.HandleFunc("POST /v1/simulate", c.handleSubmit)
	c.mux.HandleFunc("POST /v1/sweep", c.handleSubmit)
	c.mux.HandleFunc("GET /v1/jobs/{id}", c.handlePoll)
	c.mux.HandleFunc("GET /v1/jobs/{id}/inspect", c.handleInspectStream)
	c.mux.HandleFunc("GET /v1/jobs/{id}/inspect/frames", c.handleInspectFrames)
	c.mux.HandleFunc("GET /v1/jobs", c.handleJobs)
	c.mux.HandleFunc("GET /v1/results/{digest}", c.handleResult)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)
	c.mux.HandleFunc("GET /healthz", c.handleHealthz)

	c.wg.Add(1)
	go c.sweeper()
	return c
}

// Handler returns the coordinator's root HTTP handler.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Ring exposes the live ring (tests and the route endpoint read it).
func (c *Coordinator) Ring() *Ring { return c.ring }

// Registry exposes the membership table.
func (c *Coordinator) Registry() *Registry { return c.reg }

// Close stops the failure detector and any in-flight steal loops.
func (c *Coordinator) Close() {
	c.stopped.Do(func() { close(c.stopc) })
	c.wg.Wait()
}

// sweeper is the lease-based failure detector: workers that miss
// heartbeats past the TTL are declared dead, removed from the ring, and
// their unfinished jobs stolen onto ring successors.
func (c *Coordinator) sweeper() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.SweepEvery)
	defer tick.Stop()
	for {
		select {
		case <-c.stopc:
			return
		case now := <-tick.C:
			for _, name := range c.reg.Sweep(now) {
				c.nodeLost(name, "missed heartbeats")
			}
			c.reconcile(32)
		}
	}
}

// reconcile retires routed jobs whose terminal state no client ever
// polled for (the submitter hung up): without it those routes would hold
// their steal bodies until eviction and count as pending forever. Each
// tick refreshes up to limit non-terminal assignments from their workers.
func (c *Coordinator) reconcile(limit int) {
	c.mu.Lock()
	var stale []*routedJob
	for _, id := range c.order {
		j := c.jobs[id]
		if j == nil {
			continue
		}
		j.mu.Lock()
		take := !j.terminal && !j.stealing
		j.mu.Unlock()
		if take {
			stale = append(stale, j)
			if len(stale) >= limit {
				break
			}
		}
	}
	c.mu.Unlock()
	for _, j := range stale {
		c.refreshJob(j)
	}
}

// refreshJob asks a job's worker for its current state and retires the
// route if it is terminal. Dead workers are left to the steal path.
func (c *Coordinator) refreshJob(j *routedJob) {
	j.mu.Lock()
	node, workerID, stolen, digest := j.node, j.workerID, j.stolen, j.digest
	j.mu.Unlock()
	view, known := c.reg.Get(node)
	if !known || !view.Alive {
		return
	}
	resp, err := c.forward(http.MethodGet, view.BaseURL, "/v1/jobs/"+workerID, "", "", nil)
	if err != nil {
		c.forwardErrors.Add(1)
		c.workerDown(node, "reconcile: "+err.Error())
		return
	}
	payload, _ := io.ReadAll(io.LimitReader(resp.Body, c.cfg.MaxBodyBytes))
	resp.Body.Close()
	var info colcache.JobInfo
	if resp.StatusCode != http.StatusOK || json.Unmarshal(payload, &info) != nil {
		return
	}
	switch info.State {
	case colcache.StateDone, colcache.StateFailed, colcache.StateCanceled:
		info.ID = j.fabricID
		info.Node = node
		info.Recovered = stolen
		if info.Digest == "" {
			info.Digest = digest
		}
		j.mu.Lock()
		if j.node == node && j.workerID == workerID && !j.terminal {
			j.terminal = true
			j.body = nil
			doc := info
			j.cached = &doc
		}
		j.mu.Unlock()
	}
}

// workerDown expires a worker immediately (connection-refused beats the
// lease timer) and triggers stealing exactly once per death.
func (c *Coordinator) workerDown(name, reason string) {
	if c.reg.MarkDead(name) {
		c.nodeLost(name, reason)
	}
}

// nodeLost handles an already-expired worker: off the ring, jobs stolen.
func (c *Coordinator) nodeLost(name, reason string) {
	c.ring.Remove(name)
	c.cfg.Logf("fabric: worker %s down (%s); re-routing its unfinished jobs", name, reason)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.stealFrom(name)
	}()
}

// stealFrom re-routes every unfinished job assigned to a dead worker.
// The WAL on the dead node still holds those jobs — if it ever comes
// back it will finish them into its result cache, harmlessly — but the
// fabric does not wait: the coordinator retained each accepted body, so
// the ring successor can take over now.
func (c *Coordinator) stealFrom(dead string) {
	c.mu.Lock()
	var victims []*routedJob
	for _, j := range c.jobs {
		j.mu.Lock()
		take := !j.terminal && !j.stealing && j.node == dead
		if take {
			j.stealing = true
		}
		j.mu.Unlock()
		if take {
			victims = append(victims, j)
		}
	}
	c.mu.Unlock()
	sort.Slice(victims, func(i, k int) bool { return victims[i].fabricID < victims[k].fabricID })
	for _, j := range victims {
		c.stealJob(j)
	}
}

// stealJob resubmits one orphaned job to the current ring owner of its
// digest, walking further successors if they die too. Exhausting every
// option marks the job failed — and bumps the steal-failure counter that
// colload -fabric treats as lost work.
func (c *Coordinator) stealJob(j *routedJob) {
	defer func() {
		j.mu.Lock()
		j.stealing = false
		j.mu.Unlock()
	}()
	j.mu.Lock()
	body, path, rawQuery, contentType := j.body, j.path, j.rawQuery, j.contentType
	terminal := j.terminal
	j.mu.Unlock()
	if terminal || body == nil {
		return
	}
	for attempt := 0; attempt < 16; attempt++ {
		select {
		case <-c.stopc:
			return
		default:
		}
		owner, view, ok := c.pickOwner(j.digest)
		if !ok {
			// No live workers right now. An empty ring is often transient —
			// a GC-stalled worker's next heartbeat re-registers it — so wait
			// out part of the grace window instead of orphaning the job.
			select {
			case <-c.stopc:
				return
			case <-time.After(c.cfg.PeerTTL / 2):
			}
			continue
		}
		resp, err := c.forward(http.MethodPost, view.BaseURL, path, rawQuery, contentType, body)
		if err != nil {
			c.forwardErrors.Add(1)
			c.workerDown(owner, "steal forward: "+err.Error())
			continue
		}
		payload, _ := io.ReadAll(io.LimitReader(resp.Body, c.cfg.MaxBodyBytes))
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			var info colcache.JobInfo
			if err := json.Unmarshal(payload, &info); err != nil || info.ID == "" {
				c.stealFailures.Add(1)
				c.failJob(j, "steal resubmission returned an undecodable 202")
				return
			}
			j.mu.Lock()
			j.node, j.workerID, j.stolen = owner, info.ID, true
			j.mu.Unlock()
			c.steals.Add(1)
			c.countRouted(owner)
			c.cfg.Logf("fabric: job %s stolen to %s as %s", j.fabricID, owner, info.ID)
			return
		case http.StatusOK:
			// The successor's result cache already held the digest: the
			// steal is instantly terminal.
			var info colcache.JobInfo
			if err := json.Unmarshal(payload, &info); err == nil && info.Cached {
				info.ID = j.fabricID
				info.Node = owner
				info.Recovered = true
				j.mu.Lock()
				j.cached = &info
				j.stolen, j.terminal = true, true
				j.body = nil
				j.mu.Unlock()
				c.steals.Add(1)
				c.cachedRelays.Add(1)
				return
			}
			c.stealFailures.Add(1)
			c.failJob(j, "steal resubmission returned an undecodable 200")
			return
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			// Successor overloaded or draining: honor Retry-After, bounded.
			delay := 100 * time.Millisecond
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
				if d := time.Duration(ra) * time.Second; d < time.Second {
					delay = d
				} else {
					delay = time.Second
				}
			}
			select {
			case <-c.stopc:
				return
			case <-time.After(delay):
			}
		default:
			c.stealFailures.Add(1)
			c.failJob(j, fmt.Sprintf("steal resubmission rejected: HTTP %d: %s", resp.StatusCode, payload))
			return
		}
	}
	c.stealFailures.Add(1)
	c.failJob(j, "no live worker could take the stolen job")
}

func (c *Coordinator) failJob(j *routedJob, msg string) {
	j.mu.Lock()
	j.terminal = true
	j.failMsg = msg
	j.body = nil
	j.mu.Unlock()
	c.cfg.Logf("fabric: job %s lost: %s", j.fabricID, msg)
}

// pickOwner resolves the digest's ring owner to a live worker, pruning
// members the registry no longer believes in.
func (c *Coordinator) pickOwner(digest string) (string, NodeView, bool) {
	for i := 0; i < 8; i++ {
		owner, ok := c.ring.Owner(digest)
		if !ok {
			return "", NodeView{}, false
		}
		view, known := c.reg.Get(owner)
		if known && view.Alive {
			return owner, view, true
		}
		c.ring.Remove(owner)
	}
	return "", NodeView{}, false
}

// forward issues one proxied request.
func (c *Coordinator) forward(method, baseURL, path, rawQuery, contentType string, body []byte) (*http.Response, error) {
	url := baseURL + path
	if rawQuery != "" {
		url += "?" + rawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	req.Header.Set("X-Colcache-Fabric", "coordinator")
	return c.client.Do(req)
}

func (c *Coordinator) countRouted(node string) {
	c.routed.Add(1)
	c.mu.Lock()
	c.byNode[node]++
	c.mu.Unlock()
}

// --- control-plane handlers --------------------------------------------------

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var hb Heartbeat
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&hb); err != nil {
		writeJSON(w, http.StatusBadRequest, colcache.APIError{Error: "bad heartbeat: " + err.Error()})
		return
	}
	if hb.Name == "" || hb.BaseURL == "" {
		writeJSON(w, http.StatusBadRequest, colcache.APIError{Error: "heartbeat needs name and base_url"})
		return
	}
	if c.reg.Upsert(hb, time.Now()) {
		c.ring.Add(hb.Name)
		c.cfg.Logf("fabric: worker %s joined at %s (%d alive)", hb.Name, hb.BaseURL, c.reg.Alive())
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "workers": c.reg.Alive()})
}

func (c *Coordinator) handleNodes(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.clusterView())
}

func (c *Coordinator) clusterView() ClusterView {
	pending := 0
	c.mu.Lock()
	for _, j := range c.jobs {
		j.mu.Lock()
		if !j.terminal {
			pending++
		}
		j.mu.Unlock()
	}
	c.mu.Unlock()
	return ClusterView{
		VNodes:        c.ring.VNodes(),
		Workers:       c.reg.Snapshot(time.Now()),
		PendingJobs:   pending,
		JobsRouted:    c.routed.Load(),
		JobsStolen:    c.steals.Load(),
		StealFailures: c.stealFailures.Load(),
		ForwardErrors: c.forwardErrors.Load(),
		CachedRelays:  c.cachedRelays.Load(),
		EdgeHits:      c.edgeHits.Load(),
	}
}

func (c *Coordinator) handleRoute(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	succ := c.ring.Successors(digest, 3)
	if len(succ) == 0 {
		writeJSON(w, http.StatusServiceUnavailable, colcache.APIError{Error: "no workers joined"})
		return
	}
	writeJSON(w, http.StatusOK, RouteView{Digest: digest, Node: succ[0], Successors: succ[1:]})
}

// --- data-plane proxy --------------------------------------------------------

// digestOf computes the same content address the worker's durability
// layer would, from the submission as the coordinator sees it — routing
// and memoization must agree on the key or warm caches are useless. It
// also returns the submission's label (the spec's, the query's for an
// upload, or the sweep's), which the digest leaves out.
func digestOf(path string, r *http.Request, body []byte) (digest, kind, label string, err error) {
	if path == "/v1/sweep" {
		var spec colcache.SweepSpec
		if err := json.Unmarshal(body, &spec); err != nil {
			return "", "", "", fmt.Errorf("bad JSON: %v", err)
		}
		return service.SweepDigest(spec), "sweep", spec.Label, nil
	}
	if r.Header.Get("Content-Type") == "application/octet-stream" {
		spec, err := service.MachineFromQuery(r)
		if err != nil {
			return "", "", "", fmt.Errorf("bad query: %v", err)
		}
		return service.SimDigest(spec, body), "simulate", spec.Label, nil
	}
	var spec colcache.SimSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		return "", "", "", fmt.Errorf("bad JSON: %v", err)
	}
	kind = "simulate"
	if spec.Multicore != nil {
		kind = "multicore"
	}
	return service.SimDigest(spec, nil), kind, spec.Label, nil
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes))
	if err != nil {
		writeJSON(w, http.StatusRequestEntityTooLarge, colcache.APIError{Error: "body too large or unreadable"})
		return
	}
	path := "/v1/simulate"
	if r.URL.Path == "/v1/sweep" {
		path = "/v1/sweep"
	}
	digest, kind, label, err := digestOf(path, r, body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, colcache.APIError{Error: err.Error()})
		return
	}

	// A digest whose envelope is resident is answered here, by the splice
	// the worker itself would use. The digest covers the canonical spec
	// and leaves out only the label, which no validation reads, so the
	// owner's acceptance of the submission that filled the entry covers
	// this one too.
	if ent, ok := c.edge.get(digest); ok {
		if doc, ok := service.CachedHit(ent.blob, kind, digest, ent.node, label, time.Now()); ok {
			c.edgeHits.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			w.Write(doc)
			return
		}
	}

	// Route to the digest's owner; a connection error expires the owner
	// on the spot and retries the next one — the submission itself is the
	// failure detector's fastest path.
	for attempt := 0; attempt < 8; attempt++ {
		owner, view, ok := c.pickOwner(digest)
		if !ok {
			writeShed(w, http.StatusServiceUnavailable, 1, "no live workers in the fabric")
			return
		}
		resp, err := c.forward(http.MethodPost, view.BaseURL, path, r.URL.RawQuery, r.Header.Get("Content-Type"), body)
		if err != nil {
			c.forwardErrors.Add(1)
			c.workerDown(owner, "submit forward: "+err.Error())
			continue
		}
		if resp.StatusCode == http.StatusOK {
			// Warm result cache on the owner. The worker names itself in
			// the hit document, so it streams to the client as it is; the
			// envelope behind it is fetched once for later hits. The
			// length goes along, so an owner that dies mid-answer leaves
			// the client a short read, not a document that looks whole.
			c.cachedRelays.Add(1)
			w.Header().Set("Content-Type", "application/json")
			if resp.ContentLength >= 0 {
				w.Header().Set("Content-Length", strconv.FormatInt(resp.ContentLength, 10))
			}
			w.WriteHeader(http.StatusOK)
			io.Copy(w, resp.Body)
			resp.Body.Close()
			c.fill(digest, kind, owner, view.BaseURL)
			return
		}
		payload, _ := io.ReadAll(io.LimitReader(resp.Body, c.cfg.MaxBodyBytes))
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			var info colcache.JobInfo
			if err := json.Unmarshal(payload, &info); err != nil || info.ID == "" {
				writeJSON(w, http.StatusBadGateway, colcache.APIError{Error: "worker returned an undecodable 202"})
				return
			}
			j := c.registerJob(digest, kind, path, r.URL.RawQuery, r.Header.Get("Content-Type"), body, owner, info.ID)
			c.countRouted(owner)
			info.ID = j.fabricID
			info.Node = owner
			if info.Digest == "" {
				info.Digest = digest
			}
			w.Header().Set("Location", "/v1/jobs/"+j.fabricID)
			writeJSON(w, http.StatusAccepted, info)
			return
		default:
			// Backpressure and validation answers relay verbatim — the
			// client's retry contract is the same as against one daemon.
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				w.Header().Set("Retry-After", ra)
			}
			ct := resp.Header.Get("Content-Type")
			if ct == "" {
				ct = "application/json"
			}
			w.Header().Set("Content-Type", ct)
			w.WriteHeader(resp.StatusCode)
			w.Write(payload)
			return
		}
	}
	writeShed(w, http.StatusServiceUnavailable, 1, "no worker accepted the submission")
}

// fill keeps digest's stored envelope for later hits, fetched in the
// background from node, the worker that just answered a hit for it. At
// most one fill per digest is in flight; the client's answer never waits
// for one.
func (c *Coordinator) fill(digest, kind, node, baseURL string) {
	if !c.edge.startFill(digest) {
		return
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.edge.endFill(digest, c.fetchEnvelope(digest, kind, node, baseURL), node)
	}()
}

// fetchEnvelope reads digest's envelope from a worker through the same
// immutable GET /v1/results/{digest} any client may use. It returns nil
// unless the envelope names digest under the submission's kind, exactly
// where CachedHit reads them, and CachedHit accepts its shape.
func (c *Coordinator) fetchEnvelope(digest, kind, node, baseURL string) []byte {
	resp, err := c.forward(http.MethodGet, baseURL, "/v1/results/"+digest, "", "", nil)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	blob, err := io.ReadAll(io.LimitReader(resp.Body, edgeBudgetBytes+1))
	if err != nil || !bytes.HasPrefix(blob, []byte(`{"kind":"`+kind+`","digest":"`+digest+`",`)) {
		return nil
	}
	if _, ok := service.CachedHit(blob, kind, digest, node, "", time.Now()); !ok {
		return nil
	}
	return blob
}

// registerJob records a forwarded submission under a fresh fabric ID,
// f<boot nonce>-<sequence>.
func (c *Coordinator) registerJob(digest, kind, path, rawQuery, contentType string, body []byte, node, workerID string) *routedJob {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	j := &routedJob{
		fabricID:    fmt.Sprintf("%s-%08d", c.idPrefix, c.seq),
		digest:      digest,
		kind:        kind,
		path:        path,
		rawQuery:    rawQuery,
		contentType: contentType,
		body:        body,
		node:        node,
		workerID:    workerID,
		accepted:    time.Now(),
	}
	c.jobs[j.fabricID] = j
	c.order = append(c.order, j.fabricID)
	c.evictLocked()
	return j
}

// evictLocked drops the oldest terminal routes beyond the retention cap.
func (c *Coordinator) evictLocked() {
	if len(c.jobs) <= c.cfg.RetainJobs {
		return
	}
	excess := len(c.jobs) - c.cfg.RetainJobs
	kept := c.order[:0]
	for _, id := range c.order {
		j := c.jobs[id]
		if j == nil {
			continue
		}
		if excess > 0 {
			j.mu.Lock()
			terminal := j.terminal
			j.mu.Unlock()
			if terminal {
				delete(c.jobs, id)
				excess--
				continue
			}
		}
		kept = append(kept, id)
	}
	c.order = kept
}

func (c *Coordinator) handlePoll(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c.mu.Lock()
	j, ok := c.jobs[id]
	c.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, colcache.APIError{Error: fmt.Sprintf("no such job %q", id)})
		return
	}
	j.mu.Lock()
	node, workerID, stolen, digest, kind := j.node, j.workerID, j.stolen, j.digest, j.kind
	cached, failMsg := j.cached, j.failMsg
	j.mu.Unlock()

	if cached != nil {
		writeJSON(w, http.StatusOK, *cached)
		return
	}
	if failMsg != "" {
		writeJSON(w, http.StatusOK, colcache.JobInfo{
			ID: id, Kind: kind, State: colcache.StateFailed, Digest: digest,
			Node: node, Recovered: stolen, Error: failMsg, SubmittedAt: j.accepted,
		})
		return
	}

	view, known := c.reg.Get(node)
	var info colcache.JobInfo
	relayed := false
	if known {
		resp, err := c.forward(http.MethodGet, view.BaseURL, "/v1/jobs/"+workerID, "", "", nil)
		if err != nil {
			c.forwardErrors.Add(1)
			c.workerDown(node, "poll forward: "+err.Error())
		} else {
			payload, _ := io.ReadAll(io.LimitReader(resp.Body, c.cfg.MaxBodyBytes))
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && json.Unmarshal(payload, &info) == nil {
				relayed = true
			} else if resp.StatusCode == http.StatusNotFound {
				// The worker no longer knows the job (restarted over fresh
				// state, or evicted it): the assignment is lost even though
				// the node is alive — re-place the job from the retained
				// body, exactly like a steal.
				j.mu.Lock()
				replace := !j.terminal && !j.stealing && j.workerID == workerID
				if replace {
					j.stealing = true
				}
				j.mu.Unlock()
				if replace {
					c.wg.Add(1)
					go func() {
						defer c.wg.Done()
						c.stealJob(j)
					}()
				}
			}
		}
	}
	if !relayed {
		// The assignment is unreachable (worker just died, or its store
		// evicted the job). The route survives: answer queued so the
		// client keeps polling while the steal loop re-places the job.
		writeJSON(w, http.StatusOK, colcache.JobInfo{
			ID: id, Kind: kind, State: colcache.StateQueued, Digest: digest,
			Node: node, Recovered: stolen, SubmittedAt: j.accepted,
		})
		return
	}
	info.ID = id
	info.Node = node
	info.Recovered = stolen
	if info.Digest == "" {
		info.Digest = digest
	}
	switch info.State {
	case colcache.StateDone, colcache.StateFailed, colcache.StateCanceled:
		j.mu.Lock()
		// A steal may have re-placed the job between the snapshot above
		// and now; only the current assignment's terminal answer counts.
		// The terminal document is retained so later polls are answered
		// locally — the worker may be gone by then.
		if j.node == node && j.workerID == workerID && !j.terminal {
			j.terminal = true
			j.body = nil
			doc := info
			j.cached = &doc
		}
		j.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, info)
}

// assignment resolves a fabric job ID to its current worker placement.
func (c *Coordinator) assignment(id string) (node, workerID string, view NodeView, ok bool) {
	c.mu.Lock()
	j, known := c.jobs[id]
	c.mu.Unlock()
	if !known {
		return "", "", NodeView{}, false
	}
	j.mu.Lock()
	node, workerID = j.node, j.workerID
	j.mu.Unlock()
	view, alive := c.reg.Get(node)
	if !alive {
		return "", "", NodeView{}, false
	}
	return node, workerID, view, true
}

// handleInspectStream relays a live SSE inspection stream from the job's
// owning worker, flushing per read so frame latency survives the hop. The
// relay follows the assignment at attach time: if the worker dies
// mid-stream the relay ends with it, and the client reattaches after the
// steal loop re-places the job.
func (c *Coordinator) handleInspectStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	node, workerID, view, ok := c.assignment(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, colcache.APIError{Error: fmt.Sprintf("no live assignment for job %q", id)})
		return
	}
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		writeJSON(w, http.StatusInternalServerError, colcache.APIError{Error: "relay writer cannot stream"})
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, view.BaseURL+"/v1/jobs/"+workerID+"/inspect", nil)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, colcache.APIError{Error: err.Error()})
		return
	}
	req.Header.Set("X-Colcache-Fabric", "coordinator")
	resp, err := c.stream.Do(req)
	if err != nil {
		c.forwardErrors.Add(1)
		c.workerDown(node, "inspect forward: "+err.Error())
		writeJSON(w, http.StatusBadGateway, colcache.APIError{Error: "worker unreachable: " + err.Error()})
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		payload, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		ct := resp.Header.Get("Content-Type")
		if ct == "" {
			ct = "application/json"
		}
		w.Header().Set("Content-Type", ct)
		w.WriteHeader(resp.StatusCode)
		w.Write(payload)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			fl.Flush()
		}
		if err != nil {
			return
		}
	}
}

// handleInspectFrames relays the time-travel frame range from the job's
// owning worker, rewriting the document's job field to the fabric ID.
func (c *Coordinator) handleInspectFrames(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	node, workerID, view, ok := c.assignment(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, colcache.APIError{Error: fmt.Sprintf("no live assignment for job %q", id)})
		return
	}
	resp, err := c.forward(http.MethodGet, view.BaseURL, "/v1/jobs/"+workerID+"/inspect/frames", r.URL.RawQuery, "", nil)
	if err != nil {
		c.forwardErrors.Add(1)
		c.workerDown(node, "inspect frames forward: "+err.Error())
		writeJSON(w, http.StatusBadGateway, colcache.APIError{Error: "worker unreachable: " + err.Error()})
		return
	}
	payload, _ := io.ReadAll(io.LimitReader(resp.Body, c.cfg.MaxBodyBytes))
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		var doc colcache.InspectFrames
		if json.Unmarshal(payload, &doc) == nil {
			doc.Job = id
			writeJSON(w, http.StatusOK, doc)
			return
		}
	}
	ct := resp.Header.Get("Content-Type")
	if ct == "" {
		ct = "application/json"
	}
	w.Header().Set("Content-Type", ct)
	w.WriteHeader(resp.StatusCode)
	w.Write(payload)
}

func (c *Coordinator) handleJobs(w http.ResponseWriter, r *http.Request) {
	queued, running := 0, 0
	for _, v := range c.reg.Snapshot(time.Now()) {
		if v.Alive {
			queued += v.Queued
			running += v.Running
		}
	}
	writeJSON(w, http.StatusOK, colcache.JobList{Queued: queued, Running: running})
}

// handleResult routes a digest read to its ring owner, falling back to
// successors: after membership churn the blob may still live on a prior
// owner. Workers answer with Cache-Control: immutable + an ETag, and the
// relay preserves both, so fabric reads are HTTP-cacheable end to end.
func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	tried := map[string]bool{}
	for attempt := 0; attempt < 3; attempt++ {
		var target string
		for _, n := range c.ring.Successors(digest, 3) {
			if !tried[n] {
				target = n
				break
			}
		}
		if target == "" {
			break
		}
		tried[target] = true
		view, known := c.reg.Get(target)
		if !known || !view.Alive {
			continue
		}
		req, err := http.NewRequest(http.MethodGet, view.BaseURL+"/v1/results/"+digest, nil)
		if err != nil {
			continue
		}
		if inm := r.Header.Get("If-None-Match"); inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := c.client.Do(req)
		if err != nil {
			c.forwardErrors.Add(1)
			c.workerDown(target, "result forward: "+err.Error())
			continue
		}
		payload, _ := io.ReadAll(io.LimitReader(resp.Body, c.cfg.MaxBodyBytes))
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusNotModified {
			for _, h := range []string{"Content-Type", "Cache-Control", "ETag"} {
				if v := resp.Header.Get(h); v != "" {
					w.Header().Set(h, v)
				}
			}
			w.WriteHeader(resp.StatusCode)
			w.Write(payload)
			return
		}
	}
	writeJSON(w, http.StatusNotFound, colcache.APIError{Error: fmt.Sprintf("no result for digest %q on any live worker", digest)})
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "role": "coordinator", "workers": c.reg.Alive()})
}

// handleMetrics renders the fabric gauges in Prometheus text exposition,
// including the per-node job ledgers carried by heartbeats — one scrape
// of the coordinator reconciles the whole fleet's books.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	view := c.clusterView()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	alive := 0
	for _, n := range view.Workers {
		if n.Alive {
			alive++
		}
	}
	fmt.Fprintf(w, "# HELP colserved_fabric_workers_alive Live workers on the ring.\n# TYPE colserved_fabric_workers_alive gauge\ncolserved_fabric_workers_alive %d\n", alive)
	fmt.Fprintf(w, "# HELP colserved_fabric_workers_known Workers ever registered (alive and dead).\n# TYPE colserved_fabric_workers_known gauge\ncolserved_fabric_workers_known %d\n", len(view.Workers))
	fmt.Fprintf(w, "# HELP colserved_fabric_ring_vnodes Virtual nodes per worker.\n# TYPE colserved_fabric_ring_vnodes gauge\ncolserved_fabric_ring_vnodes %d\n", view.VNodes)
	fmt.Fprintf(w, "# HELP colserved_fabric_pending_jobs Routed jobs not yet terminal.\n# TYPE colserved_fabric_pending_jobs gauge\ncolserved_fabric_pending_jobs %d\n", view.PendingJobs)
	fmt.Fprintf(w, "# HELP colserved_fabric_jobs_routed_total Submissions forwarded to workers.\n# TYPE colserved_fabric_jobs_routed_total counter\ncolserved_fabric_jobs_routed_total %d\n", view.JobsRouted)
	fmt.Fprintf(w, "# HELP colserved_fabric_jobs_stolen_total Jobs re-routed off dead workers.\n# TYPE colserved_fabric_jobs_stolen_total counter\ncolserved_fabric_jobs_stolen_total %d\n", view.JobsStolen)
	fmt.Fprintf(w, "# HELP colserved_fabric_steal_failures_total Orphaned jobs no live worker could take.\n# TYPE colserved_fabric_steal_failures_total counter\ncolserved_fabric_steal_failures_total %d\n", view.StealFailures)
	fmt.Fprintf(w, "# HELP colserved_fabric_forward_errors_total Proxied requests that hit a dead worker.\n# TYPE colserved_fabric_forward_errors_total counter\ncolserved_fabric_forward_errors_total %d\n", view.ForwardErrors)
	fmt.Fprintf(w, "# HELP colserved_fabric_cached_relays_total Submissions answered from a worker's warm result cache.\n# TYPE colserved_fabric_cached_relays_total counter\ncolserved_fabric_cached_relays_total %d\n", view.CachedRelays)
	fmt.Fprintf(w, "# HELP colserved_fabric_edge_hits_total Submissions answered at the coordinator from a resident result envelope.\n# TYPE colserved_fabric_edge_hits_total counter\ncolserved_fabric_edge_hits_total %d\n", view.EdgeHits)

	c.mu.Lock()
	nodes := make([]string, 0, len(c.byNode))
	for n := range c.byNode {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	fmt.Fprintf(w, "# HELP colserved_fabric_node_routed_total Submissions routed per worker.\n# TYPE colserved_fabric_node_routed_total counter\n")
	for _, n := range nodes {
		fmt.Fprintf(w, "colserved_fabric_node_routed_total{node=%q} %d\n", n, c.byNode[n])
	}
	c.mu.Unlock()

	fmt.Fprintf(w, "# HELP colserved_fabric_node_jobs Per-node job ledger from the last heartbeat.\n# TYPE colserved_fabric_node_jobs gauge\n")
	for _, n := range view.Workers {
		outcomes := make([]string, 0, len(n.Ledger))
		for o := range n.Ledger {
			outcomes = append(outcomes, o)
		}
		sort.Strings(outcomes)
		for _, o := range outcomes {
			fmt.Fprintf(w, "colserved_fabric_node_jobs{node=%q,outcome=%q} %d\n", n.Name, o, n.Ledger[o])
		}
	}
	fmt.Fprintf(w, "# HELP colserved_fabric_uptime_seconds Seconds since the coordinator started.\n# TYPE colserved_fabric_uptime_seconds gauge\ncolserved_fabric_uptime_seconds %g\n", time.Since(c.start).Seconds())
}

// --- small shared helpers ----------------------------------------------------

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeShed(w http.ResponseWriter, code, retryAfter int, msg string) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	writeJSON(w, code, colcache.APIError{Error: msg, RetryAfterSeconds: retryAfter})
}
