package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	colcache "colcache"
	"colcache/internal/build"
	"colcache/internal/experiments"
	"colcache/internal/memsys"
	"colcache/internal/memtrace"
	"colcache/internal/runner"
)

// Config parameterizes a Server. Zero fields take the documented defaults.
type Config struct {
	// Workers bounds concurrently executing jobs (default: NumCPU).
	Workers int
	// QueueDepth bounds jobs waiting to start; a submission past the limit
	// is shed with 429 + Retry-After (default 256).
	QueueDepth int
	// SweepWorkers caps one sweep job's inner fan-out (default 4). A sweep
	// occupies a single queue worker; its points parallelize inside it.
	SweepWorkers int
	// MaxBodyBytes bounds any request body (default 32 MiB).
	MaxBodyBytes int64
	// Limits bound what one spec may ask for.
	Limits Limits
	// MaxSweepPoints bounds the expanded point count of one sweep
	// (default 512).
	MaxSweepPoints int
	// JobTimeout bounds one job's execution (default 120s).
	JobTimeout time.Duration
	// RetainJobs bounds how many jobs the store keeps; oldest terminal
	// jobs are evicted first, queued/running never (default 16384).
	RetainJobs int
	// CheckEvery is the simulation cancellation/checkpoint stride
	// (default memsys.DefaultCheckEvery).
	CheckEvery int
	// Durability, when non-nil, turns on the write-ahead log and the
	// content-addressed result cache (see OpenDurability). Nil keeps the
	// server fully in-memory.
	Durability *Durability
	// InspectEvery, when positive, captures an occupancy frame every that
	// many accesses on simulate and multicore jobs, serves them live on
	// GET /v1/jobs/{id}/inspect (SSE) and retains them for time travel on
	// GET /v1/jobs/{id}/inspect/frames. Zero disables inspection (both
	// endpoints 404).
	InspectEvery int
	// InspectFrameBytes budgets the retained-frame store; frames are
	// evicted oldest-first globally past it (default 16 MiB when
	// inspection is on; <0 disables retention, keeping only the live
	// stream).
	InspectFrameBytes int64
	// InspectHeartbeat is the SSE keep-alive comment cadence (default
	// 15s; tests shorten it).
	InspectHeartbeat time.Duration
	// Node is the fabric worker's ring name, written into every cache-hit
	// document so the coordinator can relay the hit as it is. Empty on a
	// standalone server, whose hit documents carry no node.
	Node string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.SweepWorkers <= 0 {
		c.SweepWorkers = 4
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	c.Limits = c.Limits.withDefaults()
	if c.MaxSweepPoints <= 0 {
		c.MaxSweepPoints = 512
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 120 * time.Second
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 16384
	}
	if c.InspectEvery > 0 && c.InspectFrameBytes == 0 {
		c.InspectFrameBytes = 16 << 20
	}
	return c
}

// Server is the colserved HTTP service: a bounded job queue in front of
// the simulation substrates, with live metrics.
type Server struct {
	cfg       Config
	store     *store
	pool      *runner.Pool[*Job]
	metrics   *Metrics
	mux       *http.ServeMux
	dur       *Durability // nil on an in-memory server
	recovery  RecoveryStats
	draining  chan struct{} // closed when Drain begins
	drainOnce sync.Once
	inspect   *inspectHub // nil unless Config.InspectEvery > 0

	// fabricGauges, when set (before serving traffic), is scraped into
	// /metrics — the worker role's heartbeat agent supplies it.
	fabricGauges func() FabricGauges

	// testHook, when set, runs at the head of every job; tests use it to
	// pin a job in the running state deterministically.
	testHook func(ctx context.Context, j *Job)
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		store:    newStore(cfg.RetainJobs),
		metrics:  NewMetrics(),
		mux:      http.NewServeMux(),
		dur:      cfg.Durability,
		draining: make(chan struct{}),
	}
	if cfg.InspectEvery > 0 {
		s.inspect = newInspectHub(cfg.InspectEvery, cfg.InspectFrameBytes, cfg.InspectHeartbeat)
		// An evicted job takes its inspect surface (feed + retained
		// frames) with it.
		s.store.onEvict = s.inspect.drop
	}
	s.pool = runner.NewPool(cfg.Workers, cfg.QueueDepth, s.runJob)

	// Boot recovery: replay the WAL before any HTTP traffic — accepted-
	// but-unrun jobs re-enqueue, in-flight simulate jobs resume from
	// their last checkpoint, and the log compacts to the survivors.
	if s.dur != nil {
		s.recovery = s.recoverJobs(s.dur.pending)
		s.dur.pending = nil
	}

	s.mux.Handle("POST /v1/simulate", s.instrument("/v1/simulate", s.handleSimulate))
	s.mux.Handle("POST /v1/sweep", s.instrument("/v1/sweep", s.handleSweep))
	s.mux.Handle("GET /v1/jobs/{id}", s.instrument("/v1/jobs/{id}", s.handleJob))
	s.mux.Handle("GET /v1/jobs/{id}/inspect", s.instrument("/v1/jobs/{id}/inspect", s.handleInspect))
	s.mux.Handle("GET /v1/jobs/{id}/inspect/frames", s.instrument("/v1/jobs/{id}/inspect/frames", s.handleInspectFrames))
	s.mux.Handle("GET /v1/jobs", s.instrument("/v1/jobs", s.handleJobs))
	s.mux.Handle("GET /v1/results/{digest}", s.instrument("/v1/results/{digest}", s.handleResult))
	s.mux.Handle("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	s.mux.Handle("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	return s
}

// Recovery reports what boot replay did (zero value on an in-memory
// server or a clean boot).
func (s *Server) Recovery() RecoveryStats { return s.recovery }

// Handler returns the root HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the registry (tests and embedding servers read it).
func (s *Server) MetricsRegistry() *Metrics { return s.metrics }

// SetFabricGauges installs the fabric-agent gauge source rendered on
// /metrics. Call before the server takes traffic.
func (s *Server) SetFabricGauges(fn func() FabricGauges) { s.fabricGauges = fn }

// FabricStatus is the heartbeat payload a fabric worker reports: the job
// ledger summed by outcome plus the live queue gauges.
func (s *Server) FabricStatus() (ledger map[string]int64, queued, running int) {
	return s.metrics.OutcomeTotals(), s.pool.Pending(), s.pool.Running()
}

func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// Drain gracefully shuts the queue down: new submissions are shed with
// 503, jobs that never started are canceled with a retriable status, and
// in-flight jobs get until ctx expires to complete — after which their
// contexts are canceled and the cooperative simulation loop stops them at
// the next checkpoint. Returns nil when everything settled inside the
// deadline.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() { close(s.draining) })
	// On a durable server the WAL gets a final sync no matter how the
	// drain ends: every record appended so far — accepted records of the
	// jobs we are about to hand back, checkpoints of the ones we cancel —
	// must be on stable storage before the process exits, because those
	// records are exactly what the next boot replays.
	defer func() {
		if s.dur != nil {
			_ = s.dur.Log.Sync()
		}
	}()
	discarded, err := s.pool.Drain(ctx)
	for _, j := range discarded {
		msg := "server draining before the job started; resubmit"
		if j.Digest != "" {
			// The accepted record stays in the WAL: a restart re-enqueues
			// this job, so the client can poll the result by digest
			// instead of re-uploading spec and trace bytes.
			msg = "server draining before the job started; job is journaled — poll /v1/results/" +
				j.Digest + " after restart, or resubmit"
		}
		j.finish(colcache.StateCanceled, true, msg, nil, nil)
		s.metrics.Jobs.Add(1, j.Kind, "canceled")
		s.observeJobLatency(j)
	}
	if err != nil {
		// Deadline passed with jobs still running: cancel their contexts
		// and give the cooperative loops a moment to unwind.
		s.pool.Kill()
		grace, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if _, err2 := s.pool.Drain(grace); err2 != nil {
			return fmt.Errorf("drain: %d jobs still running after cancellation: %w", s.pool.Running(), err2)
		}
		return err
	}
	return nil
}

// --- job execution -----------------------------------------------------------

func (s *Server) runJob(poolCtx context.Context, j *Job) {
	ctx, cancel := context.WithTimeout(poolCtx, s.cfg.JobTimeout)
	defer cancel()
	if s.testHook != nil {
		s.testHook(ctx, j)
	}
	s.appendRecord(recStarted, recMeta{ID: j.ID}, nil, false)

	var err error
	switch j.Kind {
	case "sweep":
		err = s.runSweep(ctx, j)
	case "multicore":
		err = s.runMulticore(ctx, j)
	default:
		err = s.runSimulate(ctx, j)
	}
	if err != nil {
		switch {
		case errors.Is(err, context.Canceled):
			// No terminal WAL record: the accepted record (and the
			// checkpoints journaled so far) keep the job recoverable — a
			// restart against the same data dir resumes it.
			j.finish(colcache.StateCanceled, true, "canceled during server drain", nil, nil)
			s.metrics.Jobs.Add(1, j.Kind, "canceled")
		case errors.Is(err, context.DeadlineExceeded):
			msg := fmt.Sprintf("job exceeded timeout %s", s.cfg.JobTimeout)
			j.finish(colcache.StateFailed, false, msg, nil, nil)
			s.appendRecord(recFailed, recMeta{ID: j.ID, Msg: msg}, nil, true)
			s.metrics.Jobs.Add(1, j.Kind, "failed")
		default:
			j.finish(colcache.StateFailed, false, err.Error(), nil, nil)
			s.appendRecord(recFailed, recMeta{ID: j.ID, Msg: err.Error()}, nil, true)
			s.metrics.Jobs.Add(1, j.Kind, "failed")
		}
	} else {
		s.metrics.Jobs.Add(1, j.Kind, "done")
	}
	s.observeJobLatency(j)
}

// commitResult finishes a successful job: the result is published to
// pollers, memoized in the content-addressed cache, and the done record
// committed — after which the job is gone from the WAL's live set.
func (s *Server) commitResult(j *Job, res *colcache.SimResult, sweep *colcache.SweepResult) {
	// Durable state first, publication last: a poller that observes the
	// terminal state and immediately resubmits the same spec must find
	// the memoized result already in place.
	if s.dur != nil && j.Digest != "" {
		if blob := storeResult(j, res, sweep); blob != nil {
			_ = s.dur.Results.Put(j.Digest, blob, false)
		}
		s.appendRecord(recDone, recMeta{ID: j.ID, Digest: j.Digest}, nil, true)
	}
	j.finish(colcache.StateDone, false, "", res, sweep)
}

func (s *Server) observeJobLatency(j *Job) {
	if d, ok := j.latency(); ok {
		s.metrics.JobSeconds.Observe(d.Seconds(), j.Kind)
	}
}

func (s *Server) runSimulate(ctx context.Context, j *Job) error {
	trace := j.Upload
	if trace == nil {
		// Taken, not kept: a finished job stays listed, and must not
		// pin its parsed trace.
		trace, j.inline = j.inline, nil
	}
	b, err := BuildSim(j.Spec, trace, s.cfg.Limits)
	if err != nil {
		return err
	}
	j.setRunning(b.Sys)
	total := int64(len(b.Trace))
	var resume memsys.Checkpoint
	if j.Resume != nil {
		resume = *j.Resume
	}
	var lastCycles, lastAccesses int64
	opts := memsys.RunOptions{
		CheckEvery: s.cfg.CheckEvery,
		OnCheckpoint: func(done int, st memsys.Stats) {
			s.metrics.SimCycles.Add(st.Cycles - lastCycles)
			s.metrics.SimAccesses.Add(st.MemAccesses - lastAccesses)
			lastCycles, lastAccesses = st.Cycles, st.MemAccesses
			p := colcache.JobProgress{
				AccessesDone:  int64(done),
				AccessesTotal: total,
				Cycles:        st.Cycles,
				CacheMissRate: st.Cache.MissRate(),
			}
			if b.Ctl != nil {
				p.Decisions = len(b.Ctl.Decisions())
			}
			j.publishProgress(p)
			// Journal progress without a sync — a lost checkpoint only
			// costs recovery time, never correctness. The final position
			// is skipped: the done record supersedes it.
			if int64(done) < total {
				cp := memsys.Checkpoint{Done: int64(done), Cycles: st.Cycles}
				s.appendRecord(recCheckpoint, recMeta{ID: j.ID, Checkpoint: &cp}, nil, false)
			}
		},
	}
	s.wireSimInspection(j, b, &opts)
	cycles, err := b.Sys.RunContextFrom(ctx, b.Trace, resume, opts)
	if err != nil {
		return err
	}
	res := Result(j.Spec.Label, b, cycles, j.Spec.Machine)
	s.commitResult(j, &res, nil)
	return nil
}

// runMulticore executes a multicore co-run job on the deterministic
// stepper with cooperative cancellation at the same checkpoint stride the
// single-core path uses.
func (s *Server) runMulticore(ctx context.Context, j *Job) error {
	b, err := BuildMulticore(j.Spec, s.cfg.Limits)
	if err != nil {
		return err
	}
	j.setRunning(nil)
	s.wireMulticoreInspection(j, b)
	var lastCycles, lastAccesses int64
	err = b.M.RunContext(ctx, s.cfg.CheckEvery, func(done int64) {
		st := b.M.Stats()
		var acc, miss, mem int64
		for _, c := range st.Cores {
			acc += c.L1.Accesses
			miss += c.L1.Misses
			mem += c.MemAccesses
		}
		s.metrics.SimCycles.Add(st.Cycles - lastCycles)
		s.metrics.SimAccesses.Add(mem - lastAccesses)
		lastCycles, lastAccesses = st.Cycles, mem
		p := colcache.JobProgress{
			AccessesDone:  done,
			AccessesTotal: b.TraceAccesses,
			Cycles:        st.Cycles,
		}
		if acc > 0 {
			p.CacheMissRate = float64(miss) / float64(acc)
		}
		j.publishProgress(p)
	})
	if err != nil {
		return err
	}
	res := MulticoreResult(j.Spec.Label, b)
	s.commitResult(j, &res, nil)
	return nil
}

// expandSweep crosses the base spec with the non-empty axes.
func expandSweep(sw colcache.SweepSpec, maxPoints int) ([]colcache.SimSpec, error) {
	// Axis entries must be explicit: a zero would silently decay to the
	// machine default and mislabel the point.
	for _, v := range sw.Sets {
		if v <= 0 {
			return nil, fmt.Errorf("sets axis value %d: want > 0", v)
		}
	}
	for _, v := range sw.Ways {
		if v <= 0 {
			return nil, fmt.Errorf("ways axis value %d: want > 0", v)
		}
	}
	for _, v := range sw.MissPenalties {
		if v <= 0 {
			return nil, fmt.Errorf("miss_penalties axis value %d: want > 0", v)
		}
	}
	for _, v := range sw.Policies {
		if v == "" {
			return nil, fmt.Errorf("policies axis has an empty entry")
		}
	}
	sets := sw.Sets
	if len(sets) == 0 {
		sets = []int{sw.Base.Machine.Sets}
	}
	ways := sw.Ways
	if len(ways) == 0 {
		ways = []int{sw.Base.Machine.Ways}
	}
	policies := sw.Policies
	if len(policies) == 0 {
		policies = []string{sw.Base.Machine.Policy}
	}
	penalties := sw.MissPenalties
	if len(penalties) == 0 {
		penalties = []int{sw.Base.Machine.MissPenalty}
	}
	var workloads []*colcache.WorkloadSpec
	if len(sw.Workloads) == 0 {
		workloads = []*colcache.WorkloadSpec{sw.Base.Workload}
	} else {
		for i := range sw.Workloads {
			workloads = append(workloads, &sw.Workloads[i])
		}
	}

	// Every axis has at least one entry. The running product is checked
	// against the cap before each multiply, so long axes cannot overflow
	// it past the check.
	n := 1
	for _, axis := range []int{len(sets), len(ways), len(policies), len(penalties), len(workloads)} {
		if axis > maxPoints/n {
			return nil, fmt.Errorf("sweep expands to more than the %d-point limit", maxPoints)
		}
		n *= axis
	}
	var out []colcache.SimSpec
	for _, wl := range workloads {
		for _, st := range sets {
			for _, wy := range ways {
				for _, pol := range policies {
					for _, pen := range penalties {
						spec := sw.Base
						spec.Machine.Sets = st
						spec.Machine.Ways = wy
						spec.Machine.Policy = pol
						spec.Machine.MissPenalty = pen
						if wl != nil {
							w := *wl
							spec.Workload = &w
						}
						m := build.WithDefaults(spec.Machine)
						label := fmt.Sprintf("sets=%d ways=%d policy=%s penalty=%d", m.Sets, m.Ways, m.Policy, m.MissPenalty)
						if wl != nil {
							label = "wl=" + wl.Name + " " + label
						}
						spec.Label = label
						out = append(out, spec)
					}
				}
			}
		}
	}
	return out, nil
}

// sweepPoints expands a sweep and validates every point. The base's inline
// trace_text is parsed once, not once per point, and returned (nil without
// one) so the points can share it.
func (s *Server) sweepPoints(sw colcache.SweepSpec) ([]colcache.SimSpec, memtrace.Trace, error) {
	points, err := expandSweep(sw, s.cfg.MaxSweepPoints)
	if err != nil {
		return nil, nil, err
	}
	for i := range points {
		if err := validateSpec(points[i], false, s.cfg.Limits); err != nil {
			return nil, nil, fmt.Errorf("point %q: %w", points[i].Label, err)
		}
	}
	var tr memtrace.Trace
	if sw.Base.TraceText != "" {
		if tr, err = parseTraceText(sw.Base.TraceText, s.cfg.Limits); err != nil {
			return nil, nil, err
		}
	}
	return points, tr, nil
}

func (s *Server) runSweep(ctx context.Context, j *Job) error {
	points, trace, err := s.sweepPoints(*j.SweepSpec)
	if err != nil {
		return err
	}
	j.setRunning(nil)
	j.publishProgress(colcache.JobProgress{PointsTotal: len(points)})

	workers := j.SweepSpec.Workers
	if workers <= 0 || workers > s.cfg.SweepWorkers {
		workers = s.cfg.SweepWorkers
	}
	jobs := make([]experiments.SpecJob, len(points))
	for i := range points {
		spec := points[i]
		jobs[i] = experiments.SpecJob{
			Label: spec.Label,
			Build: func() (*memsys.System, memtrace.Trace, error) {
				b, err := BuildSim(spec, trace, s.cfg.Limits)
				if err != nil {
					return nil, nil, err
				}
				return b.Sys, b.Trace, nil
			},
			After: func(sys *memsys.System, res *experiments.SpecResult) error {
				s.metrics.SimCycles.Add(res.Stats.Cycles)
				s.metrics.SimAccesses.Add(res.Stats.MemAccesses)
				// Rebuild the wire result from the finished machine.
				b := &Built{Sys: sys}
				if spec.Workload != nil {
					b.Workload = spec.Workload.Name
				}
				r := Result(spec.Label, b, res.Cycles, spec.Machine)
				r.TraceAccesses = res.Stats.MemAccesses
				res.Extra = colcache.SweepPoint{Label: spec.Label, Machine: spec.Machine, Result: r}
				return nil
			},
		}
	}
	results, err := experiments.RunSpecs(ctx, jobs, workers, s.cfg.CheckEvery, func(done, total int) {
		j.publishProgress(colcache.JobProgress{PointsDone: done, PointsTotal: total})
	})
	if err != nil {
		// Unwrap the runner's job attribution so context errors keep their
		// identity for the canceled/timeout classification above.
		return err
	}
	sweep := &colcache.SweepResult{Points: make([]colcache.SweepPoint, len(results))}
	for i, r := range results {
		sweep.Points[i] = r.Extra.(colcache.SweepPoint)
	}
	s.commitResult(j, nil, sweep)
	return nil
}

// --- HTTP handlers -----------------------------------------------------------

// statusRecorder captures the response code for metrics.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush passes through to the wrapped writer so SSE handlers behind the
// instrumentation wrapper can still stream per-event.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with per-path request counting and latency
// observation, using the route pattern (not the raw URL) as the label so
// cardinality stays bounded.
func (s *Server) instrument(pattern string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		s.metrics.RequestSeconds.Observe(time.Since(start).Seconds(), pattern)
		s.metrics.HTTPRequests.Add(1, pattern, strconv.Itoa(rec.code))
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, colcache.APIError{Error: fmt.Sprintf(format, args...)})
}

// writeShed answers a shed submission (full queue or draining) with the
// explicit backpressure contract: status + Retry-After.
func writeShed(w http.ResponseWriter, code int, retryAfter int, msg string) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	writeJSON(w, code, colcache.APIError{Error: msg, RetryAfterSeconds: retryAfter})
}

// submit queues a prepared job, converting pool saturation into 429 and
// drain into 503.
func (s *Server) submit(w http.ResponseWriter, j *Job) {
	if s.isDraining() {
		s.metrics.Jobs.Add(1, j.Kind, "rejected")
		writeShed(w, http.StatusServiceUnavailable, 1, "server draining")
		return
	}
	j.state = colcache.StateQueued
	j.Submitted = time.Now()
	s.store.add(j)
	if s.inspect != nil && j.Kind != "sweep" {
		// Whatever path finishes the job — commit, failure, timeout, drain
		// — closes its frame stream with the terminal state as the reason.
		j.onFinish = func(state string) { s.inspect.finish(j.ID, state) }
	}
	// The accepted record is committed BEFORE the job can start (and
	// before the 202 leaves): a started or checkpoint record can then
	// never precede its accepted record in the log, and an acknowledged
	// submission survives any crash after this point.
	if s.dur != nil {
		s.appendRecord(recAccepted,
			recMeta{ID: j.ID, Kind: j.Kind, Digest: j.Digest, Spec: &j.Spec, Sweep: j.SweepSpec},
			encodeTrace(j.Upload), true)
	}
	if err := s.pool.TrySubmit(j); err != nil {
		s.store.remove(j.ID)
		// Neutralize the accepted record — a shed job must not be
		// resurrected at the next boot.
		s.appendRecord(recCanceled, recMeta{ID: j.ID, Msg: "queue full"}, nil, true)
		s.metrics.Jobs.Add(1, j.Kind, "rejected")
		if errors.Is(err, runner.ErrPoolClosed) {
			writeShed(w, http.StatusServiceUnavailable, 1, "server draining")
		} else {
			writeShed(w, http.StatusTooManyRequests, 1,
				fmt.Sprintf("queue full (%d waiting)", s.pool.Pending()))
		}
		return
	}
	s.metrics.Jobs.Add(1, j.Kind, "accepted")
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, j.Info())
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	j := &Job{Kind: "simulate"}

	if r.Header.Get("Content-Type") == "application/octet-stream" {
		// Binary trace upload: machine via query parameters, body streamed
		// through the size-limited decoder — an oversized or malformed
		// trace is rejected without ever being fully buffered.
		spec, err := MachineFromQuery(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad query: %v", err)
			return
		}
		j.Spec = spec
		if err := ValidateSim(spec, true, s.cfg.Limits); err != nil {
			writeError(w, http.StatusBadRequest, "bad spec: %v", err)
			return
		}
		tr, err := memtrace.ReadBinaryLimit(r.Body, s.cfg.Limits.MaxTraceAccesses)
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, memtrace.ErrTraceTooLarge) {
				code = http.StatusRequestEntityTooLarge
			}
			writeError(w, code, "bad trace: %v", err)
			return
		}
		if len(tr) == 0 {
			writeError(w, http.StatusBadRequest, "empty trace")
			return
		}
		j.Upload = tr
		if s.dur != nil {
			j.Digest = SimDigest(spec, encodeTrace(tr))
			if s.serveCached(w, j.Kind, j.Digest, spec.Label) {
				return
			}
		}
		s.submit(w, j)
		return
	}

	var spec colcache.SimSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	inline, err := checkSim(spec, false, s.cfg.Limits)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	if spec.Multicore != nil {
		j.Kind = "multicore"
	}
	j.Spec = spec
	j.inline = inline
	if s.dur != nil {
		j.Digest = SimDigest(spec, nil)
		if s.serveCached(w, j.Kind, j.Digest, spec.Label) {
			return
		}
	}
	s.submit(w, j)
}

// MachineFromQuery parses the octet-stream submission's machine
// selection. Exported for the fabric coordinator, which must compute the
// same content address the worker will without buffering the trace twice.
func MachineFromQuery(r *http.Request) (colcache.SimSpec, error) {
	q := r.URL.Query()
	var spec colcache.SimSpec
	geti := func(key string) (int, error) {
		v := q.Get(key)
		if v == "" {
			return 0, nil
		}
		return strconv.Atoi(v)
	}
	var err error
	if spec.Machine.LineBytes, err = geti("line"); err != nil {
		return spec, fmt.Errorf("line: %v", err)
	}
	if spec.Machine.Sets, err = geti("sets"); err != nil {
		return spec, fmt.Errorf("sets: %v", err)
	}
	if spec.Machine.Ways, err = geti("ways"); err != nil {
		return spec, fmt.Errorf("ways: %v", err)
	}
	if spec.Machine.PageBytes, err = geti("page"); err != nil {
		return spec, fmt.Errorf("page: %v", err)
	}
	if spec.Machine.MissPenalty, err = geti("penalty"); err != nil {
		return spec, fmt.Errorf("penalty: %v", err)
	}
	spec.Machine.Policy = q.Get("policy")
	spec.Label = q.Get("label")
	return spec, nil
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var spec colcache.SweepSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	if _, _, err := s.sweepPoints(spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad sweep: %v", err)
		return
	}
	j := &Job{Kind: "sweep", SweepSpec: &spec, Spec: spec.Base}
	if s.dur != nil {
		j.Digest = SweepDigest(spec)
		if s.serveCached(w, j.Kind, j.Digest, spec.Label) {
			return
		}
	}
	s.submit(w, j)
}

// serveCached answers a submission straight from the result cache,
// reporting whether it did. The cached document comes back as a terminal
// JobInfo with Cached set and no ID — nothing was enqueued, there is
// nothing to poll. The label is re-applied per request: it is
// presentation, deliberately outside the digest.
func (s *Server) serveCached(w http.ResponseWriter, kind, digest, label string) bool {
	if s.dur == nil {
		return false
	}
	blob, ok := s.dur.Results.Get(digest)
	if !ok {
		return false
	}
	body, ok := CachedHit(blob, kind, digest, s.cfg.Node, label, time.Now())
	if !ok {
		return false
	}
	s.metrics.Jobs.Add(1, kind, "cached")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
	return true
}

// handleResult serves a finished result out of the content-addressed
// cache by digest — the poll target for clients whose job was shed
// during a drain (the retriable JobInfo names the digest). The document
// is immutable by construction (the digest addresses the inputs that
// produced it), so it carries the strongest cacheability a proxy can
// honor: Cache-Control immutable plus the digest itself as the ETag —
// fabric-forwarded reads revalidate with 304s instead of re-downloading.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	if s.dur == nil {
		writeError(w, http.StatusNotFound, "this server has no result cache")
		return
	}
	blob, ok := s.dur.Results.Get(digest)
	if !ok {
		writeError(w, http.StatusNotFound, "no result for digest %q", digest)
		return
	}
	etag := `"` + digest + `"`
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "public, max-age=31536000, immutable")
	if inm := r.Header.Get("If-None-Match"); inm != "" &&
		(inm == "*" || strings.Contains(inm, etag)) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(blob)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.store.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, j.Info())
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	recent := s.store.recent(100)
	list := colcache.JobList{
		Queued:  s.pool.Pending(),
		Running: s.pool.Running(),
		Jobs:    make([]colcache.JobInfo, len(recent)),
	}
	for i, j := range recent {
		list.Jobs[i] = j.Info()
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	g := Gauges{
		QueueDepth: s.pool.Pending(),
		Running:    s.pool.Running(),
		Draining:   s.isDraining(),
	}
	if s.dur != nil {
		rc := s.dur.Results.Stats()
		g.Result = &rc
		ws := s.dur.Log.Stats()
		g.WAL = &ws
	}
	if s.fabricGauges != nil {
		fg := s.fabricGauges()
		g.Fabric = &fg
	}
	if s.inspect != nil {
		ig := s.inspect.gauges()
		g.Inspect = &ig
	}
	s.metrics.Write(w, g)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		writeShed(w, http.StatusServiceUnavailable, 1, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}
