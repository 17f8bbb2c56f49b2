package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	colcache "colcache"
	"colcache/internal/inspect"
	"colcache/internal/memory"
	"colcache/internal/memsys"
)

// Live inspection: when Config.InspectEvery is set, every simulate and
// multicore job captures a compact occupancy frame each InspectEvery
// accesses (internal/inspect reduces the machine in place — allocation-
// free at steady state) and the server exposes two read paths:
//
//	GET /v1/jobs/{id}/inspect          — SSE stream of frames as they land
//	GET /v1/jobs/{id}/inspect/frames   — time-travel over retained frames
//
// The stream never back-pressures the simulation: a slow client's frames
// are dropped (and counted); the terminal "end" event carries the job's
// outcome so a client knows the stream closed cleanly rather than broke.

// inspectHub owns the per-job frame feeds and the retained-frame store.
type inspectHub struct {
	every     int
	heartbeat time.Duration
	frames    *inspect.Store

	mu    sync.Mutex
	feeds map[string]*inspect.Broadcaster

	captured atomic.Int64 // frames captured across all jobs
	dropped  atomic.Int64 // frames lost to slow SSE clients (summed on detach)
	streams  atomic.Int64 // currently attached SSE clients
}

func newInspectHub(every int, frameBytes int64, heartbeat time.Duration) *inspectHub {
	if heartbeat <= 0 {
		heartbeat = 15 * time.Second
	}
	return &inspectHub{
		every:     every,
		heartbeat: heartbeat,
		frames:    inspect.NewStore(frameBytes),
		feeds:     make(map[string]*inspect.Broadcaster),
	}
}

// feed returns jobID's broadcaster, creating it on first use — the SSE
// handler and the simulation worker race to be first, and either order
// works.
func (h *inspectHub) feed(jobID string) *inspect.Broadcaster {
	h.mu.Lock()
	defer h.mu.Unlock()
	b := h.feeds[jobID]
	if b == nil {
		b = inspect.NewBroadcaster()
		h.feeds[jobID] = b
	}
	return b
}

// finish closes jobID's feed with the job's terminal state; subscribers
// (present and future) observe a clean end-of-stream with that reason.
func (h *inspectHub) finish(jobID, reason string) {
	h.feed(jobID).Finish(reason)
}

// drop forgets a job entirely: its feed and its retained frames (the job
// was evicted from the job store, so its inspect surface goes with it).
func (h *inspectHub) drop(jobID string) {
	h.mu.Lock()
	b := h.feeds[jobID]
	delete(h.feeds, jobID)
	h.mu.Unlock()
	if b != nil {
		b.Finish("evicted")
	}
	h.frames.DropJob(jobID)
}

func (h *inspectHub) gauges() InspectGauges {
	jobs, frames, bytes := h.frames.Stats()
	return InspectGauges{
		Streams:        h.streams.Load(),
		FramesCaptured: h.captured.Load(),
		FramesDropped:  h.dropped.Load(),
		RetainedJobs:   jobs,
		RetainedFrames: frames,
		RetainedBytes:  bytes,
	}
}

// frameSink is one running job's capture pipeline: reduce into a ring
// slot, marshal once, retain and broadcast the same bytes.
type frameSink struct {
	hub   *inspectHub
	jobID string
	feed  *inspect.Broadcaster
	ring  *inspect.Ring
}

// newFrameSink returns the capture pipeline for job j, or nil when live
// inspection is disabled.
func (s *Server) newFrameSink(j *Job) *frameSink {
	if s.inspect == nil {
		return nil
	}
	return &frameSink{
		hub:   s.inspect,
		jobID: j.ID,
		feed:  s.inspect.feed(j.ID),
		ring:  inspect.NewRing(8),
	}
}

// emit captures one frame via fill and fans the serialized bytes out.
func (k *frameSink) emit(fill func(*inspect.Frame)) {
	f := k.ring.Capture(fill)
	data, err := json.Marshal(f)
	if err != nil {
		return
	}
	k.hub.captured.Add(1)
	k.hub.frames.Append(k.jobID, f.Seq, data)
	k.feed.Publish(data)
}

// wireSimInspection attaches frame capture to a single-core run's options.
func (s *Server) wireSimInspection(j *Job, b *Built, opts *memsys.RunOptions) {
	sink := s.newFrameSink(j)
	if sink == nil {
		return
	}
	// Per-tint attribution feeds the frames' miss deltas; idempotent if the
	// adaptive controller already turned it on.
	b.Sys.EnablePerTintStats()
	red := inspect.NewSystemReducer(b.Sys)
	total := len(b.Trace)
	opts.InspectEvery = s.inspect.every
	opts.OnInspect = func(done int, st memsys.Stats) {
		sink.emit(func(f *inspect.Frame) { red.Reduce(f, int64(done), done == total) })
	}
}

// wireMulticoreInspection attaches frame capture to a multicore machine.
func (s *Server) wireMulticoreInspection(j *Job, b *BuiltMulticore) {
	sink := s.newFrameSink(j)
	if sink == nil {
		return
	}
	var owner func(memory.Addr) int
	if !b.SharedAddresses {
		// BuildMulticore shifts core i's trace into the i<<32 window, so
		// shared-L2 line ownership is exact.
		owner = inspect.WindowOwner(b.M.NumCores(), 32)
	}
	red := inspect.NewMachineReducer(b.M, owner)
	total := b.TraceAccesses
	b.M.SetInspector(int64(s.inspect.every), func(done int64) {
		sink.emit(func(f *inspect.Frame) { red.Reduce(f, done, done == total) })
	})
}

func isTerminalState(st string) bool {
	switch st {
	case colcache.StateDone, colcache.StateFailed, colcache.StateCanceled:
		return true
	}
	return false
}

// handleInspect streams a job's occupancy frames as server-sent events:
// one "frame" event per captured frame, ":hb" comments at the heartbeat
// cadence, "dropped" events when a slow client loses frames, and a final
// "end" event carrying the job's terminal state.
func (s *Server) handleInspect(w http.ResponseWriter, r *http.Request) {
	if s.inspect == nil {
		writeError(w, http.StatusNotFound, "live inspection disabled; start the server with -inspect-every")
		return
	}
	id := r.PathValue("id")
	j, ok := s.store.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	if j.Kind == "sweep" {
		writeError(w, http.StatusBadRequest, "sweep jobs have no inspection stream")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}

	feed := s.inspect.feed(id)
	sub := feed.Subscribe(32)
	// A job that already finished (possibly before its feed existed) must
	// close the stream immediately instead of heartbeating forever.
	if st := j.State(); isTerminalState(st) {
		s.inspect.finish(id, st)
	}
	s.inspect.streams.Add(1)
	defer s.inspect.streams.Add(-1)
	defer func() { s.inspect.dropped.Add(sub.Dropped()) }()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": inspect stream for job %s, every %d accesses\n\n", id, s.inspect.every)
	fl.Flush()

	hb := time.NewTicker(s.inspect.heartbeat)
	defer hb.Stop()
	var lastDropped int64
	for {
		select {
		case <-r.Context().Done():
			feed.Unsubscribe(sub)
			// Drain anything published between the context firing and the
			// unsubscribe so the channel's buffer is released.
			for range sub.C {
			}
			return
		case <-hb.C:
			fmt.Fprint(w, ":hb\n\n")
			fl.Flush()
		case data, open := <-sub.C:
			if !open {
				fmt.Fprintf(w, "event: end\ndata: {\"reason\":%q,\"dropped\":%d}\n\n",
					sub.Reason(), sub.Dropped())
				fl.Flush()
				return
			}
			if d := sub.Dropped(); d > lastDropped {
				fmt.Fprintf(w, "event: dropped\ndata: {\"dropped\":%d}\n\n", d)
				lastDropped = d
			}
			fmt.Fprintf(w, "event: frame\ndata: %s\n\n", data)
			fl.Flush()
		}
	}
}

// handleInspectFrames serves the time-travel window: retained frames of a
// job (running or finished) with from <= seq <= to, oldest first.
func (s *Server) handleInspectFrames(w http.ResponseWriter, r *http.Request) {
	if s.inspect == nil {
		writeError(w, http.StatusNotFound, "live inspection disabled; start the server with -inspect-every")
		return
	}
	id := r.PathValue("id")
	if _, ok := s.store.get(id); !ok {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	q := r.URL.Query()
	from, to := int64(0), int64(-1)
	var err error
	if v := q.Get("from"); v != "" {
		if from, err = strconv.ParseInt(v, 10, 64); err != nil || from < 0 {
			writeError(w, http.StatusBadRequest, "bad from %q", v)
			return
		}
	}
	if v := q.Get("to"); v != "" {
		if to, err = strconv.ParseInt(v, 10, 64); err != nil || to < 0 {
			writeError(w, http.StatusBadRequest, "bad to %q", v)
			return
		}
	}
	frames, first, ok := s.inspect.frames.Frames(id, from, to)
	if !ok {
		writeError(w, http.StatusBadRequest, "from %d > to %d", from, to)
		return
	}
	doc := colcache.InspectFrames{
		Job:    id,
		First:  first,
		Count:  len(frames),
		Frames: make([]json.RawMessage, len(frames)),
	}
	for i, b := range frames {
		doc.Frames[i] = b
	}
	writeJSON(w, http.StatusOK, doc)
}
