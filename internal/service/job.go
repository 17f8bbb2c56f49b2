package service

import (
	"fmt"
	"sync"
	"time"

	colcache "colcache"
	"colcache/internal/build"
	"colcache/internal/memsys"
	"colcache/internal/memtrace"
)

// Job is one queued unit of work. All mutable fields are guarded by mu:
// the simulation worker publishes state transitions and checkpoint
// progress, the HTTP handlers read them, and neither may see a torn
// update.
type Job struct {
	ID   string
	Kind string // "simulate", "multicore" or "sweep"

	// Immutable after submission.
	Spec      colcache.SimSpec
	SweepSpec *colcache.SweepSpec
	Upload    memtrace.Trace // pre-decoded binary upload, simulate only
	Submitted time.Time
	// Digest is the submission's content address (spec + trace), the
	// result-cache key; empty on a server without durability.
	Digest string
	// Resume, set only on a recovered in-flight simulate job, is the WAL
	// checkpoint execution fast-forwards to before continuing.
	Resume *memsys.Checkpoint

	// inline is trace_text as parsed at submission, so the run does not
	// parse it again; runSimulate takes it and leaves nil. It is not
	// written to the WAL: a recovered job has none and BuildSim parses
	// trace_text itself.
	inline memtrace.Trace

	mu        sync.Mutex
	state     string
	retriable bool
	errMsg    string
	started   time.Time
	finished  time.Time
	progress  *colcache.JobProgress
	result    *colcache.SimResult
	sweepRes  *colcache.SweepResult
	// sys is the live machine while the job runs; its tint table is
	// thread-safe, so the status handler may render it mid-simulation.
	sys *memsys.System

	// onFinish, when set (before the job is shared), runs after every
	// terminal transition with the final state — the inspect hub closes
	// the job's frame stream through it.
	onFinish func(state string)
}

func (j *Job) label() string {
	if j.SweepSpec != nil {
		return j.SweepSpec.Label
	}
	return j.Spec.Label
}

// setRunning transitions queued → running and publishes the live machine.
func (j *Job) setRunning(sys *memsys.System) {
	j.mu.Lock()
	j.state = colcache.StateRunning
	j.started = time.Now()
	j.sys = sys
	j.mu.Unlock()
}

// publishProgress stores a detached progress snapshot (called from the
// simulation goroutine at checkpoints).
func (j *Job) publishProgress(p colcache.JobProgress) {
	j.mu.Lock()
	j.progress = &p
	j.mu.Unlock()
}

// finish transitions to a terminal state. Exactly one of the result
// pointers may be non-nil.
func (j *Job) finish(state string, retriable bool, errMsg string, res *colcache.SimResult, sweep *colcache.SweepResult) {
	j.mu.Lock()
	j.state = state
	j.retriable = retriable
	j.errMsg = errMsg
	j.finished = time.Now()
	j.result = res
	j.sweepRes = sweep
	j.sys = nil
	fn := j.onFinish
	j.mu.Unlock()
	if fn != nil {
		fn(state)
	}
}

// State returns the job's current state.
func (j *Job) State() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// latency returns submit→finish for terminal jobs.
func (j *Job) latency() (time.Duration, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.finished.IsZero() {
		return 0, false
	}
	return j.finished.Sub(j.Submitted), true
}

// Info renders the job document. ways sizes the tint views of a live
// machine (the machine spec's effective way count).
func (j *Job) Info() colcache.JobInfo {
	j.mu.Lock()
	info := colcache.JobInfo{
		ID:          j.ID,
		Kind:        j.Kind,
		Label:       j.label(),
		State:       j.state,
		Digest:      j.Digest,
		Retriable:   j.retriable,
		Error:       j.errMsg,
		SubmittedAt: j.Submitted,
	}
	if !j.started.IsZero() {
		t := j.started
		info.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		info.FinishedAt = &t
	}
	if j.progress != nil {
		p := *j.progress
		p.Tints = append([]colcache.TintView(nil), j.progress.Tints...)
		info.Progress = &p
	}
	if j.result != nil {
		r := *j.result
		info.Result = &r
	}
	if j.sweepRes != nil {
		s := *j.sweepRes
		info.Sweep = &s
	}
	sys := j.sys
	j.mu.Unlock()

	// Live tint inspection outside the job lock: the tint table has its
	// own synchronization, and the adaptive controller may be remapping it
	// at this very moment.
	if sys != nil && info.Progress != nil {
		ways := build.WithDefaults(j.Spec.Machine).Ways
		info.Progress.Tints = TintViews(sys, ways)
	}
	return info
}

// store is the in-memory job registry: lookup by ID plus FIFO eviction of
// terminal jobs beyond the retention cap.
type store struct {
	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // insertion order, for eviction scans
	seq    int64
	retain int
	// onEvict, when set (before traffic), runs for every job leaving the
	// store — eviction or rollback — so dependent per-job state (retained
	// inspect frames, feeds) is released with it.
	onEvict func(id string)
}

func newStore(retain int) *store {
	return &store{jobs: make(map[string]*Job), retain: retain}
}

// add registers a job under a fresh ID.
func (s *store) add(j *Job) {
	s.mu.Lock()
	s.seq++
	j.ID = fmt.Sprintf("j%08d", s.seq)
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.evictLocked()
	s.mu.Unlock()
}

// restore registers a WAL-recovered job under its original ID, so a
// client that accepted it before the crash can keep polling the same URL.
func (s *store) restore(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[j.ID]; ok {
		return
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
}

// bumpSeq advances the ID sequence past recovered jobs so fresh
// submissions never collide with journaled IDs.
func (s *store) bumpSeq(n int64) {
	s.mu.Lock()
	if n > s.seq {
		s.seq = n
	}
	s.mu.Unlock()
}

// evictLocked removes the oldest terminal jobs beyond the retention cap.
// Queued and running jobs are never evicted, so an accepted job cannot
// vanish before it completes.
func (s *store) evictLocked() {
	if s.retain <= 0 || len(s.jobs) <= s.retain {
		return
	}
	kept := s.order[:0]
	excess := len(s.jobs) - s.retain
	for _, id := range s.order {
		j := s.jobs[id]
		if j == nil {
			continue
		}
		if excess > 0 {
			switch j.State() {
			case colcache.StateDone, colcache.StateFailed, colcache.StateCanceled:
				delete(s.jobs, id)
				if s.onEvict != nil {
					s.onEvict(id)
				}
				excess--
				continue
			}
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// remove deletes a job outright (used to roll back a shed submission, so
// a 429'd job never lingers in the listing).
func (s *store) remove(id string) {
	s.mu.Lock()
	delete(s.jobs, id)
	for i, oid := range s.order {
		if oid == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	if s.onEvict != nil {
		s.onEvict(id)
	}
}

// get looks a job up.
func (s *store) get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// recent returns up to n most recent jobs, newest first.
func (s *store) recent(n int) []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, n)
	for i := len(s.order) - 1; i >= 0 && len(out) < n; i-- {
		if j, ok := s.jobs[s.order[i]]; ok {
			out = append(out, j)
		}
	}
	return out
}
