package colcache

import (
	"encoding/json"
	"time"
)

// Wire types of the colserved HTTP API (cmd/colserved, internal/service).
// They live in the public colcache package so programmatic callers — the
// Client in client.go, the examples — and the server share one vocabulary.
//
// The serving model is a job queue: POST /v1/simulate or /v1/sweep submits
// work and returns a JobInfo in state "queued" (HTTP 202); GET /v1/jobs/{id}
// polls it; the terminal JobInfo carries the result. A full queue answers
// 429 with a Retry-After header, and a draining server answers 503 — both
// retriable by resubmitting, never by re-polling a lost job.

// MachineSpec selects the simulated machine. Zero fields take the
// documented defaults, matching the colsim CLI.
type MachineSpec struct {
	LineBytes   int    `json:"line_bytes,omitempty"`   // cache line bytes (default 32)
	Sets        int    `json:"sets,omitempty"`         // cache sets (default 16)
	Ways        int    `json:"ways,omitempty"`         // ways = columns (default 4)
	PageBytes   int    `json:"page_bytes,omitempty"`   // mapping granularity (default 4096)
	Policy      string `json:"policy,omitempty"`       // lru (default), plru, fifo, random
	MissPenalty int    `json:"miss_penalty,omitempty"` // cycles (default 20)
}

// WorkloadSpec names a built-in trace generator and its parameters. Which
// parameters apply depends on the workload; unused ones are ignored. All
// generators are deterministic in their parameters, so a spec is a
// reproducible experiment.
//
// Workloads: stream, strided, random, chase, phaseshift, writesweep,
// matmul, fir, histogram, mpeg-dequant, mpeg-plus, mpeg-idct, gzip.
type WorkloadSpec struct {
	Name string `json:"name"`
	// N scales the workload: accesses for random, hops for chase, matrix
	// dimension for matmul, samples for fir/histogram, blocks for the mpeg
	// kernels.
	N int `json:"n,omitempty"`
	// SizeBytes sizes the touched buffer for stream/strided/random/
	// writesweep/phaseshift (per region) and the gzip window.
	SizeBytes uint64 `json:"size_bytes,omitempty"`
	// Stride is the strided workload's step in bytes.
	Stride uint64 `json:"stride,omitempty"`
	// Passes repeats the sweep-style workloads.
	Passes int `json:"passes,omitempty"`
	// Phases counts phaseshift's working-set alternations.
	Phases int `json:"phases,omitempty"`
	// Taps is fir's filter length; Bins is histogram's table size.
	Taps int `json:"taps,omitempty"`
	Bins int `json:"bins,omitempty"`
	// Seed drives the deterministic generators (default 1).
	Seed int64 `json:"seed,omitempty"`
}

// MapSpec assigns an address region to a set of columns, like colsim -map.
type MapSpec struct {
	Name    string `json:"name,omitempty"`
	Base    uint64 `json:"base"`
	Size    uint64 `json:"size"`
	Columns []int  `json:"columns"`
}

// AdaptiveSpec turns on the online column-allocation controller for the
// run: every tint (the default one included) is watched by a shadow-tag
// utility monitor and columns are redistributed at epoch boundaries.
type AdaptiveSpec struct {
	EpochAccesses int64 `json:"epoch_accesses,omitempty"` // decision interval (default 4096)
	MinGainHits   int64 `json:"min_gain_hits,omitempty"`  // hysteresis (default 16)
	SampleEvery   int   `json:"sample_every,omitempty"`   // monitor set sampling (default every set)
}

// CoreSpec is one core of a multicore simulation: the workload generating
// its private trace and the shared-L2 columns it may replace into (empty
// means every column).
type CoreSpec struct {
	Workload WorkloadSpec `json:"workload"`
	Columns  []int        `json:"columns,omitempty"`
}

// MulticoreSpec turns a simulate job into a multicore co-run: each core
// replays its own workload trace through a private L1 column cache (the
// machine spec's geometry), over a snooping write-invalidate MSI bus into a
// shared column-partitioned L2. By default each core's trace is shifted
// into its own 4 GiB address window so the co-run contends only for
// capacity; SharedAddresses leaves the workloads' native addresses in
// place, so overlapping footprints exercise the coherence protocol.
// The co-run steps on one deterministic serial stepper, so the result is a
// pure function of the spec.
type MulticoreSpec struct {
	Cores           []CoreSpec `json:"cores"`
	L2Sets          int        `json:"l2_sets,omitempty"`       // default 64
	L2Ways          int        `json:"l2_ways,omitempty"`       // default 8
	L2HitCycles     int        `json:"l2_hit_cycles,omitempty"` // default 6
	SharedAddresses bool       `json:"shared_addresses,omitempty"`
}

// SimSpec is the body of POST /v1/simulate: one machine, one trace source.
// Exactly one of Workload, TraceText, or Multicore must be set (an
// octet-stream upload is the fourth source; see Client.SubmitTrace).
type SimSpec struct {
	Label    string        `json:"label,omitempty"`
	Machine  MachineSpec   `json:"machine"`
	Workload *WorkloadSpec `json:"workload,omitempty"`
	// TraceText is an inline trace in the text format "R|W hex-addr [think]".
	TraceText string         `json:"trace_text,omitempty"`
	Maps      []MapSpec      `json:"maps,omitempty"`
	Adaptive  *AdaptiveSpec  `json:"adaptive,omitempty"`
	Multicore *MulticoreSpec `json:"multicore,omitempty"`
}

// SweepSpec is the body of POST /v1/sweep: a base spec crossed with
// parameter axes. Empty axes default to the base value, so the point count
// is the product of the non-empty axis lengths.
type SweepSpec struct {
	Label string  `json:"label,omitempty"`
	Base  SimSpec `json:"base"`
	// Axes. Each entry overrides the corresponding base field for the
	// points of that slice.
	Sets          []int          `json:"sets,omitempty"`
	Ways          []int          `json:"ways,omitempty"`
	Policies      []string       `json:"policies,omitempty"`
	MissPenalties []int          `json:"miss_penalties,omitempty"`
	Workloads     []WorkloadSpec `json:"workloads,omitempty"`
	// Workers bounds the sweep's inner fan-out; the server caps it.
	Workers int `json:"workers,omitempty"`
}

// CacheCounters are the cache-level counters of a result.
type CacheCounters struct {
	Accesses   int64   `json:"accesses"`
	Hits       int64   `json:"hits"`
	Misses     int64   `json:"misses"`
	Evictions  int64   `json:"evictions"`
	Writebacks int64   `json:"writebacks"`
	Fills      int64   `json:"fills"`
	MissRate   float64 `json:"miss_rate"`
}

// TintView is one tint's live mapping, for observability.
type TintView struct {
	Name    string `json:"name"`
	Mask    uint64 `json:"mask"`
	Columns []int  `json:"columns"`
}

// AdaptiveResult reports what the online controller did during a run.
type AdaptiveResult struct {
	Epochs    int      `json:"epochs"`
	Remaps    int64    `json:"remaps"`
	Decisions []string `json:"decisions,omitempty"`
}

// BusCounters report coherence traffic on a multicore run's shared bus.
type BusCounters struct {
	Reads          int64 `json:"reads"`  // BusRd
	ReadXs         int64 `json:"readxs"` // BusRdX
	Upgrades       int64 `json:"upgrades"`
	Invalidations  int64 `json:"invalidations"`
	Interventions  int64 `json:"interventions"`
	WritebackRaces int64 `json:"writeback_races"`
}

// CoreResult is one core's share of a multicore result.
type CoreResult struct {
	Workload          string        `json:"workload"`
	Instructions      int64         `json:"instructions"`
	Cycles            int64         `json:"cycles"`
	CPI               float64       `json:"cpi"`
	L1                CacheCounters `json:"l1"`
	L2Accesses        int64         `json:"l2_accesses"`
	L2Misses          int64         `json:"l2_misses"`
	InvalidationsRecv int64         `json:"invalidations_recv"`
	Interventions     int64         `json:"interventions"`
	Upgrades          int64         `json:"upgrades"`
	Columns           []int         `json:"columns,omitempty"` // final shared-L2 mask
}

// MulticoreResult reports a multicore co-run: per-core counters, bus
// traffic, and the shared L2. The enclosing SimResult carries the
// aggregates (makespan cycles, summed instructions, summed L1 counters).
type MulticoreResult struct {
	Cores []CoreResult  `json:"cores"`
	Bus   BusCounters   `json:"bus"`
	L2    CacheCounters `json:"l2"`
}

// SimResult is one finished simulation.
type SimResult struct {
	Label         string           `json:"label,omitempty"`
	Workload      string           `json:"workload,omitempty"`
	TraceAccesses int64            `json:"trace_accesses"`
	Instructions  int64            `json:"instructions"`
	Cycles        int64            `json:"cycles"`
	CPI           float64          `json:"cpi"`
	Cache         CacheCounters    `json:"cache"`
	TLBHitRate    float64          `json:"tlb_hit_rate"`
	Remaps        int64            `json:"remaps"`
	Tints         []TintView       `json:"tints,omitempty"`
	Adaptive      *AdaptiveResult  `json:"adaptive,omitempty"`
	Multicore     *MulticoreResult `json:"multicore,omitempty"`
}

// SweepPoint is one point of a sweep result.
type SweepPoint struct {
	Label   string      `json:"label"`
	Machine MachineSpec `json:"machine"`
	Result  SimResult   `json:"result"`
}

// SweepResult is a finished sweep.
type SweepResult struct {
	Points []SweepPoint `json:"points"`
}

// Job states. A job is terminal in StateDone, StateFailed, or
// StateCanceled; canceled jobs with Retriable set were shed by a draining
// server and can be resubmitted as-is.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// JobProgress is the live view of a running job, published at simulation
// checkpoints (and refreshed from the thread-safe tint table on read).
type JobProgress struct {
	AccessesDone  int64      `json:"accesses_done"`
	AccessesTotal int64      `json:"accesses_total"`
	Cycles        int64      `json:"cycles"`
	CacheMissRate float64    `json:"cache_miss_rate"`
	PointsDone    int        `json:"points_done,omitempty"`
	PointsTotal   int        `json:"points_total,omitempty"`
	Decisions     int        `json:"decisions,omitempty"`
	Tints         []TintView `json:"tints,omitempty"`
}

// JobInfo is the status document of GET /v1/jobs/{id}. A submission
// answered from the result cache returns a terminal JobInfo immediately
// (HTTP 200, Cached true, no ID — there is no job to poll). Digest is the
// submission's content address: after a drain or crash, a client holding
// it can poll GET /v1/results/{digest} instead of resubmitting the spec
// and trace bytes.
type JobInfo struct {
	ID          string       `json:"id,omitempty"`
	Kind        string       `json:"kind"` // "simulate", "multicore" or "sweep"
	Label       string       `json:"label,omitempty"`
	State       string       `json:"state"`
	Cached      bool         `json:"cached,omitempty"`
	Digest      string       `json:"digest,omitempty"`
	Node        string       `json:"node,omitempty"`      // fabric: worker the job was routed to
	Recovered   bool         `json:"recovered,omitempty"` // fabric: job was re-routed off a dead worker
	Retriable   bool         `json:"retriable,omitempty"`
	Error       string       `json:"error,omitempty"`
	SubmittedAt time.Time    `json:"submitted_at"`
	StartedAt   *time.Time   `json:"started_at,omitempty"`
	FinishedAt  *time.Time   `json:"finished_at,omitempty"`
	Progress    *JobProgress `json:"progress,omitempty"`
	Result      *SimResult   `json:"result,omitempty"`
	Sweep       *SweepResult `json:"sweep,omitempty"`
}

// JobList is the document of GET /v1/jobs.
type JobList struct {
	Queued  int       `json:"queued"`
	Running int       `json:"running"`
	Jobs    []JobInfo `json:"jobs"`
}

// StoredResult is the document of GET /v1/results/{digest}: the envelope
// a finished job leaves in the content-addressed result cache. Exactly
// one of Result and Sweep is set, matching Kind.
type StoredResult struct {
	Kind   string       `json:"kind"` // "simulate", "multicore" or "sweep"
	Digest string       `json:"digest,omitempty"`
	Result *SimResult   `json:"result,omitempty"`
	Sweep  *SweepResult `json:"sweep,omitempty"`
}

// APIError is the JSON error body every non-2xx response carries.
type APIError struct {
	Error string `json:"error"`
	// RetryAfterSeconds mirrors the Retry-After header on 429/503.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

// InspectFrames is the document of GET /v1/jobs/{id}/inspect/frames: a
// time-travel slice of a job's retained occupancy frames. Each element of
// Frames is one internal/inspect Frame as originally serialized; First is
// the sequence number of Frames[0]. Frames evicted from the byte-budgeted
// retention window are simply absent — First names where the surviving
// range begins.
type InspectFrames struct {
	Job    string            `json:"job"`
	First  int64             `json:"first"`
	Count  int               `json:"count"`
	Frames []json.RawMessage `json:"frames"`
}
