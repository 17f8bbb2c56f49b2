package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	colcache "colcache"
	"colcache/internal/build"
	"colcache/internal/memsys"
	"colcache/internal/memtrace"
	"colcache/internal/resultcache"
	"colcache/internal/wal"
)

// Durability is colserved's persistence layer: the job-queue write-ahead
// log and the content-addressed result cache, both rooted in one data
// directory. A Server built without one (the default) behaves exactly as
// before — accept, run, forget.
type Durability struct {
	Log     *wal.Log
	Results *resultcache.Cache

	// pending is what the WAL replayed at open; New consumes it.
	pending []wal.Record
}

// OpenDurability opens (or creates) the persistence layer under dataDir.
// walPath overrides the log location (default dataDir/wal.log);
// cacheBytes bounds the result cache (0 means the 256 MiB default).
func OpenDurability(dataDir, walPath string, cacheBytes int64) (*Durability, error) {
	if walPath == "" {
		walPath = filepath.Join(dataDir, "wal.log")
	}
	log, pending, err := wal.Open(walPath)
	if err != nil {
		return nil, fmt.Errorf("open wal: %w", err)
	}
	results, err := resultcache.Open(filepath.Join(dataDir, "results"), cacheBytes)
	if err != nil {
		log.Close()
		return nil, fmt.Errorf("open result cache: %w", err)
	}
	return &Durability{Log: log, Results: results, pending: pending}, nil
}

// Close syncs and closes the WAL.
func (d *Durability) Close() error { return d.Log.Close() }

// --- WAL record vocabulary ---------------------------------------------------

// Record types. A job's life in the log: accepted (committed before the
// 202 leaves), started, zero or more checkpoints (uncommitted — they only
// save recovery work), then exactly one terminal record (committed).
// Retriable cancellations during drain write no terminal record at all:
// the accepted record IS the promise that a restart re-enqueues the job.
const (
	recAccepted   byte = 1
	recStarted    byte = 2
	recCheckpoint byte = 3
	recDone       byte = 4
	recFailed     byte = 5
	recCanceled   byte = 6
)

// recMeta is the JSON metadata of every record type; which fields are set
// depends on the type. The accepted record of a binary-upload job carries
// the CCTRACE1 trace bytes in the record's blob, outside the JSON.
type recMeta struct {
	ID         string              `json:"id"`
	Kind       string              `json:"kind,omitempty"`
	Digest     string              `json:"digest,omitempty"`
	Spec       *colcache.SimSpec   `json:"spec,omitempty"`
	Sweep      *colcache.SweepSpec `json:"sweep,omitempty"`
	Checkpoint *memsys.Checkpoint  `json:"checkpoint,omitempty"`
	Msg        string              `json:"msg,omitempty"`
}

func (s *Server) appendRecord(typ byte, meta recMeta, blob []byte, commit bool) {
	if s.dur == nil {
		return
	}
	b, err := json.Marshal(meta)
	if err != nil {
		return
	}
	// An append error (disk full, dying device) must not fail the job
	// that triggered it — the job still runs; only durability degrades.
	// The next scrape shows the WAL bytes gauge frozen, which is the
	// operational signal.
	_ = s.dur.Log.Append(wal.Record{Type: typ, Meta: b, Blob: blob}, commit)
}

// --- spec canonicalization and digests ---------------------------------------

// canonicalSimSpec normalizes a spec so that every submission that would
// produce the same result hashes the same: machine defaults applied,
// generator seeds defaulted, and the label dropped (it is presentation,
// not physics — a cached result is re-labeled per request).
func canonicalSimSpec(spec colcache.SimSpec) colcache.SimSpec {
	spec.Label = ""
	spec.Machine = build.WithDefaults(spec.Machine)
	if spec.Workload != nil {
		w := *spec.Workload
		if w.Seed == 0 {
			w.Seed = 1
		}
		spec.Workload = &w
	}
	if spec.Multicore != nil {
		mc := *spec.Multicore
		mc.Cores = append([]colcache.CoreSpec(nil), mc.Cores...)
		for i := range mc.Cores {
			if mc.Cores[i].Workload.Seed == 0 {
				mc.Cores[i].Workload.Seed = 1
			}
		}
		spec.Multicore = &mc
	}
	return spec
}

// SimDigest is the content address of one simulation: the hex SHA-256 of
// the canonicalized spec JSON plus the raw trace bytes of an upload (nil
// for generated and inline traces — those are part of the spec).
func SimDigest(spec colcache.SimSpec, traceBytes []byte) string {
	b, _ := json.Marshal(canonicalSimSpec(spec))
	return resultcache.Digest([]byte("sim\x00"), b, []byte{0}, traceBytes)
}

// SweepDigest is the content address of a sweep. Workers is excluded —
// the point set is deterministic at any parallelism (CI proves it).
func SweepDigest(sw colcache.SweepSpec) string {
	sw.Label = ""
	sw.Workers = 0
	sw.Base = canonicalSimSpec(sw.Base)
	b, _ := json.Marshal(sw)
	return resultcache.Digest([]byte("sweep\x00"), b)
}

// encodeTrace renders an uploaded trace to its canonical CCTRACE1 bytes,
// which are both the digest input and the WAL blob.
func encodeTrace(t memtrace.Trace) []byte {
	if t == nil {
		return nil
	}
	var buf bytes.Buffer
	memtrace.WriteBinary(&buf, t)
	return buf.Bytes()
}

// --- stored results ----------------------------------------------------------

// storedResult is the JSON envelope a finished job leaves in the result
// cache; GET /v1/results/{digest} serves it verbatim, and CachedHit
// splices hit documents out of its exact byte layout.
func storeResult(j *Job, res *colcache.SimResult, sweep *colcache.SweepResult) []byte {
	b, err := json.Marshal(colcache.StoredResult{
		Kind:   j.Kind,
		Digest: j.Digest,
		Result: res,
		Sweep:  sweep,
	})
	if err != nil {
		return nil
	}
	return b
}

// CachedHit renders the terminal JobInfo document of a cache hit at time
// now, straight from blob, an envelope storeResult wrote:
//
//	{"kind":…,"digest":…,"result":{"label":…,…}}  or  {"kind":…,"digest":…,"sweep":{…}}
//
// It writes the JobInfo header (kind, label, state, cached, digest, node,
// both timestamps), drops the first submitter's label that leads a stored
// result, puts label in its place, and copies every other byte of the
// envelope as it is. node names the fabric worker that answers (empty on a
// standalone server, and then left out). The result is the document
// encoding/json would write for the decoded envelope
// (TestCachedHitMatchesReference). ok is false, and the caller treats the
// hit as a miss, when blob is not of that shape or does not close exactly
// at its end (a truncated write). A worker answers its own hits with it,
// and the fabric coordinator answers hits from envelopes it holds.
func CachedHit(blob []byte, kind, digest, node, label string, now time.Time) ([]byte, bool) {
	rest, ok := bytes.CutPrefix(blob, []byte(`{"kind":`))
	if ok {
		rest, ok = skipJSONString(rest)
	}
	if ok {
		rest, ok = bytes.CutPrefix(rest, []byte(`,"digest":`))
	}
	if ok {
		rest, ok = skipJSONString(rest)
	}
	if !ok || !closesObject(rest) {
		return nil, false
	}
	b := make([]byte, 0, len(rest)+len(label)+len(digest)+len(node)+170)
	b = append(b, `{"kind":`...)
	b = appendJSONString(b, kind)
	if label != "" {
		b = append(b, `,"label":`...)
		b = appendJSONString(b, label)
	}
	b = append(b, `,"state":"done","cached":true,"digest":`...)
	b = appendJSONString(b, digest)
	if node != "" {
		b = append(b, `,"node":`...)
		b = appendJSONString(b, node)
	}
	b = append(b, `,"submitted_at":`...)
	b = appendJSONTime(b, now)
	b = append(b, `,"finished_at":`...)
	b = appendJSONTime(b, now)
	if res, isResult := bytes.CutPrefix(rest, []byte(`,"result":{`)); isResult {
		if stored, hasLabel := bytes.CutPrefix(res, []byte(`"label":`)); hasLabel {
			if stored, ok = skipJSONString(stored); ok {
				res, ok = bytes.CutPrefix(stored, []byte(","))
			}
			if !ok {
				return nil, false
			}
		}
		b = append(b, `,"result":{`...)
		if label != "" {
			b = append(b, `"label":`...)
			b = appendJSONString(b, label)
			b = append(b, ',')
		}
		rest = res
	} else if !bytes.HasPrefix(rest, []byte(`,"sweep":{`)) {
		return nil, false
	}
	b = append(b, rest...)
	return append(b, '\n'), true
}

// skipJSONString returns what follows the JSON string b starts with.
func skipJSONString(b []byte) ([]byte, bool) {
	if len(b) == 0 || b[0] != '"' {
		return nil, false
	}
	for i := 1; i < len(b); i++ {
		switch b[i] {
		case '\\':
			i++
		case '"':
			return b[i+1:], true
		}
	}
	return nil, false
}

// closesObject reports whether b, the inside of a JSON object after its
// opening brace, closes that object at its last byte: brackets balance
// outside strings, and no string is left open.
func closesObject(b []byte) bool {
	depth := 1
	for i := 0; i < len(b); i++ {
		switch b[i] {
		case '"':
			rest, ok := skipJSONString(b[i:])
			if !ok {
				return false
			}
			i = len(b) - len(rest) - 1
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				return i == len(b)-1
			}
		}
	}
	return false
}

// appendJSONString appends s as encoding/json encodes a string. Printable
// ASCII without quotes, backslashes or HTML characters goes as it is;
// anything else takes encoding/json's own escaping.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, _ := json.Marshal(s)
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONTime appends t as time.Time's MarshalJSON does.
func appendJSONTime(b []byte, t time.Time) []byte {
	b = append(b, '"')
	b = t.AppendFormat(b, time.RFC3339Nano)
	return append(b, '"')
}

// --- boot recovery -----------------------------------------------------------

type recoveredJob struct {
	meta     recMeta
	blob     []byte
	accepted wal.Record // original record, re-emitted at compaction
	cp       *memsys.Checkpoint
	cpRec    *wal.Record
	terminal bool
}

// RecoveryStats summarizes what boot replay did, for the daemon's log line.
type RecoveryStats struct {
	Requeued int // accepted-but-unfinished jobs back in the queue
	Resumed  int // of those, simulate jobs resuming from a checkpoint
	Finished int // jobs whose terminal record made replay a no-op
	Dropped  int // undecodable or unqueueable jobs, canceled as retriable
}

// recoverJobs folds the replayed WAL into per-job state, compacts the log
// down to the live jobs, and re-enqueues them: queued jobs restart from
// the beginning, in-flight simulate jobs resume from their last
// checkpoint. Runs inside New, before any HTTP traffic and before any
// worker holds a job, so compaction cannot race an append.
func (s *Server) recoverJobs(records []wal.Record) RecoveryStats {
	var st RecoveryStats
	jobs := make(map[string]*recoveredJob)
	var order []string
	for _, r := range records {
		var m recMeta
		if err := json.Unmarshal(r.Meta, &m); err != nil || m.ID == "" {
			continue
		}
		switch r.Type {
		case recAccepted:
			if _, ok := jobs[m.ID]; !ok {
				jobs[m.ID] = &recoveredJob{meta: m, blob: r.Blob, accepted: r}
				order = append(order, m.ID)
			}
		case recCheckpoint:
			if j, ok := jobs[m.ID]; ok && m.Checkpoint != nil {
				j.cp = m.Checkpoint
				rec := r
				j.cpRec = &rec
			}
		case recDone, recFailed, recCanceled:
			if j, ok := jobs[m.ID]; ok {
				j.terminal = true
			}
		}
	}

	// Compact first: the log shrinks to the accepted (+ last checkpoint)
	// records of live jobs, and only then do those jobs start appending
	// started/checkpoint records to the fresh tail.
	var keep []wal.Record
	var live []*recoveredJob
	var maxSeq int64
	for _, id := range order {
		j := jobs[id]
		if n := jobSeq(id); n > maxSeq {
			maxSeq = n
		}
		if j.terminal {
			st.Finished++
			continue
		}
		live = append(live, j)
		keep = append(keep, j.accepted)
		if j.cpRec != nil {
			keep = append(keep, *j.cpRec)
		}
	}
	s.store.bumpSeq(maxSeq)
	_ = s.dur.Log.Compact(keep)

	for _, rj := range live {
		j, err := rebuildJob(rj)
		if err != nil {
			st.Dropped++
			continue
		}
		j.state = colcache.StateQueued
		j.Submitted = time.Now()
		if s.inspect != nil && j.Kind != "sweep" {
			jid := j.ID
			j.onFinish = func(state string) { s.inspect.finish(jid, state) }
		}
		s.store.restore(j)
		if err := s.pool.TrySubmit(j); err != nil {
			// More journaled jobs than queue depth: hand the overflow back
			// as retriable — the accepted record stays for the next boot.
			j.finish(colcache.StateCanceled, true,
				"recovered job did not fit the queue; restart or resubmit (digest "+j.Digest+")", nil, nil)
			st.Dropped++
			continue
		}
		s.metrics.Jobs.Add(1, j.Kind, "recovered")
		st.Requeued++
		if j.Resume != nil {
			st.Resumed++
		}
	}
	return st
}

func rebuildJob(rj *recoveredJob) (*Job, error) {
	m := rj.meta
	if m.Spec == nil {
		return nil, fmt.Errorf("accepted record without a spec")
	}
	j := &Job{ID: m.ID, Kind: m.Kind, Spec: *m.Spec, SweepSpec: m.Sweep, Digest: m.Digest}
	if j.Kind == "" {
		j.Kind = "simulate"
	}
	if len(rj.blob) > 0 {
		tr, err := memtrace.ReadBinary(bytes.NewReader(rj.blob))
		if err != nil {
			return nil, fmt.Errorf("replay trace blob: %w", err)
		}
		j.Upload = tr
	}
	// Only single-core simulations have deterministic access-granular
	// resume; sweeps and multicore co-runs restart from the top.
	if j.Kind == "simulate" && rj.cp != nil {
		cp := *rj.cp
		j.Resume = &cp
	}
	return j, nil
}

// jobSeq parses the numeric tail of a job ID ("j00000042" → 42).
func jobSeq(id string) int64 {
	if !strings.HasPrefix(id, "j") {
		return 0
	}
	n, err := strconv.ParseInt(id[1:], 10, 64)
	if err != nil {
		return 0
	}
	return n
}
