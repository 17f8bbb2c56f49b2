// Package inspect reduces live machine state to compact occupancy frames
// and buffers them for streaming and time-travel.
//
// The paper's whole argument is that software-controlled column caches make
// cache contents an application-visible resource; this package is the layer
// that actually makes them visible. A reducer samples the machine at the
// stepper's inspection hook (every K accesses — exact positions, so the
// frame sequence is a pure function of config × trace × stride), captures
// cache contents through the buffer-reusing SnapshotSetsInto, and reduces
// them to a Frame: per-set × per-column occupancy tagged by tint,
// valid/dirty/MSI breakdowns, per-tint miss deltas since the previous
// frame, and the active column masks. Frames land in a fixed-capacity Ring
// (recent history, oldest-first overwrite), fan out to SSE subscribers
// through a Broadcaster (slow clients drop frames, never block the
// simulation), and are retained serialized in a byte-budgeted Store so a
// finished job can be scrubbed backward to the exact frame where a remap
// changed the masks.
//
// Capture is allocation-free at steady state: reducers reuse their line
// buffers, frames reuse their cell slices, and the ring reuses its slots.
// BenchmarkCapture times the stepper with capture off and on (a
// measurement, not a gate).
package inspect

// Cell state codes in CacheFrame.MSI. For a coherent multicore L1 these are
// the MSI protocol states from the line's aux byte; for a single-core cache
// and the shared L2 they degrade to invalid / valid-clean / valid-dirty,
// which renders identically.
const (
	CellInvalid  byte = 0
	CellShared   byte = 1 // valid, clean
	CellModified byte = 2 // valid, dirty
)

// Frame is one reduced snapshot of a machine's cache occupancy. The JSON
// encoding is the wire format everywhere: SSE events, the time-travel
// endpoint, colsim's offline JSONL dump and colwatch all speak it.
type Frame struct {
	// Seq numbers frames from 0 in capture order.
	Seq int64 `json:"seq"`
	// Done is the number of trace accesses executed when the frame was
	// captured (summed over cores on a multicore machine).
	Done int64 `json:"done"`
	// Cycles is the machine's cycle count (the makespan — max over cores —
	// on a multicore machine).
	Cycles int64 `json:"cycles"`
	// Final marks the last frame of a finished run.
	Final bool `json:"final,omitempty"`
	// Remaps counts column-mask rewrites applied so far: adaptive-controller
	// decisions on a single-core machine, fired schedule events on a
	// multicore one. A frame where this increments is a frame where the
	// masks changed — the scrub target.
	Remaps int64 `json:"remaps,omitempty"`
	// Caches holds one entry per cache: "l1" (+ "l2") on a single-core
	// machine, "core0".."coreN-1" + "l2" on a multicore one.
	Caches []CacheFrame `json:"caches"`
	// Masks is the active column-mask table: per-tint on a single-core
	// machine, per-core (shared L2) on a multicore one.
	Masks []MaskEntry `json:"masks"`
	// TintMiss carries per-tint access/miss deltas since the previous
	// frame. Empty when per-tint attribution is off.
	TintMiss []TintDelta `json:"tint_miss,omitempty"`
}

// CacheFrame is one cache's occupancy grid.
type CacheFrame struct {
	Name string `json:"name"`
	Sets int    `json:"sets"`
	Ways int    `json:"ways"`
	// Occ tags every (set, way) cell, row-major by set: 0 for an invalid
	// line, otherwise 1 + the owning tint (private L1s, single-core caches)
	// or 1 + the owning core (the shared L2, when owners are derivable from
	// the per-core address windows; plain 1 otherwise). JSON encodes this
	// as base64 — 64 cells cost ~88 bytes, not 64 array elements.
	Occ []byte `json:"occ"`
	// MSI holds the per-cell state code (CellInvalid/CellShared/
	// CellModified), same layout as Occ.
	MSI []byte `json:"msi"`
	// Aggregate line-state breakdown.
	Valid    int `json:"valid"`
	Dirty    int `json:"dirty"`
	Shared   int `json:"shared"`
	Modified int `json:"modified"`
	// Misses is the cache's cumulative demand-miss counter; MissDelta is
	// the change since the previous frame.
	Misses    int64 `json:"misses"`
	MissDelta int64 `json:"miss_delta"`
}

// MaskEntry is one row of the active column-mask table.
type MaskEntry struct {
	// Kind is "tint" (a tint-table row) or "core" (a core's shared-L2 mask).
	Kind string `json:"kind"`
	ID   int    `json:"id"`
	Name string `json:"name,omitempty"`
	Mask uint64 `json:"mask"`
}

// TintDelta is one tint's activity since the previous frame.
type TintDelta struct {
	Tint     int    `json:"tint"`
	Name     string `json:"name,omitempty"`
	Accesses int64  `json:"accesses"`
	Misses   int64  `json:"misses"`
}

// Reset clears a frame for reuse, keeping every allocated buffer.
func (f *Frame) Reset() {
	f.Seq, f.Done, f.Cycles, f.Remaps = 0, 0, 0, 0
	f.Final = false
	f.Caches = f.Caches[:0]
	f.Masks = f.Masks[:0]
	f.TintMiss = f.TintMiss[:0]
}

// cacheAt returns frame slot idx among f.Caches, growing the slice only
// past its high-water mark and resizing the cell buffers only on a shape
// change, so steady-state reuse allocates nothing.
func cacheAt(f *Frame, idx int, name string, sets, ways int) *CacheFrame {
	for len(f.Caches) <= idx {
		if cap(f.Caches) > len(f.Caches) {
			f.Caches = f.Caches[:len(f.Caches)+1]
		} else {
			f.Caches = append(f.Caches, CacheFrame{})
		}
	}
	cf := &f.Caches[idx]
	cf.Name = name
	cf.Sets, cf.Ways = sets, ways
	n := sets * ways
	if cap(cf.Occ) < n {
		cf.Occ = make([]byte, n)
		cf.MSI = make([]byte, n)
	}
	cf.Occ = cf.Occ[:n]
	cf.MSI = cf.MSI[:n]
	cf.Valid, cf.Dirty, cf.Shared, cf.Modified = 0, 0, 0, 0
	cf.Misses, cf.MissDelta = 0, 0
	return cf
}

// tagByte clamps a tint/core id into the 1..255 cell-tag range.
func tagByte(id int) byte {
	if id >= 254 {
		return 255
	}
	return byte(id + 1)
}
