package fabric

import (
	"sync"
)

// edgeBudgetBytes bounds the result envelopes a coordinator keeps
// resident to answer cache hits without a hop to the owning worker.
const edgeBudgetBytes = 16 << 20

// edgeEntry is one resident envelope: the bytes GET /v1/results/{digest}
// served, and the worker that served them.
type edgeEntry struct {
	blob []byte
	node string
}

// edgeCache is the coordinator's resident set of verified result
// envelopes, keyed by digest. A result is content-addressed and
// immutable, so an entry never goes stale; the only way out is eviction,
// oldest fill first, once the bytes held pass budget. filling marks the
// digests whose fill is in flight, so each is fetched at most once at a
// time.
type edgeCache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	entries map[string]edgeEntry
	order   []string // digests in fill order, oldest first
	filling map[string]bool
}

func newEdgeCache(budget int64) *edgeCache {
	return &edgeCache{
		budget:  budget,
		entries: make(map[string]edgeEntry),
		filling: make(map[string]bool),
	}
}

// get returns digest's resident envelope and the worker it came from.
func (e *edgeCache) get(digest string) (edgeEntry, bool) {
	e.mu.Lock()
	ent, ok := e.entries[digest]
	e.mu.Unlock()
	return ent, ok
}

// startFill claims digest's fill, reporting false when the envelope is
// already resident or another fill for it is in flight. A claimed fill
// must end with endFill.
func (e *edgeCache) startFill(digest string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.entries[digest]; ok || e.filling[digest] {
		return false
	}
	e.filling[digest] = true
	return true
}

// endFill releases digest's fill and keeps blob, the envelope node
// served, when it is non-nil and fits the budget, evicting the oldest
// entries to make room.
func (e *edgeCache) endFill(digest string, blob []byte, node string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.filling, digest)
	if blob == nil || int64(len(blob)) > e.budget {
		return
	}
	for e.bytes+int64(len(blob)) > e.budget {
		old := e.order[0]
		e.order = e.order[1:]
		e.bytes -= int64(len(e.entries[old].blob))
		delete(e.entries, old)
	}
	e.entries[digest] = edgeEntry{blob: blob, node: node}
	e.order = append(e.order, digest)
	e.bytes += int64(len(blob))
}

// size reports the resident entry count and bytes.
func (e *edgeCache) size() (entries int, bytes int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.entries), e.bytes
}
