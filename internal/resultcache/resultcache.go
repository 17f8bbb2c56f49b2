// Package resultcache is a content-addressed store for immutable result
// blobs: the service-layer analogue of the paper's software-controlled
// cache. Simulation results are keyed by the SHA-256 digest of what
// produced them (canonicalized spec + trace bytes), held as files on disk
// under an in-memory index, and bounded by a byte budget with explicit,
// priority-driven eviction — pinned entries never leave, recently-hit
// entries outlive cold ones, exactly the "software decides what the cache
// keeps" discipline the tint/column mechanism applies one layer down
// (and Nunez et al.'s priority hints apply to GC'd software caches).
//
// The key is the digest of the *inputs* that produced a blob, so lookups
// happen before the expensive computation runs; the blob itself is
// protected by an embedded SHA-256 written ahead of the payload on disk.
// A mismatch on read (bit rot, partial write, tampering) quarantines the
// file to <digest>.corrupt and reports a miss — the store never serves
// bytes it cannot prove are the ones stored.
//
// A blob is checked on its first read from disk in each process; once it
// has passed, its payload stays resident on its index entry, and later
// hits are served from memory with no file I/O and no re-hash. The byte
// budget already counts every indexed blob, so it bounds the resident
// copies too, and eviction or quarantine drops them with the entry.
package resultcache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Class is an entry's eviction priority, lowest evicted first.
type Class int

const (
	// Cold entries have not been hit since the store opened.
	Cold Class = iota
	// Hot entries have been hit at least once since open.
	Hot
	// Pinned entries are never evicted.
	Pinned
)

// Counters are the store's lifetime counters since Open; Bytes/Entries
// are live gauges.
type Counters struct {
	Hits        int64
	Misses      int64
	Evictions   int64
	Quarantined int64
	Puts        int64
	Bytes       int64
	Entries     int64
}

type entry struct {
	size    int64
	class   Class
	lastUse int64  // monotonic use sequence, for LRU within a class
	data    []byte // verified payload, nil until the first Get reads it
}

// Cache is the content-addressed store. Safe for concurrent use.
type Cache struct {
	dir      string
	maxBytes int64

	mu       sync.Mutex
	index    map[string]*entry
	useSeq   int64
	bytes    int64
	counters Counters
}

// Digest returns the hex SHA-256 of the given byte slices, the store's
// key format.
func Digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// keyLen is the length of a hex SHA-256 key.
const keyLen = sha256.Size * 2

// Open opens (or creates) a store rooted at dir with the given byte
// budget (0 means 256 MiB), scanning existing blobs into the index. All
// recovered entries start Cold; pins do not survive a restart (the
// service re-pins what it cares about).
func Open(dir string, maxBytes int64) (*Cache, error) {
	if maxBytes <= 0 {
		maxBytes = 256 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &Cache{dir: dir, maxBytes: maxBytes, index: make(map[string]*entry)}
	subs, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, sub := range subs {
		if !sub.IsDir() || len(sub.Name()) != 2 {
			continue
		}
		files, err := os.ReadDir(filepath.Join(dir, sub.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			name := f.Name()
			if len(name) != keyLen || name[:2] != sub.Name() {
				continue // quarantined (.corrupt) or foreign files stay out of the index
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			c.index[name] = &entry{size: info.Size()}
			c.bytes += info.Size()
		}
	}
	c.counters.Bytes = c.bytes
	c.counters.Entries = int64(len(c.index))
	return c, nil
}

func (c *Cache) blobPath(digest string) string {
	return filepath.Join(c.dir, digest[:2], digest)
}

// Get returns the blob stored under digest. The first Get of an entry
// reads its file and verifies the SHA-256 the file carries ahead of the
// payload; a corrupt blob is quarantined and reported as a miss. A blob
// that passes stays resident, and later Gets return the same slice, which
// callers must not modify.
func (c *Cache) Get(digest string) ([]byte, bool) {
	if len(digest) != keyLen {
		return nil, false
	}
	c.mu.Lock()
	e, ok := c.index[digest]
	if !ok {
		c.counters.Misses++
		c.mu.Unlock()
		return nil, false
	}
	if e.data != nil {
		c.touchLocked(e)
		c.mu.Unlock()
		return e.data, true
	}
	c.mu.Unlock()

	raw, err := os.ReadFile(c.blobPath(digest))
	if err != nil || len(raw) < sha256.Size || sha256.Sum256(raw[sha256.Size:]) != [sha256.Size]byte(raw[:sha256.Size]) {
		c.quarantine(digest, e)
		return nil, false
	}
	b := raw[sha256.Size:]

	c.mu.Lock()
	defer c.mu.Unlock()
	// The entry may have been evicted or quarantined while we read; only
	// keep the payload on it if it is still the one we looked up.
	if cur, ok := c.index[digest]; ok && cur == e {
		if e.data == nil {
			e.data = b
		}
		c.touchLocked(e)
		return e.data, true
	}
	c.counters.Hits++
	return b, true
}

// touchLocked counts a hit on e and promotes it: most recently used, and
// Hot if it was Cold.
func (c *Cache) touchLocked(e *entry) {
	c.counters.Hits++
	c.useSeq++
	e.lastUse = c.useSeq
	if e.class == Cold {
		e.class = Hot
	}
}

// quarantine pulls a failed entry out of the index and renames its file
// to <digest>.corrupt so operators can inspect it and no later Open
// re-indexes it.
func (c *Cache) quarantine(digest string, e *entry) {
	c.mu.Lock()
	if cur, ok := c.index[digest]; ok && cur == e {
		delete(c.index, digest)
		c.bytes -= e.size
		c.counters.Bytes = c.bytes
		c.counters.Entries = int64(len(c.index))
	}
	c.counters.Misses++
	c.counters.Quarantined++
	c.mu.Unlock()
	path := c.blobPath(digest)
	os.Rename(path, path+".corrupt")
}

// Put stores blob under digest — the hex SHA-256 of whatever inputs
// produced it (use Digest). The file carries the payload's own SHA-256
// ahead of the payload, so integrity is checkable without re-deriving
// the inputs. Blobs land via a temp file + rename so a crashed Put
// leaves no half-written entry, and an existing entry is never
// overwritten — the key addresses immutable content.
func (c *Cache) Put(digest string, blob []byte, pinned bool) error {
	if len(digest) != keyLen {
		return fmt.Errorf("resultcache: key %q is not a hex sha256", digest)
	}
	c.mu.Lock()
	if e, ok := c.index[digest]; ok {
		if pinned {
			e.class = Pinned
		}
		c.mu.Unlock()
		return nil
	}
	c.mu.Unlock()

	dir := filepath.Join(c.dir, digest[:2])
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "put-*")
	if err != nil {
		return err
	}
	sum := sha256.Sum256(blob)
	if _, err := tmp.Write(append(sum[:], blob...)); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), c.blobPath(digest)); err != nil {
		os.Remove(tmp.Name())
		return err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.index[digest]; ok {
		return nil // racing Put of the same content; identical by definition
	}
	class := Cold
	if pinned {
		class = Pinned
	}
	size := int64(len(blob)) + sha256.Size // on-disk size, checksum header included
	c.useSeq++
	c.index[digest] = &entry{size: size, class: class, lastUse: c.useSeq}
	c.bytes += size
	c.counters.Puts++
	c.evictLocked()
	c.counters.Bytes = c.bytes
	c.counters.Entries = int64(len(c.index))
	return nil
}

// Pin marks (or unmarks) an entry as unevictable. Unpinning demotes to
// Hot so a long-lived pin does not immediately become the next victim.
func (c *Cache) Pin(digest string, pinned bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.index[digest]
	if !ok {
		return
	}
	if pinned {
		e.class = Pinned
	} else if e.class == Pinned {
		e.class = Hot
	}
}

// evictLocked removes victims until the store fits its budget: Cold
// entries first (LRU within the class), then Hot, never Pinned. A store
// full of pins may exceed its budget — explicit priority outranks the
// byte bound, which is the point of software-controlled caching.
func (c *Cache) evictLocked() {
	for c.bytes > c.maxBytes {
		victim := ""
		var ve *entry
		for d, e := range c.index {
			if e.class == Pinned {
				continue
			}
			if ve == nil || e.class < ve.class || (e.class == ve.class && e.lastUse < ve.lastUse) {
				victim, ve = d, e
			}
		}
		if ve == nil {
			return // everything pinned
		}
		delete(c.index, victim)
		c.bytes -= ve.size
		c.counters.Evictions++
		os.Remove(c.blobPath(victim))
	}
}

// Contains reports whether digest is indexed, without touching recency.
func (c *Cache) Contains(digest string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.index[digest]
	return ok
}

// Stats snapshots the counters.
func (c *Cache) Stats() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counters
}
