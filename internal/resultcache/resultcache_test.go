package resultcache

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func openT(t *testing.T, dir string, max int64) *Cache {
	t.Helper()
	c, err := Open(dir, max)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return c
}

func put(t *testing.T, c *Cache, blob string, pinned bool) string {
	t.Helper()
	d := Digest([]byte(blob))
	if err := c.Put(d, []byte(blob), pinned); err != nil {
		t.Fatalf("Put(%q): %v", blob, err)
	}
	return d
}

func TestPutGetRoundTrip(t *testing.T) {
	c := openT(t, t.TempDir(), 1<<20)
	d := put(t, c, `{"result":42}`, false)
	b, ok := c.Get(d)
	if !ok || string(b) != `{"result":42}` {
		t.Fatalf("Get = %q, %v", b, ok)
	}
	if _, ok := c.Get(Digest([]byte("absent"))); ok {
		t.Fatal("hit on absent digest")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("counters = %+v", st)
	}
}

func TestPutRejectsMalformedKey(t *testing.T) {
	c := openT(t, t.TempDir(), 1<<20)
	if err := c.Put("short-key", []byte("b"), false); err == nil {
		t.Fatal("Put accepted a key that is not a hex sha256")
	}
}

// The key is the digest of the *inputs*, independent of the blob content:
// a lookup under the input digest returns the stored result blob.
func TestInputKeyedLookup(t *testing.T) {
	c := openT(t, t.TempDir(), 1<<20)
	key := Digest([]byte("spec-json"), []byte("trace-bytes"))
	if err := c.Put(key, []byte(`{"cycles":123}`), false); err != nil {
		t.Fatal(err)
	}
	b, ok := c.Get(key)
	if !ok || string(b) != `{"cycles":123}` {
		t.Fatalf("Get = %q, %v", b, ok)
	}
}

// The index must survive a restart: a fresh Open over the same directory
// serves previously stored blobs.
func TestReopenRecoversIndex(t *testing.T) {
	dir := t.TempDir()
	c := openT(t, dir, 1<<20)
	d1 := put(t, c, "blob-one", false)
	d2 := put(t, c, "blob-two", true)

	c2 := openT(t, dir, 1<<20)
	for _, d := range []string{d1, d2} {
		if b, ok := c2.Get(d); !ok || len(b) == 0 {
			t.Fatalf("reopened store missed %s", d)
		}
	}
	if st := c2.Stats(); st.Entries != 2 {
		t.Fatalf("reopened entries = %d, want 2", st.Entries)
	}
}

// A corrupted blob must be quarantined — renamed aside, never served,
// absent after reopen.
func TestCorruptBlobQuarantined(t *testing.T) {
	dir := t.TempDir()
	c := openT(t, dir, 1<<20)
	d := put(t, c, "pristine result bytes", false)

	path := filepath.Join(dir, d[:2], d)
	if err := os.WriteFile(path, []byte("tampered result bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(d); ok {
		t.Fatal("served a blob that fails its digest check")
	}
	st := c.Stats()
	if st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("corrupt blob not set aside: %v", err)
	}
	// A reopen must not re-index the quarantined file.
	c2 := openT(t, dir, 1<<20)
	if c2.Contains(d) {
		t.Fatal("reopen re-indexed a quarantined blob")
	}
	// The slot is usable again: a fresh Put of the true content works.
	put(t, c, "pristine result bytes", false)
	if b, ok := c.Get(d); !ok || string(b) != "pristine result bytes" {
		t.Fatalf("re-Put after quarantine: %q, %v", b, ok)
	}
}

// tamper overwrites d's blob file with bytes that fail its digest check.
func tamper(t *testing.T, dir, d string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, d[:2], d), []byte("tampered result bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// After its first verified read a blob is served from memory: deleting
// the file does not turn the next Get into a miss.
func TestResidentHitSkipsDisk(t *testing.T) {
	dir := t.TempDir()
	c := openT(t, dir, 1<<20)
	d := put(t, c, "resident result bytes", false)
	first, ok := c.Get(d)
	if !ok {
		t.Fatal("first Get missed")
	}
	if err := os.Remove(filepath.Join(dir, d[:2], d)); err != nil {
		t.Fatal(err)
	}
	second, ok := c.Get(d)
	if !ok || string(second) != "resident result bytes" || &second[0] != &first[0] {
		t.Fatalf("second Get: %q, %v (want the resident copy)", second, ok)
	}
	if st := c.Stats(); st.Hits != 2 || st.Misses != 0 {
		t.Fatalf("Hits/Misses = %d/%d, want 2/0", st.Hits, st.Misses)
	}
}

// Concurrent first reads agree on the bytes and each count a hit.
func TestConcurrentFirstGets(t *testing.T) {
	c := openT(t, t.TempDir(), 1<<20)
	d := put(t, c, "shared result bytes", false)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b, ok := c.Get(d); !ok || string(b) != "shared result bytes" {
				t.Errorf("Get: %q, %v", b, ok)
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.Hits != 8 {
		t.Fatalf("Hits = %d, want 8", st.Hits)
	}
}

// Eviction takes the resident copy with the entry: the same content put
// again is verified from its new file, not served from memory.
func TestEvictionDropsResidentCopy(t *testing.T) {
	dir := t.TempDir()
	c := openT(t, dir, 300) // two 132-byte entries fit, a third does not
	blob := func(tag string) string { return tag + strings.Repeat("x", 100-len(tag)) }
	d := put(t, c, blob("victim"), false)
	if _, ok := c.Get(d); !ok {
		t.Fatal("first Get missed")
	}
	put(t, c, blob("pin1"), true)
	put(t, c, blob("pin2"), true)
	if c.Contains(d) {
		t.Fatal("the only unpinned entry survived eviction")
	}
	if _, ok := c.Get(d); ok {
		t.Fatal("evicted entry still served")
	}
	put(t, c, blob("victim"), true)
	tamper(t, dir, d)
	if b, ok := c.Get(d); ok {
		t.Fatalf("re-Put after eviction served %q without reading its file", b)
	}
	if st := c.Stats(); st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
	}
}

// A first read that fails its check keeps nothing resident, and a re-Put
// after quarantine is read and verified from disk again before it is
// served from memory.
func TestQuarantineKeepsNoResidentCopy(t *testing.T) {
	dir := t.TempDir()
	c := openT(t, dir, 1<<20)
	d := put(t, c, "pristine result bytes", false)
	tamper(t, dir, d)
	if _, ok := c.Get(d); ok {
		t.Fatal("served a blob that fails its digest check")
	}

	put(t, c, "pristine result bytes", false)
	tamper(t, dir, d)
	if b, ok := c.Get(d); ok {
		t.Fatalf("re-Put after quarantine served %q without verifying its file", b)
	}
	if st := c.Stats(); st.Quarantined != 2 {
		t.Fatalf("Quarantined = %d, want 2", st.Quarantined)
	}

	put(t, c, "pristine result bytes", false)
	if b, ok := c.Get(d); !ok || string(b) != "pristine result bytes" {
		t.Fatalf("verified re-Put: %q, %v", b, ok)
	}
	if err := os.Remove(filepath.Join(dir, d[:2], d)); err != nil {
		t.Fatal(err)
	}
	if b, ok := c.Get(d); !ok || string(b) != "pristine result bytes" {
		t.Fatalf("resident copy after verification: %q, %v", b, ok)
	}
}

// Eviction order is cold, then hot LRU; pinned never.
func TestPriorityEviction(t *testing.T) {
	c := openT(t, t.TempDir(), 400)                                                    // three 132-byte entries fit, a fourth does not
	blob := func(tag string) string { return tag + strings.Repeat("x", 100-len(tag)) } // 100 bytes + 32B header each
	pinned := put(t, c, blob("pinned"), true)
	hot := put(t, c, blob("hot"), false)
	cold := put(t, c, blob("cold"), false)
	if _, ok := c.Get(hot); !ok { // promote to Hot
		t.Fatal("hot entry missing")
	}

	// A fourth entry busts the 300-byte budget: the cold entry must go.
	d4 := put(t, c, blob("newcomer"), false)
	if c.Contains(cold) {
		t.Fatal("cold entry survived eviction")
	}
	for _, d := range []string{pinned, hot, d4} {
		if !c.Contains(d) {
			t.Fatalf("wrong victim: %s evicted", d)
		}
	}

	// Another entry: now the hot one (LRU among non-pinned, since the
	// newcomer is cold... cold goes first).
	d5 := put(t, c, blob("another"), false)
	if c.Contains(d4) {
		t.Fatal("cold newcomer survived while present") // d4 was Cold, evicted before hot
	}
	if !c.Contains(hot) || !c.Contains(pinned) || !c.Contains(d5) {
		t.Fatal("wrong victim on second eviction")
	}

	// Exhaust everything unpinned: pinned must survive even over budget.
	put(t, c, blob("third"), true)
	put(t, c, blob("fourth"), true)
	if !c.Contains(pinned) {
		t.Fatal("pinned entry evicted")
	}
	if st := c.Stats(); st.Evictions < 2 {
		t.Fatalf("Evictions = %d, want >= 2", st.Evictions)
	}
}

func TestUnpinDemotesToHot(t *testing.T) {
	c := openT(t, t.TempDir(), 270) // two 132-byte entries fit
	blob := func(tag string) string { return tag + strings.Repeat("y", 100-len(tag)) }
	p := put(t, c, blob("was-pinned"), true)
	cold := put(t, c, blob("cold"), false)
	c.Pin(p, false)
	// Over budget: the cold entry goes before the formerly pinned one.
	put(t, c, blob("pusher"), false)
	if c.Contains(cold) {
		t.Fatal("cold survived")
	}
	if !c.Contains(p) {
		t.Fatal("unpinned entry evicted before colder entries")
	}
}

func TestBytesGauge(t *testing.T) {
	c := openT(t, t.TempDir(), 1<<20)
	var want int64
	for i := 0; i < 5; i++ {
		s := fmt.Sprintf("blob-%d-%s", i, strings.Repeat("z", i*10))
		put(t, c, s, false)
		want += int64(len(s)) + 32 // payload + checksum header
	}
	if st := c.Stats(); st.Bytes != want || st.Entries != 5 || st.Puts != 5 {
		t.Fatalf("stats = %+v, want bytes %d entries 5", st, want)
	}
}

func TestDuplicatePutIsNoop(t *testing.T) {
	c := openT(t, t.TempDir(), 1<<20)
	d := put(t, c, "immutable", false)
	if err := c.Put(d, []byte("immutable"), false); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("duplicate Put accounted: %+v", st)
	}
	// A duplicate Put with pinned set upgrades the entry in place: give
	// the store a budget only big enough for one of the two entries and
	// verify the re-pinned one survives.
	small := openT(t, t.TempDir(), 150)
	dA := put(t, small, strings.Repeat("a", 100), false)
	if err := small.Put(dA, []byte(strings.Repeat("a", 100)), true); err != nil {
		t.Fatal(err)
	}
	put(t, small, strings.Repeat("b", 100), false) // over budget: someone must go
	if !small.Contains(dA) {
		t.Fatal("upgraded pin was evicted")
	}
}

func TestPinUnknownDigestIsNoop(t *testing.T) {
	c := openT(t, t.TempDir(), 1<<20)
	c.Pin(strings.Repeat("ab", 32), true) // must not panic or index anything
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("Pin invented an entry: %+v", st)
	}
}

func TestGetMalformedKey(t *testing.T) {
	c := openT(t, t.TempDir(), 1<<20)
	if _, ok := c.Get("short"); ok {
		t.Fatal("malformed key hit")
	}
}

func TestOpenSkipsForeignFiles(t *testing.T) {
	dir := t.TempDir()
	c := openT(t, dir, 1<<20)
	d := put(t, c, "real", false)

	// Stray top-level file, a shard with a mis-filed blob, a quarantined
	// blob, and a shard-named file (not a dir): all stay out of the index.
	os.WriteFile(filepath.Join(dir, "README"), []byte("not a blob"), 0o644)
	os.MkdirAll(filepath.Join(dir, "ff"), 0o755)
	os.WriteFile(filepath.Join(dir, "ff", "misfiled"), []byte("x"), 0o644)
	os.WriteFile(filepath.Join(dir, "ff", strings.Repeat("a", 64)+".corrupt"), []byte("x"), 0o644)
	os.WriteFile(filepath.Join(dir, "zz"), []byte("file, not shard dir"), 0o644)

	c2 := openT(t, dir, 1<<20)
	st := c2.Stats()
	if st.Entries != 1 || !c2.Contains(d) {
		t.Fatalf("foreign files leaked into the index: %+v", st)
	}
}

func TestPutShardBlockedByFile(t *testing.T) {
	dir := t.TempDir()
	c := openT(t, dir, 1<<20)
	blob := []byte("blocked")
	d := Digest(blob)
	// The shard directory path exists as a regular file: MkdirAll fails
	// and Put must surface it instead of silently dropping the blob.
	if err := os.WriteFile(filepath.Join(dir, d[:2]), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(d, blob, false); err == nil {
		t.Fatal("Put into a blocked shard succeeded")
	}
	if c.Contains(d) {
		t.Fatal("failed Put left an index entry")
	}
}
