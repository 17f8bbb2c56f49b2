package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	colcache "colcache"
)

// referenceHit is the cache-hit document built the long way: decode the
// stored envelope, rebuild the JobInfo with the request's label, and encode
// it as writeJSON does. CachedHit must produce the same bytes.
func referenceHit(blob []byte, kind, digest, node, label string, now time.Time) ([]byte, bool) {
	var sr colcache.StoredResult
	if err := json.Unmarshal(blob, &sr); err != nil {
		return nil, false
	}
	info := colcache.JobInfo{
		Kind:        kind,
		Label:       label,
		State:       colcache.StateDone,
		Cached:      true,
		Digest:      digest,
		Node:        node,
		SubmittedAt: now,
		FinishedAt:  &now,
	}
	if sr.Result != nil {
		res := *sr.Result
		res.Label = label
		info.Result = &res
	}
	if sr.Sweep != nil {
		sw := *sr.Sweep
		info.Sweep = &sw
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(info); err != nil {
		return nil, false
	}
	return buf.Bytes(), true
}

const hitDigest = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"

func hitResult(label string) colcache.SimResult {
	return colcache.SimResult{
		Label:         label,
		Workload:      "mpeg-idct",
		TraceAccesses: 52224,
		Instructions:  104448,
		Cycles:        187311,
		CPI:           1.0 / 3,
		Cache:         colcache.CacheCounters{Accesses: 52224, Hits: 50000, Misses: 2224, Evictions: 2100, Writebacks: 77, Fills: 2224, MissRate: 2224.0 / 52224},
		TLBHitRate:    0.99998,
		Remaps:        3,
		Tints: []colcache.TintView{
			{Name: "coeff<&>", Mask: 3, Columns: []int{0, 1}},
			{Name: "pixels", Mask: 12, Columns: []int{2, 3}},
		},
		Adaptive: &colcache.AdaptiveResult{Epochs: 2, Remaps: 1, Decisions: []string{"epoch 1: pixels → 2 cols"}},
	}
}

// hitEnvelopes returns one envelope of each kind, as storeResult writes
// them, with storedLabel as the first submitter's label.
func hitEnvelopes(t testing.TB, storedLabel string) map[string][]byte {
	t.Helper()
	sim := hitResult(storedLabel)
	mc := hitResult(storedLabel)
	mc.Tints, mc.Adaptive = nil, nil
	mc.Multicore = &colcache.MulticoreResult{
		Cores: []colcache.CoreResult{
			{Workload: "stream", Instructions: 10, Cycles: 40, CPI: 4, L1: colcache.CacheCounters{Accesses: 10, Misses: 1, MissRate: 0.1}, Columns: []int{0}},
			{Workload: "gzip", Instructions: 12, Cycles: 30, CPI: 2.5, L2Accesses: 3, L2Misses: 1e6, Upgrades: 2},
		},
		Bus: colcache.BusCounters{Reads: 5, ReadXs: 2, Upgrades: 1, Invalidations: 3, Interventions: 1},
		L2:  colcache.CacheCounters{Accesses: 3, Hits: 2, Misses: 1, MissRate: 1e-7},
	}
	sweep := &colcache.SweepResult{Points: []colcache.SweepPoint{
		{Label: "ways=2", Machine: colcache.MachineSpec{Ways: 2, Policy: "lru"}, Result: hitResult("ways=2")},
		{Label: "ways=4 \"q\"", Machine: colcache.MachineSpec{Ways: 4}, Result: colcache.SimResult{Label: "ways=4 \"q\"", CPI: 1e21}},
	}}
	out := map[string][]byte{
		"simulate":  storeResult(&Job{Kind: "simulate", Digest: hitDigest}, &sim, nil),
		"multicore": storeResult(&Job{Kind: "multicore", Digest: hitDigest}, &mc, nil),
		"sweep":     storeResult(&Job{Kind: "sweep", Digest: hitDigest}, nil, sweep),
	}
	for kind, blob := range out {
		if blob == nil {
			t.Fatalf("%s envelope did not encode", kind)
		}
	}
	return out
}

var hitLabels = []string{
	"",
	"plain",
	`say "hi"`,
	`back\slash`,
	"<script>&amp;</script>",
	"line\u2028sep\u2029",
	"日本語 ümlaut",
	"tab\tnew\nline\x01",
	"bad \xff utf-8",
}

var hitTimes = []time.Time{
	time.Date(2026, 10, 19, 17, 30, 1, 123456789, time.UTC),
	time.Date(2026, 1, 2, 3, 4, 5, 0, time.FixedZone("", -7*3600)),
	time.Date(2026, 6, 30, 23, 59, 59, 100000000, time.FixedZone("", 5*3600+1800)),
}

// hitNodes are the answering nodes: none (a standalone server) and fabric
// worker names, one of them in need of escaping.
var hitNodes = []string{"", "w1", "worker-127.0.0.1:8351", "node <\"&\">"}

func checkHit(t *testing.T, blob []byte, kind, node, label string, now time.Time) {
	t.Helper()
	want, wantOK := referenceHit(blob, kind, hitDigest, node, label, now)
	got, ok := CachedHit(blob, kind, hitDigest, node, label, now)
	if ok != wantOK || !bytes.Equal(got, want) {
		t.Fatalf("kind %s node %q label %q at %v:\n got %v %s\nwant %v %s", kind, node, label, now, ok, got, wantOK, want)
	}
}

// TestCachedHitMatchesReference pins the cache-hit document: for every
// kind of envelope, stored label, answering node and request label, the
// bytes CachedHit writes are the bytes decoding and re-encoding the
// envelope would, and every truncation of an envelope is a miss.
func TestCachedHitMatchesReference(t *testing.T) {
	for _, stored := range []string{"", "first submitter", "<stored \"label\">"} {
		for kind, blob := range hitEnvelopes(t, stored) {
			for _, node := range hitNodes {
				for _, label := range hitLabels {
					for _, now := range hitTimes {
						checkHit(t, blob, kind, node, label, now)
					}
				}
			}
			for n := 0; n < len(blob); n++ {
				if body, ok := CachedHit(blob[:n], kind, hitDigest, "w1", "x", hitTimes[0]); ok {
					t.Fatalf("%s envelope cut to %d of %d bytes served as a hit: %s", kind, n, len(blob), body)
				}
			}
		}
	}
}

// TestCachedHitOverHTTP checks the same identity through a durable server:
// a resubmission under a new label answers with the bytes the reference
// builds from the stored blob, at the timestamp the response carries.
func TestCachedHitOverHTTP(t *testing.T) {
	srv := newDurable(t, t.TempDir(), Config{Workers: 1, QueueDepth: 4})
	defer srv.Drain(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts, "/v1/simulate", tinySpec("first"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var info colcache.JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if done := waitTerminal(t, ts, info.ID); done.State != colcache.StateDone {
		t.Fatalf("first job: %s: %s", done.State, done.Error)
	}
	rr, err := ts.Client().Get(ts.URL + "/v1/results/" + info.Digest)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(rr.Body)
	rr.Body.Close()
	if err != nil || rr.StatusCode != http.StatusOK {
		t.Fatalf("stored blob: HTTP %d: %v", rr.StatusCode, err)
	}

	for _, label := range []string{"", "second", "<&> \u2028"} {
		resp, body := postJSON(t, ts, "/v1/simulate", tinySpec(label))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cached submit %q: HTTP %d: %s", label, resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type %q", ct)
		}
		var hit colcache.JobInfo
		if err := json.Unmarshal(body, &hit); err != nil {
			t.Fatal(err)
		}
		want, ok := referenceHit(blob, "simulate", info.Digest, "", label, hit.SubmittedAt)
		if !ok || !bytes.Equal(body, want) {
			t.Fatalf("label %q:\n got %s\nwant %s", label, body, want)
		}
	}
}

// FuzzCachedHit compares CachedHit with the reference over arbitrary
// stored labels, answering nodes and request labels, for every kind of
// envelope.
func FuzzCachedHit(f *testing.F) {
	for _, l := range hitLabels {
		f.Add(l, "", "second")
		f.Add("first", "w1", l)
	}
	for _, n := range hitNodes {
		f.Add("first", n, "second")
	}
	f.Fuzz(func(t *testing.T, stored, node, label string) {
		for kind, blob := range hitEnvelopes(t, stored) {
			checkHit(t, blob, kind, node, label, hitTimes[0])
		}
	})
}

// BenchmarkCachedHit times building one hit document from a stored
// simulate envelope, spliced and by the reference's decode and re-encode.
func BenchmarkCachedHit(b *testing.B) {
	blob := hitEnvelopes(b, "first submitter")["simulate"]
	now := hitTimes[0]
	for _, bc := range []struct {
		name string
		hit  func([]byte, string, string, string, string, time.Time) ([]byte, bool)
	}{{"splice", CachedHit}, {"reference", referenceHit}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, ok := bc.hit(blob, "simulate", hitDigest, "", "colload-3", now); !ok {
					b.Fatal("miss")
				}
			}
		})
	}
}
