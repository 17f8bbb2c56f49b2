package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	colcache "colcache"
	"colcache/internal/fabric"
	"colcache/internal/service"
)

// TestDigestRetryRecovery pins the drain-shed recovery path: a server
// that cancels every accepted job retriable-with-digest, but whose
// content-addressed cache holds the finished result. colload must follow
// the digest to GET /v1/results/{digest} instead of erroring out — and
// the run counts as successful work (digest_recovered), not as a loss.
func TestDigestRetryRecovery(t *testing.T) {
	digest := strings.Repeat("ab", 32)
	var accepted atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeOK(w, map[string]bool{"ok": true})
	})
	mux.HandleFunc("POST /v1/simulate", func(w http.ResponseWriter, r *http.Request) {
		accepted.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(colcache.JobInfo{
			ID: "j00000001", Kind: "simulate", State: colcache.StateQueued, Digest: digest,
			SubmittedAt: time.Now(),
		})
	})
	mux.HandleFunc("GET /v1/jobs/j00000001", func(w http.ResponseWriter, r *http.Request) {
		// Shed: canceled but retriable, carrying the digest to follow.
		writeOK(w, colcache.JobInfo{
			ID: "j00000001", Kind: "simulate", State: colcache.StateCanceled,
			Retriable: true, Digest: digest, SubmittedAt: time.Now(),
		})
	})
	mux.HandleFunc("GET /v1/results/"+digest, func(w http.ResponseWriter, r *http.Request) {
		writeOK(w, colcache.StoredResult{
			Kind: "simulate", Digest: digest,
			Result: &colcache.SimResult{Label: "stored", Cycles: 42, TraceAccesses: 7},
		})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		// The books close: every accepted job was canceled.
		n := accepted.Load()
		fmt.Fprintf(w, "colserved_jobs_total{kind=\"simulate\",outcome=\"accepted\"} %d\n", n)
		fmt.Fprintf(w, "colserved_jobs_total{kind=\"simulate\",outcome=\"canceled\"} %d\n", n)
		fmt.Fprintf(w, "colserved_jobs_total{kind=\"simulate\",outcome=\"done\"} 0\n")
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	out := filepath.Join(t.TempDir(), "bench.json")
	code := run([]string{"-base", ts.URL, "-c", "2", "-duration", "200ms", "-out", out})
	if code != 0 {
		t.Fatalf("colload exited %d; digest recovery should be a success", code)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatalf("report does not parse: %v\n%s", err, blob)
	}
	if rep.DigestRecovered == 0 {
		t.Fatalf("no digest recoveries recorded: %+v", rep)
	}
	if rep.Errors != 0 || rep.Completed != 0 {
		t.Fatalf("unexpected errors/completions: %+v", rep)
	}
	if !rep.LedgerMatches {
		t.Fatalf("ledger mismatch: %+v", rep)
	}
}

// TestSubmissionOutlivesDeadline pins the end of a run: a submission the
// server answers only after the load deadline is still read and its job
// polled to done, so the ledger scraped afterwards closes. A submission
// cancelled at the deadline can still be accepted by the server, and
// colload would never poll that job.
func TestSubmissionOutlivesDeadline(t *testing.T) {
	var accepted, done atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeOK(w, map[string]bool{"ok": true})
	})
	mux.HandleFunc("POST /v1/simulate", func(w http.ResponseWriter, r *http.Request) {
		accepted.Add(1)
		time.Sleep(300 * time.Millisecond) // answer past the 100ms deadline
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(colcache.JobInfo{ID: "j1", Kind: "simulate", State: colcache.StateQueued, SubmittedAt: time.Now()})
	})
	mux.HandleFunc("GET /v1/jobs/j1", func(w http.ResponseWriter, r *http.Request) {
		done.Add(1)
		writeOK(w, colcache.JobInfo{ID: "j1", Kind: "simulate", State: colcache.StateDone, SubmittedAt: time.Now(), Result: &colcache.SimResult{}})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "colserved_jobs_total{kind=\"simulate\",outcome=\"accepted\"} %d\n", accepted.Load())
		fmt.Fprintf(w, "colserved_jobs_total{kind=\"simulate\",outcome=\"done\"} %d\n", done.Load())
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	if code := run([]string{"-base", ts.URL, "-c", "1", "-duration", "100ms"}); code != 0 {
		t.Fatalf("colload exited %d; the submission in flight at the deadline must be seen through", code)
	}
	if a, d := accepted.Load(), done.Load(); a != 1 || d != 1 {
		t.Fatalf("accepted %d, polled to done %d; want 1 and 1", a, d)
	}
}

func writeOK(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// TestFabricLoad drives colload -fabric against an in-process
// coordinator with two real workers: the run must complete, and the
// cluster-level ledger reconciliation must replace the /metrics scrape.
func TestFabricLoad(t *testing.T) {
	coord := fabric.NewCoordinator(fabric.CoordinatorConfig{PeerTTL: 500 * time.Millisecond})
	cs := httptest.NewServer(coord.Handler())
	defer func() {
		cs.Close()
		coord.Close()
	}()

	var drains []func()
	for _, name := range []string{"w1", "w2"} {
		srv := service.New(service.Config{Workers: 2, QueueDepth: 32})
		ws := httptest.NewServer(srv.Handler())
		agent := fabric.StartAgent(fabric.AgentConfig{
			Coordinator: cs.URL, Name: name, BaseURL: ws.URL,
			Interval: 50 * time.Millisecond, Status: srv.FabricStatus,
		})
		srv.SetFabricGauges(agent.Gauges)
		drains = append(drains, func() {
			agent.Stop()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Drain(ctx)
			ws.Close()
		})
	}
	defer func() {
		for _, d := range drains {
			d()
		}
	}()

	// Wait for both workers to join before loading.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(cs.URL + "/fabric/v1/nodes")
		if err == nil {
			var cv fabric.ClusterView
			json.NewDecoder(resp.Body).Decode(&cv)
			resp.Body.Close()
			alive := 0
			for _, w := range cv.Workers {
				if w.Alive {
					alive++
				}
			}
			if alive == 2 {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
	}

	out := filepath.Join(t.TempDir(), "bench.json")
	code := run([]string{"-base", cs.URL, "-fabric", "-c", "8", "-duration", "500ms", "-spec-mix", "8", "-out", out})
	if code != 0 {
		t.Fatalf("colload -fabric exited %d", code)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatalf("report does not parse: %v\n%s", err, blob)
	}
	if rep.Completed == 0 {
		t.Fatalf("no completions through the coordinator: %+v", rep)
	}
	if rep.FabricNodes != 2 {
		t.Fatalf("FabricNodes = %d, want 2: %+v", rep.FabricNodes, rep)
	}
	if !rep.LedgerMatches {
		t.Fatalf("fabric ledgers did not reconcile: %+v", rep)
	}
	if rep.FabricStealFailures != 0 {
		t.Fatalf("steal failures on a healthy cluster: %+v", rep)
	}
	if len(rep.FabricNodeLedgers) != 2 {
		t.Fatalf("per-node ledgers missing: %+v", rep.FabricNodeLedgers)
	}
}
