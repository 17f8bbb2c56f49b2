// Command colload drives a colserved instance with concurrent simulate
// requests and reports throughput, latency percentiles, and the
// backpressure behavior it observed.
//
// Usage:
//
//	colload -base http://127.0.0.1:8344 [-c 200] [-duration 5s] [-spec-mix 16] [-out report.json]
//
// Each of -c workers loops: submit a small simulation, poll it to a
// terminal state, record the end-to-end latency. A 429 answer counts as a
// shed and the worker honors Retry-After before retrying; any other error,
// any failed job, or any accepted job that vanishes is a hard error.
//
// With -spec-mix N each request draws one of N distinct specs from a
// zipfian popularity distribution — the repeated-submission shape that a
// durable server's result cache memoizes. Submissions the server answers
// straight from its cache ("cached": true) are counted and timed
// separately, so the report shows the hit ratio and how much latency
// memoization shaves off.
// After the run colload scrapes /metrics and cross-checks the server's
// ledger against its own counts: accepted must equal done+failed+canceled,
// and the server's done count must cover every completion colload saw.
// Exit status is non-zero on any error or ledger mismatch.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	colcache "colcache"
	"colcache/internal/fabric"
)

type report struct {
	Concurrency  int     `json:"concurrency"`
	SpecMix      int     `json:"spec_mix,omitempty"`
	Duration     float64 `json:"duration_seconds"`
	Submitted    int64   `json:"submitted"`
	Accepted     int64   `json:"accepted"`
	Rejected     int64   `json:"rejected"` // 429 sheds (not errors)
	Completed    int64   `json:"completed"`
	Errors       int64   `json:"errors"`
	Throughput   float64 `json:"jobs_per_second"` // completed + cache hits
	LatencyP50Ms float64 `json:"latency_p50_ms"`  // simulated (non-cached) path
	LatencyP90Ms float64 `json:"latency_p90_ms"`
	LatencyP99Ms float64 `json:"latency_p99_ms"`
	LatencyMaxMs float64 `json:"latency_max_ms"`
	// Result-cache observations (durable servers only; zero elsewhere).
	CacheHits          int64            `json:"cache_hits,omitempty"`
	CacheHitRatio      float64          `json:"cache_hit_ratio,omitempty"`
	CachedLatencyP50Ms float64          `json:"cached_latency_p50_ms,omitempty"`
	CachedLatencyP90Ms float64          `json:"cached_latency_p90_ms,omitempty"`
	CachedLatencyP99Ms float64          `json:"cached_latency_p99_ms,omitempty"`
	ServerLedger       map[string]int64 `json:"server_ledger,omitempty"`
	LedgerMatches      bool             `json:"ledger_matches"`
	// Digest recoveries: accepted jobs handed back canceled+retriable
	// (a drain or a failed steal) whose results were nonetheless served
	// from the content-addressed cache via GET /v1/results/{digest}.
	DigestRecovered int64 `json:"digest_recovered,omitempty"`
	// Fabric observations (-fabric runs only).
	FabricNodes         int              `json:"fabric_nodes,omitempty"`
	FabricStolen        int64            `json:"fabric_stolen,omitempty"`
	FabricStealFailures int64            `json:"fabric_steal_failures"`
	FabricNodeLedgers   map[string]int64 `json:"fabric_node_jobs,omitempty"` // accepted per alive node
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("colload", flag.ContinueOnError)
	var (
		base     = fs.String("base", "http://127.0.0.1:8344", "colserved base URL")
		conc     = fs.Int("c", 200, "concurrent clients")
		duration = fs.Duration("duration", 5*time.Second, "load duration")
		out      = fs.String("out", "", "write the JSON report here")
		workload = fs.String("workload", "stream", "workload each request simulates")
		size     = fs.Uint64("size", 2048, "workload size_bytes")
		specMix  = fs.Int("spec-mix", 0, "distinct specs drawn zipfian per request (0: one spec)")
		fabricFl = fs.Bool("fabric", false, "base is a fabric coordinator: reconcile per-node ledgers instead of /metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *specMix < 0 {
		log.Printf("colload: -spec-mix must be >= 0")
		return 2
	}

	client := colcache.NewClient(*base, &http.Client{Timeout: 30 * time.Second})

	// Fail fast if the server isn't there.
	pingCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := client.Healthz(pingCtx); err != nil {
		log.Printf("colload: %s unreachable: %v", *base, err)
		return 1
	}

	spec := colcache.SimSpec{
		Machine:  colcache.MachineSpec{Sets: 16, Ways: 4},
		Workload: &colcache.WorkloadSpec{Name: *workload, SizeBytes: *size, Passes: 1},
	}
	// The spec mix varies the workload footprint: each rank is a distinct
	// content address, and the zipfian draw makes low ranks hot — exactly
	// the repeated-submission shape the result cache memoizes.
	var specs []colcache.SimSpec
	for i := 0; i < *specMix; i++ {
		s := spec
		w := *s.Workload
		w.SizeBytes = *size + uint64(i)*64
		s.Workload = &w
		specs = append(specs, s)
	}

	var submitted, accepted, rejected, completed, cacheHits, digestRecovered, errCount atomic.Int64
	var mu sync.Mutex
	var latencies []float64       // milliseconds, simulated path
	var cachedLatencies []float64 // milliseconds, answered from the result cache

	deadline := time.Now().Add(*duration)
	runCtx, stopLoad := context.WithDeadline(context.Background(), deadline)
	defer stopLoad()

	var wg sync.WaitGroup
	for c := 0; c < *conc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s := spec
			s.Label = fmt.Sprintf("colload-%d", c)
			// Deterministic per-worker zipf: rank 0 is the hottest spec.
			var zipf *rand.Zipf
			if len(specs) > 1 {
				zipf = rand.NewZipf(rand.New(rand.NewSource(int64(c)+1)), 1.3, 1, uint64(len(specs)-1))
			}
			for runCtx.Err() == nil {
				if zipf != nil {
					s = specs[zipf.Uint64()]
					s.Label = fmt.Sprintf("colload-%d", c)
				} else if len(specs) == 1 {
					s = specs[0]
					s.Label = fmt.Sprintf("colload-%d", c)
				}
				start := time.Now()
				submitted.Add(1)
				// The deadline stops new submissions, never one in flight:
				// a cancelled submission can still be accepted by the
				// server, leaving a job colload never polls and a ledger
				// still open when it is scraped.
				info, err := client.SubmitSimulate(context.Background(), s)
				if err != nil {
					var oe *colcache.OverloadedError
					if errors.As(err, &oe) {
						rejected.Add(1)
						select {
						case <-runCtx.Done():
						case <-time.After(oe.RetryAfter):
						}
						continue
					}
					errCount.Add(1)
					log.Printf("colload: client %d submit: %v", c, err)
					return
				}
				if info.Cached {
					// Served from the result cache: terminal document, no job
					// to poll, and it must carry a usable result.
					if info.State != colcache.StateDone || info.Result == nil {
						errCount.Add(1)
						log.Printf("colload: client %d cached answer without result: %+v", c, info)
						return
					}
					cacheHits.Add(1)
					ms := float64(time.Since(start).Microseconds()) / 1000
					mu.Lock()
					cachedLatencies = append(cachedLatencies, ms)
					mu.Unlock()
					continue
				}
				accepted.Add(1)
				// Poll to terminal even past the load deadline: an accepted
				// job must never be abandoned, that's the contract under test.
				final, err := client.Wait(context.Background(), info.ID)
				if err != nil {
					errCount.Add(1)
					log.Printf("colload: client %d job %s: %v", c, info.ID, err)
					return
				}
				if final.State == colcache.StateCanceled && final.Retriable {
					// Shed by a drain (or a steal no worker could absorb).
					// The terminal document carries the submission's digest:
					// follow it to the content-addressed cache before
					// resubmitting — a finished result may already be stored.
					if final.Digest != "" {
						sr, err := client.StoredResult(context.Background(), final.Digest)
						if err == nil && sr.Result != nil {
							digestRecovered.Add(1)
							continue
						}
					}
					// Nothing stored: the spec is unchanged, resubmit it.
					continue
				}
				if final.State != colcache.StateDone {
					errCount.Add(1)
					log.Printf("colload: client %d job %s ended %s: %s", c, info.ID, final.State, final.Error)
					return
				}
				completed.Add(1)
				ms := float64(time.Since(start).Microseconds()) / 1000
				mu.Lock()
				latencies = append(latencies, ms)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(deadline.Add(-*duration))

	rep := report{
		Concurrency:     *conc,
		SpecMix:         *specMix,
		Duration:        elapsed.Seconds(),
		Submitted:       submitted.Load(),
		Accepted:        accepted.Load(),
		Rejected:        rejected.Load(),
		Completed:       completed.Load(),
		CacheHits:       cacheHits.Load(),
		DigestRecovered: digestRecovered.Load(),
		Errors:          errCount.Load(),
	}
	if rep.Duration > 0 {
		rep.Throughput = float64(rep.Completed+rep.CacheHits+rep.DigestRecovered) / rep.Duration
	}
	if served := rep.Completed + rep.CacheHits; served > 0 {
		rep.CacheHitRatio = float64(rep.CacheHits) / float64(served)
	}
	sort.Float64s(latencies)
	rep.LatencyP50Ms = percentile(latencies, 0.50)
	rep.LatencyP90Ms = percentile(latencies, 0.90)
	rep.LatencyP99Ms = percentile(latencies, 0.99)
	if n := len(latencies); n > 0 {
		rep.LatencyMaxMs = latencies[n-1]
	}
	sort.Float64s(cachedLatencies)
	rep.CachedLatencyP50Ms = percentile(cachedLatencies, 0.50)
	rep.CachedLatencyP90Ms = percentile(cachedLatencies, 0.90)
	rep.CachedLatencyP99Ms = percentile(cachedLatencies, 0.99)

	// Cross-check the server's ledger against what we observed. Against a
	// fabric coordinator the books live per node in the heartbeat stream,
	// not in one /metrics ledger.
	if *fabricFl {
		if err := checkFabric(*base, &rep); err != nil {
			log.Printf("colload: fabric check: %v", err)
			errCount.Add(1)
			rep.Errors = errCount.Load()
		}
	} else {
		ledger, err := scrapeLedger(client)
		if err != nil {
			log.Printf("colload: metrics scrape: %v", err)
			errCount.Add(1)
			rep.Errors = errCount.Load()
		} else {
			rep.ServerLedger = ledger
			rep.LedgerMatches = checkLedger(ledger, rep)
			if !rep.LedgerMatches {
				log.Printf("colload: ledger mismatch: server %v vs observed accepted=%d rejected=%d completed=%d",
					ledger, rep.Accepted, rep.Rejected, rep.Completed)
			}
		}
	}

	blob, _ := json.MarshalIndent(rep, "", "  ")
	fmt.Println(string(blob))
	if *out != "" {
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			log.Printf("colload: write %s: %v", *out, err)
			return 1
		}
	}
	if rep.Errors > 0 || !rep.LedgerMatches || rep.Completed+rep.DigestRecovered == 0 {
		return 1
	}
	return 0
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// checkFabric reconciles the cluster's books through the coordinator:
// every alive worker's heartbeat ledger must balance (accepted equals
// done+failed+canceled), the coordinator must have no pending routed jobs,
// and no steal may have failed. Heartbeats lag by up to one interval and
// terminal states land on the last poll, so imbalance is retried for a
// grace window before it counts as a mismatch.
func checkFabric(base string, rep *report) error {
	httpc := &http.Client{Timeout: 5 * time.Second}
	var lastErr error
	for deadline := time.Now().Add(10 * time.Second); ; {
		var cluster fabric.ClusterView
		resp, err := httpc.Get(base + "/fabric/v1/nodes")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&cluster)
			resp.Body.Close()
		}
		if err != nil {
			lastErr = err
		} else {
			lastErr = reconcileCluster(cluster, rep)
			if lastErr == nil {
				rep.LedgerMatches = true
				return nil
			}
		}
		if time.Now().After(deadline) {
			return lastErr
		}
		time.Sleep(250 * time.Millisecond)
	}
}

func reconcileCluster(cluster fabric.ClusterView, rep *report) error {
	rep.FabricStolen = cluster.JobsStolen
	rep.FabricStealFailures = cluster.StealFailures
	rep.FabricNodes = 0
	aggregate := map[string]int64{}
	perNode := map[string]int64{}
	var unbalanced []string
	for _, w := range cluster.Workers {
		if !w.Alive {
			continue
		}
		rep.FabricNodes++
		perNode[w.Name] = w.Ledger["accepted"]
		for k, v := range w.Ledger {
			aggregate[k] += v
		}
		if w.Ledger["accepted"] != w.Ledger["done"]+w.Ledger["failed"]+w.Ledger["canceled"] {
			unbalanced = append(unbalanced, w.Name)
		}
	}
	rep.ServerLedger = aggregate
	rep.FabricNodeLedgers = perNode
	if rep.FabricNodes == 0 {
		return errors.New("no alive workers in the cluster view")
	}
	if len(unbalanced) > 0 {
		return fmt.Errorf("unbalanced node ledgers: %v", unbalanced)
	}
	if cluster.StealFailures > 0 {
		return fmt.Errorf("%d jobs were lost to failed steals", cluster.StealFailures)
	}
	if cluster.PendingJobs > 0 {
		return fmt.Errorf("%d routed jobs still pending at the coordinator", cluster.PendingJobs)
	}
	return nil
}

var ledgerRe = regexp.MustCompile(`(?m)^colserved_jobs_total\{kind="simulate",outcome="(\w+)"\} (\d+)$`)

// scrapeLedger pulls the simulate-job counters out of /metrics.
func scrapeLedger(client *colcache.Client) (map[string]int64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	text, err := client.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	ledger := map[string]int64{}
	for _, m := range ledgerRe.FindAllStringSubmatch(text, -1) {
		v, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("parse %q: %v", m[0], err)
		}
		ledger[m[1]] = v
	}
	return ledger, nil
}

// checkLedger verifies the server's books against colload's observations.
// Other clients may be hitting the server, so the server counts must be
// at least ours; the accepted = terminal identity must hold exactly once
// the queue is idle (all our jobs were polled to completion). Cached
// answers sit outside the identity: they were never accepted into the
// queue, they have their own outcome counter.
func checkLedger(ledger map[string]int64, rep report) bool {
	if ledger["accepted"] < rep.Accepted {
		return false
	}
	if ledger["rejected"] < rep.Rejected {
		return false
	}
	if ledger["done"] < rep.Completed {
		return false
	}
	if ledger["cached"] < rep.CacheHits {
		return false
	}
	return ledger["accepted"] == ledger["done"]+ledger["failed"]+ledger["canceled"]
}
