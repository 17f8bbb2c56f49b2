package colcache_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	colcache "colcache"
	"colcache/internal/memtrace"
	"colcache/internal/service"
)

func newTestService(t *testing.T, cfg service.Config) (*colcache.Client, *service.Server) {
	t.Helper()
	srv := service.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(ctx)
		ts.Close()
	})
	return colcache.NewClient(ts.URL, ts.Client()), srv
}

func clientSpec(label string) colcache.SimSpec {
	return colcache.SimSpec{
		Label:    label,
		Machine:  colcache.MachineSpec{Sets: 16, Ways: 4},
		Workload: &colcache.WorkloadSpec{Name: "stream", SizeBytes: 2048, Passes: 1},
	}
}

func TestClientSimulate(t *testing.T) {
	c, _ := newTestService(t, service.Config{Workers: 2, QueueDepth: 8})
	ctx := context.Background()

	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	res, err := c.Simulate(ctx, clientSpec("client-sim"))
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if res.Cycles <= 0 || res.Cache.Accesses <= 0 || res.Label != "client-sim" {
		t.Fatalf("degenerate result: %+v", res)
	}

	// The job remains pollable after completion.
	list, err := c.Jobs(ctx)
	if err != nil {
		t.Fatalf("jobs: %v", err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].State != colcache.StateDone {
		t.Fatalf("listing: %+v", list)
	}
	info, err := c.Job(ctx, list.Jobs[0].ID)
	if err != nil || info.Result == nil {
		t.Fatalf("job fetch: %v %+v", err, info)
	}
}

func TestClientSubmitTrace(t *testing.T) {
	c, _ := newTestService(t, service.Config{Workers: 1, QueueDepth: 4})
	ctx := context.Background()

	tr := make(colcache.Trace, 128)
	for i := range tr {
		tr[i] = colcache.Access{Addr: uint64(i * 64), Op: colcache.Write}
	}
	info, err := c.SubmitTrace(ctx, "uploaded", colcache.MachineSpec{Sets: 32, Ways: 2}, tr)
	if err != nil {
		t.Fatalf("submit trace: %v", err)
	}
	final, err := c.Wait(ctx, info.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != colcache.StateDone || final.Result.TraceAccesses != 128 {
		t.Fatalf("uploaded run: %+v", final)
	}
	if final.Result.Cache.Writebacks < 0 || final.Label != "uploaded" {
		t.Fatalf("bad result: %+v", final)
	}
}

func TestClientSweep(t *testing.T) {
	c, _ := newTestService(t, service.Config{Workers: 1, QueueDepth: 4, SweepWorkers: 2})
	res, err := c.Sweep(context.Background(), colcache.SweepSpec{
		Base:     clientSpec(""),
		Policies: []string{"lru", "fifo", "random"},
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("want 3 points, got %d", len(res.Points))
	}
}

func TestClientErrors(t *testing.T) {
	c, srv := newTestService(t, service.Config{Workers: 1, QueueDepth: 4})
	ctx := context.Background()

	// Invalid spec: StatusError carrying the server's message.
	_, err := c.SubmitSimulate(ctx, colcache.SimSpec{Machine: colcache.MachineSpec{Policy: "mru"}})
	var se *colcache.StatusError
	if !errors.As(err, &se) || se.StatusCode != 400 {
		t.Fatalf("bad spec error: %v", err)
	}
	if !strings.Contains(se.Message, "policy") {
		t.Fatalf("message lost: %q", se.Message)
	}

	// Malformed inline trace: the server parses trace_text at submission
	// and rejects it as a bad spec.
	spec := colcache.SimSpec{TraceText: "R 0\nW zzz\n"}
	if _, err := c.Simulate(ctx, spec); !errors.As(err, &se) || se.StatusCode != 400 {
		t.Fatalf("malformed trace_text: %v, want a 400", err)
	}

	// Over-limit workload: its trace length is computed from its knobs at
	// submission, so it is a bad spec naming the limit, never a job.
	small, _ := newTestService(t, service.Config{Workers: 1, QueueDepth: 4,
		Limits: service.Limits{MaxTraceAccesses: 16}})
	if _, err := small.Simulate(ctx, clientSpec("too-long")); !errors.As(err, &se) || se.StatusCode != 400 {
		t.Fatalf("over-limit workload: %v, want a 400", err)
	} else if !strings.Contains(se.Message, "limit 16") {
		t.Fatalf("over-limit message does not name the limit: %q", se.Message)
	}

	// Failed job: JobFailedError from the synchronous helper. A job
	// timeout shorter than any run fails the job in the queue.
	slow, _ := newTestService(t, service.Config{Workers: 1, QueueDepth: 4,
		JobTimeout: time.Nanosecond})
	var fe *colcache.JobFailedError
	if _, err := slow.Simulate(ctx, clientSpec("too-slow")); !errors.As(err, &fe) {
		t.Fatalf("timed-out job: %v, want a JobFailedError", err)
	} else if fe.Info.State != colcache.StateFailed || !strings.Contains(fe.Info.Error, "timeout") {
		t.Fatalf("failed job info: %+v", fe.Info)
	}

	// Draining server: OverloadedError with a retry hint.
	dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	_, err = c.SubmitSimulate(ctx, clientSpec("late"))
	var oe *colcache.OverloadedError
	if !errors.As(err, &oe) || oe.StatusCode != 503 || oe.RetryAfter <= 0 {
		t.Fatalf("draining submit: %v", err)
	}
}

func TestClientMetrics(t *testing.T) {
	c, _ := newTestService(t, service.Config{Workers: 1, QueueDepth: 4})
	ctx := context.Background()
	if _, err := c.Simulate(ctx, clientSpec("m")); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, want := range []string{
		`colserved_jobs_total{kind="simulate",outcome="done"} 1`,
		"colserved_sim_accesses_total",
		"colserved_queue_depth 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("scrape missing %q:\n%s", want, text)
		}
	}
}

// TestClientTraceRoundTripMatchesLocal pins the service to the local
// simulation: the same trace through colcache.Machine and through the HTTP
// service must report identical cycles.
func TestClientTraceRoundTripMatchesLocal(t *testing.T) {
	prog := memtrace.Trace{}
	for i := 0; i < 600; i++ {
		prog = append(prog, colcache.Access{Addr: uint64(i%50) * 32, Op: colcache.Read})
	}
	m, err := colcache.New(colcache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	localCycles := m.Run(prog)

	c, _ := newTestService(t, service.Config{Workers: 1, QueueDepth: 4})
	info, err := c.SubmitTrace(context.Background(), "pin", colcache.MachineSpec{}, prog)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(context.Background(), info.ID)
	if err != nil || final.State != colcache.StateDone {
		t.Fatalf("wait: %v %+v", err, final)
	}
	if final.Result.Cycles != localCycles {
		t.Fatalf("service cycles %d != local %d", final.Result.Cycles, localCycles)
	}
}
