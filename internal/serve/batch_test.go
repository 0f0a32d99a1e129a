package serve

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"hyqsat/internal/anneal"
	"hyqsat/internal/cnf"
	"hyqsat/internal/embed"
	"hyqsat/internal/gen"
	"hyqsat/internal/hyqsat"
	"hyqsat/internal/obs"
	"hyqsat/internal/qpu"
	"hyqsat/internal/qubo"
	"hyqsat/internal/topo"
)

// nativeProblem builds a small embedded problem on the service's own 2000Q
// topology, so the batching scheduler can co-tile it.
func nativeProblem(t testing.TB, v1, v2, v3 int) *anneal.EmbeddedProblem {
	t.Helper()
	g := topo.DWave2000Q()
	clauses := []cnf.Clause{cnf.NewClause(v1, v2, v3)}
	enc, err := qubo.Encode(clauses)
	if err != nil {
		t.Fatal(err)
	}
	res := embed.Fast(enc, g)
	norm, _ := enc.Poly.Normalized()
	is := norm.ToIsing()
	return anneal.EmbedIsing(is, res.Embedding, g, anneal.ChainStrengthFor(is))
}

// tenantUsage reads a tenant's live accounting: jobs holding a concurrency
// slot and the device-time balance.
func tenantUsage(svc *Service, name string) (inFlight int, balance time.Duration) {
	svc.tenants.mu.Lock()
	defer svc.tenants.mu.Unlock()
	ts := svc.tenants.byName[name]
	if ts == nil {
		return 0, 0
	}
	return ts.inFlight, ts.device.balance
}

// TestSampleBatchingRefundsProRata is the quota contract of the batching
// path: two concurrent charged accesses share one device program, and after
// the refunds the bucket is down exactly one solo access time. The hard
// budget of two solo accesses therefore still admits a third access, and
// refuses a fourth permanently once genuinely spent.
func TestSampleBatchingRefundsProRata(t *testing.T) {
	tm := anneal.DWave2000QTiming()
	const reads = 4
	access := tm.AccessTime(reads)
	reg := obs.NewRegistry()
	svc := New(Config{
		Workers:         1,
		BatchWindow:     500 * time.Millisecond,
		BatchMaxMembers: 2,
		DefaultQuota: TenantQuota{
			MaxConcurrent: 4,
			DeviceBudget:  2 * access,
			// No refill: a hard budget, so the arithmetic is exact.
		},
		Metrics: reg,
	})
	defer svc.Drain(context.Background())

	eps := []*anneal.EmbeddedProblem{
		nativeProblem(t, 1, 2, 3),
		nativeProblem(t, 4, 5, 6),
	}
	var wg sync.WaitGroup
	shares := make([]time.Duration, len(eps))
	errs := make([]error, len(eps))
	for i := range eps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, shares[i], errs[i] = svc.jobBackend("pro-rata").SubmitCosted(context.Background(), eps[i], reads)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("batched access %d: %v", i, err)
		}
	}
	if got := reg.Counter("batch_programs").Value(); got != 1 {
		t.Fatalf("two concurrent accesses ran %d programs, want 1 (window missed?)", got)
	}
	if got := reg.Counter("batch_members").Value(); got != 2 {
		t.Fatalf("batch_members = %d, want 2", got)
	}
	if shares[0]+shares[1] != access {
		t.Fatalf("shares %v + %v, want one program's %v", shares[0], shares[1], access)
	}
	if _, balance := tenantUsage(svc, "pro-rata"); balance != access {
		t.Fatalf("balance %v after one shared program, want %v left of %v", balance, access, 2*access)
	}

	// The refunds left exactly one solo access in the bucket.
	be := svc.jobBackend("pro-rata")
	if _, err := be.Submit(context.Background(), eps[0], reads); err != nil {
		t.Fatalf("third access after refunds: %v", err)
	}
	if _, err := be.Submit(context.Background(), eps[0], reads); !qpu.Permanent(err) {
		t.Fatalf("fourth access on a spent hard budget: %v, want a permanent refusal", err)
	}
}

// TestSampleBatchingOffChargesFull: with batching disabled every access is
// its own program and takes a full solo access time from the bucket.
func TestSampleBatchingOffChargesFull(t *testing.T) {
	tm := anneal.DWave2000QTiming()
	const reads = 4
	access := tm.AccessTime(reads)
	reg := obs.NewRegistry()
	svc := New(Config{
		Workers:      1,
		BatchWindow:  -1,
		DefaultQuota: TenantQuota{MaxConcurrent: 4, DeviceBudget: 3 * access},
		Metrics:      reg,
	})
	defer svc.Drain(context.Background())

	be := svc.jobBackend("solo")
	ep := nativeProblem(t, 1, 2, 3)
	for i := 1; i <= 2; i++ {
		_, share, err := be.SubmitCosted(context.Background(), ep, reads)
		if err != nil {
			t.Fatalf("solo access %d: %v", i, err)
		}
		if share != access {
			t.Fatalf("solo access %d charged %v, want %v", i, share, access)
		}
		if _, balance := tenantUsage(svc, "solo"); balance != time.Duration(3-i)*access {
			t.Fatalf("balance %v after %d solo accesses, want %v", balance, i, time.Duration(3-i)*access)
		}
	}
	if got := reg.Counter("batch_device_ns").Value(); got != 2*access.Nanoseconds() {
		t.Fatalf("device busy %dns, want two full programs", got)
	}
}

// TestJobHardDeviceBudgetStopsQA is the device quota end to end on the job
// path: a tenant whose hard budget covers one QA access gets that access,
// then the refusal degrades the iteration once and stops QA for the rest of
// the solve, and the verdict still comes back certified.
func TestJobHardDeviceBudgetStopsQA(t *testing.T) {
	ring := obs.NewRing(1 << 14)
	reg := obs.NewRegistry()
	solve := hyqsat.SimulatorOptions()
	solve.SelfCertify = true
	svc := New(Config{
		Workers: 1, Solve: solve, HaveSolveDefaults: true,
		Trace: ring, Metrics: reg,
	})
	defer svc.Drain(context.Background())
	svc.SetQuota("capped", TenantQuota{DeviceBudget: anneal.DWave2000QTiming().AccessTime(1)})

	inst := gen.SatisfiableRandom3SAT(40, 170, 3)
	view, err := svc.Submit("capped", "", SubmitRequest{CNF: cnf.DIMACSString(inst.Formula), Seed: 3}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for view.State == StateQueued || view.State == StateRunning {
		if !time.Now().Before(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(5 * time.Millisecond)
		view, _ = svc.Job(view.ID)
	}
	if view.State != StateDone || view.Verdict != "sat" || !view.Certified {
		t.Fatalf("capped job: %+v", view)
	}
	svc.mu.Lock()
	j := svc.jobs[view.ID]
	svc.mu.Unlock()
	j.mu.Lock()
	stats := j.result.Stats
	j.mu.Unlock()
	if stats.QACalls != 1 || stats.QADegraded < 1 {
		t.Fatalf("qa calls %d, degraded %d: want the one budgeted call, then degradation",
			stats.QACalls, stats.QADegraded)
	}

	// Exactly one degradation, naming the device-time quota, and no device
	// program after it.
	degrades, programsAfter := 0, 0
	for _, ev := range ring.Events() {
		switch e := ev.E.(type) {
		case obs.DegradeEvent:
			if ev.Solve != view.ID {
				continue
			}
			degrades++
			if !strings.Contains(e.Err, "device_time") {
				t.Fatalf("degrade cause %q does not name the device_time quota", e.Err)
			}
		case obs.BatchEvent:
			if degrades > 0 {
				programsAfter++
			}
		}
	}
	if degrades != 1 {
		t.Fatalf("%d degrade events, want exactly 1", degrades)
	}
	if programsAfter != 0 {
		t.Fatalf("%d device programs ran after the budget was spent", programsAfter)
	}
	if got := reg.Counter("batch_members").Value(); got != 1 {
		t.Fatalf("device served %d accesses, want the 1 budgeted", got)
	}
}

// TestRunThroughputBenchSmoke: the bench harness completes a small run and
// reports sane numbers with batching on.
func TestRunThroughputBenchSmoke(t *testing.T) {
	res, err := RunThroughputBench(ThroughputConfig{
		Clients: 2, Jobs: 4, Batching: true, Vars: 8, Clauses: 30, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 4 || res.JobsPerSec <= 0 || res.P50 <= 0 || res.P99 < res.P50 {
		t.Fatalf("implausible bench result: %+v", res)
	}
	if res.DeviceNs <= 0 || res.DevicePerVerdict <= 0 {
		t.Fatalf("no device time recorded: %+v", res)
	}
}
