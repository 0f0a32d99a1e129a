package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hyqsat/internal/cnf"
	"hyqsat/internal/gen"
	"hyqsat/internal/hyqsat"
	"hyqsat/internal/obs"
	"hyqsat/internal/qpu"
	"hyqsat/internal/sat"
)

// chaosBudget is the tenant's hard device-time allowance in the chaos tests:
// large enough that quota never refuses, so every degradation is the chaos's.
const chaosBudget = time.Hour

// faultCount is a tracer counting the faults the injectors fire.
type faultCount struct{ n atomic.Int64 }

func (c *faultCount) Enabled() bool { return true }
func (c *faultCount) Emit(e obs.Event) {
	if _, ok := e.(obs.QPUFaultEvent); ok {
		c.n.Add(1)
	}
}

// chaosService starts a service whose job QA path — the shared batching
// scheduler behind each job's charged backend — is decorated the way
// cmd/hyqsat's -fault-profile decorates a solve: seeded fault injection
// under the Resilient layer, with instant sleeps and a tiny breaker
// cooldown. Each job's injector gets its own seed. The batching window is
// wide enough that concurrent jobs' accesses share device programs. Self-certification is on,
// so every conclusive verdict is independently verified.
func chaosService(profile qpu.Profile, reg *obs.Registry, faults *faultCount) *Service {
	var seq atomic.Int64
	instant := func(ctx context.Context, _ time.Duration) error { return ctx.Err() }
	solve := hyqsat.SimulatorOptions()
	solve.SelfCertify = true
	solve.WarmupIterations = 12
	solve.WrapBackend = func(b qpu.Backend) qpu.Backend {
		seed := 100 + seq.Add(1)
		fi := qpu.NewFaultInjector(b, profile, seed)
		fi.Trace = faults
		fi.Sleep = instant
		return qpu.NewResilient(fi, qpu.Config{
			MaxAttempts:      3,
			BreakerThreshold: 4,
			BreakerCooldown:  time.Millisecond,
			Seed:             seed,
			Sleep:            instant,
		})
	}
	return New(Config{
		Workers: 2, Solve: solve, HaveSolveDefaults: true, Metrics: reg,
		BatchWindow:  2 * time.Millisecond,
		DefaultQuota: TenantQuota{MaxConcurrent: 8, DeviceBudget: chaosBudget},
	})
}

// postInstance posts inst as a job over the HTTP API and returns its id.
func postInstance(t testing.TB, base string, inst *gen.Instance, seed int64, hdr map[string]string) string {
	t.Helper()
	blob, err := json.Marshal(SubmitRequest{CNF: cnf.DIMACSString(inst.Formula), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJob(t, base, blob, hdr)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: submit %d %s", inst.Name, resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	return v.ID
}

// submitInstance posts inst as a job and waits for it to finish.
func submitInstance(t testing.TB, base string, inst *gen.Instance, seed int64, hdr map[string]string) JobView {
	t.Helper()
	return waitState(t, base, postInstance(t, base, inst, seed, hdr))
}

// wantCertified fails unless the job finished with inst's expected verdict,
// certified.
func wantCertified(t testing.TB, inst *gen.Instance, v JobView) {
	t.Helper()
	want := "unsat"
	if inst.Expected == sat.Sat {
		want = "sat"
	}
	if v.State != StateDone || v.Verdict != want || !v.Certified {
		t.Fatalf("%s: state=%s verdict=%q certified=%v (%s), want certified %s",
			inst.Name, v.State, v.Verdict, v.Certified, v.Error, want)
	}
}

// jobStats reads a finished job's solver statistics.
func jobStats(svc *Service, id string) hyqsat.Stats {
	svc.mu.Lock()
	j := svc.jobs[id]
	svc.mu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result.Stats
}

// deviceCharged is how much device time the tenant's bucket paid.
func deviceCharged(svc *Service, tenant string) time.Duration {
	_, balance := tenantUsage(svc, tenant)
	return chaosBudget - balance
}

// TestWireChaosMatrix is the acceptance gate for the service under a
// misbehaving device: whole jobs go in and verdicts come out over the HTTP
// job API while their QA accesses are dropped, stalled, failed, truncated
// or corrupted (35-40% of accesses mangled). Every verdict must come back
// certified — the chaos can cost guidance, never correctness — and the
// tenant must have paid exactly the device time the scheduler ran, no more
// for the retries and no less for the abandoned accesses.
func TestWireChaosMatrix(t *testing.T) {
	profiles := map[string]qpu.Profile{
		"drops":    {Transient: 0.35},
		"stalls":   {Timeout: 0.2, Slow: 0.15},
		"errors":   {Outage: 0.4},
		"corrupt":  {Corrupt: 0.4},
		"truncate": {Truncate: 0.4},
		"everything": {
			Transient: 0.08, Timeout: 0.08, Outage: 0.08, Corrupt: 0.08, Truncate: 0.08,
		},
	}
	instances := []*gen.Instance{
		gen.SatisfiableRandom3SAT(12, 40, 5),
		gen.CmpAdd(2, 7), // UNSAT by construction
	}
	for name, profile := range profiles {
		profile := profile
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			faults := &faultCount{}
			svc := chaosService(profile, reg, faults)
			defer svc.Drain(context.Background())
			srv := httptest.NewServer(svc.Handler())
			defer srv.Close()

			// The jobs run concurrently, so their QA accesses co-tile and
			// the refunds of pro-rata shares are exercised under the chaos.
			ids := make([]string, len(instances))
			for i, inst := range instances {
				ids[i] = postInstance(t, srv.URL, inst, int64(7+i), nil)
			}
			for i, inst := range instances {
				wantCertified(t, inst, waitState(t, srv.URL, ids[i]))
			}
			if faults.n.Load() == 0 {
				t.Fatalf("profile %q injected no faults — the gate tested nothing", name)
			}
			ran := time.Duration(reg.Counter("batch_device_ns").Value())
			if got := deviceCharged(svc, "anonymous"); got != ran {
				t.Fatalf("tenant charged %v for %v of device programs", got, ran)
			}
		})
	}
}

// TestDeadServerDegradesToLocal: with the annealer dead — every QA access
// fails — each job degrades to local CDCL and still finishes certified, and
// the tenant pays nothing for a device that never ran.
func TestDeadServerDegradesToLocal(t *testing.T) {
	reg := obs.NewRegistry()
	faults := &faultCount{}
	svc := chaosService(qpu.Profile{Outage: 1}, reg, faults)
	defer svc.Drain(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	inst := gen.SatisfiableRandom3SAT(14, 50, 8)
	v := submitInstance(t, srv.URL, inst, 21, nil)
	wantCertified(t, inst, v)
	if jobStats(svc, v.ID).QADegraded == 0 {
		t.Fatal("no iteration degraded — the dead device was never asked")
	}
	if got := reg.Counter("batch_programs").Value(); got != 0 {
		t.Fatalf("%d device programs ran on a dead device", got)
	}
	if got := deviceCharged(svc, "anonymous"); got != 0 {
		t.Fatalf("tenant charged %v for a device that never ran", got)
	}
}

// TestSampleIdempotencyNoDoubleCharge: replaying a job submit under its
// Idempotency-Key — while the job runs and after it finished — returns the
// same job and never runs its QA again, so the tenant pays the device time
// of one solve: every device access the scheduler served belongs to the one
// job, and the bucket paid exactly what those accesses ran.
func TestSampleIdempotencyNoDoubleCharge(t *testing.T) {
	reg := obs.NewRegistry()
	svc := chaosService(qpu.Profile{}, reg, &faultCount{})
	defer svc.Drain(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	inst := gen.SatisfiableRandom3SAT(12, 40, 3)
	blob, err := json.Marshal(SubmitRequest{CNF: cnf.DIMACSString(inst.Formula), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	hdr := map[string]string{qpu.HeaderIdempotency: "same-key"}
	var ids []string
	for i := 0; i < 2; i++ {
		_, body := postJob(t, srv.URL, blob, hdr)
		var v JobView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("submit %d: %v (%s)", i, err, body)
		}
		ids = append(ids, v.ID)
	}
	first := waitState(t, srv.URL, ids[0])
	wantCertified(t, inst, first)
	ids = append(ids, submitInstance(t, srv.URL, inst, 3, hdr).ID)
	for _, id := range ids[1:] {
		if id != ids[0] {
			t.Fatalf("one idempotency key made jobs %v", ids)
		}
	}
	if got := svc.m.accepted.Value(); got != 1 {
		t.Fatalf("serve_jobs_accepted = %d, want 1", got)
	}
	calls := jobStats(svc, first.ID).QACalls
	if calls == 0 {
		t.Fatal("the job made no QA call — the charge was never exercised")
	}
	if got := reg.Counter("batch_members").Value(); got != int64(calls) {
		t.Fatalf("device served %d accesses for one job's %d QA calls", got, calls)
	}
	ran := time.Duration(reg.Counter("batch_device_ns").Value())
	if got := deviceCharged(svc, "anonymous"); got != ran {
		t.Fatalf("tenant charged %v for %v of device programs", got, ran)
	}
}

// TestChaosLeavesNoGoroutines: after chaos jobs, drain and teardown, every
// goroutine is accounted for — nothing parked in the scheduler, a worker,
// a retry or an HTTP connection.
func TestChaosLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	func() {
		faults := &faultCount{}
		svc := chaosService(qpu.Profile{
			Transient: 0.1, Timeout: 0.1, Outage: 0.1, Corrupt: 0.1, Truncate: 0.1,
		}, obs.NewRegistry(), faults)
		srv := httptest.NewServer(svc.Handler())
		defer srv.Close()
		inst := gen.SatisfiableRandom3SAT(12, 40, 6)
		wantCertified(t, inst, submitInstance(t, srv.URL, inst, 9, nil))
		if err := svc.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		if faults.n.Load() == 0 {
			t.Fatal("no faults injected — the chaos tested nothing")
		}
	}()
	http.DefaultClient.CloseIdleConnections()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked through the chaos run: %d -> %d", before, runtime.NumGoroutine())
}
