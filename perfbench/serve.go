package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"hyqsat/internal/hyqsat"
	"hyqsat/internal/obs"
	"hyqsat/internal/qpu"
	"hyqsat/internal/sat"
	"hyqsat/internal/serve"
)

// The serve workload runs an in-process hyqsatd service with the daemon's
// defaults behind its HTTP handler on a loopback listener. Closed-loop
// clients, each its own tenant, submit a job, poll it to completion, check
// the result, and submit the next.
const (
	serveClients = 2
	// pollInterval spaces the status polls of one client; it bounds how
	// late a client notices a finished job (serve.respond_ms).
	pollInterval = time.Millisecond
)

func tenantName(c int) string { return fmt.Sprintf("bench-%d", c) }

type serveState struct {
	corpus []*instance
	svc    *serve.Service
	reg    *obs.Registry
	srv    *http.Server
	served chan struct{} // closed when srv.Serve has returned
	base   string
	client *http.Client

	// Set on a traced service only.
	col   *collector
	clock *backendClock
}

// startService builds the service, its listener and client, and warms it
// up with one job per client.
func startService(corpus []*instance, traced bool) (*serveState, error) {
	st := &serveState{corpus: corpus, reg: obs.NewRegistry(), served: make(chan struct{})}
	cfg := serve.Config{Metrics: st.reg}
	if traced {
		st.col = newCollector()
		st.clock = &backendClock{}
		cfg.Trace = st.col
		cfg.Solve = serveSolveOptions()
		cfg.Solve.WrapBackend = st.clock.wrap
		cfg.HaveSolveDefaults = true
	}
	st.svc = serve.New(cfg)
	for c := 0; c < serveClients; c++ {
		// Jobs never wait on a quota: at most one job per client is in
		// flight and the device budget outlasts any run.
		st.svc.SetQuota(tenantName(c), serve.TenantQuota{
			MaxConcurrent: 4, DeviceBudget: time.Hour, DeviceRefill: time.Hour,
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		drain(st.svc)
		return nil, fmt.Errorf("listen: %w", err)
	}
	st.srv = &http.Server{Handler: st.svc.Handler()}
	go func() {
		defer close(st.served)
		_ = st.srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	st.base = "http://" + ln.Addr().String()
	st.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: serveClients},
		Timeout:   time.Minute,
	}
	warm := warmupInstance()
	for c := 0; c < serveClients; c++ {
		if _, err := st.runJob(c, warm, warmupSeed); err != nil {
			st.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return st, nil
}

// serveSolveOptions are the service's default solve options (the daemon's
// SimulatorOptions with SelfCertify), spelled out so a traced service can
// add its backend decorator.
func serveSolveOptions() hyqsat.Options {
	o := hyqsat.SimulatorOptions()
	o.SelfCertify = true
	return o
}

func drain(svc *serve.Service) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = svc.Drain(ctx) // every job has finished; drain only stops the workers
}

func (st *serveState) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = st.srv.Shutdown(ctx) // a timeout leaves nothing to recover here
	<-st.served
	drain(st.svc)
	st.client.CloseIdleConnections()
}

// jobRecord is the client's view of one finished job: its id, when the
// submit request was sent and when the client read the finished result.
type jobRecord struct {
	id         string
	start, end time.Time
}

// runJob submits inst as client c, polls it to completion and checks the
// result. A refusal (429, 503) or any other HTTP error is a failure; the
// clients do not retry.
func (st *serveState) runJob(c int, inst *instance, seed int64) (jobRecord, error) {
	body, err := json.Marshal(serve.SubmitRequest{CNF: inst.dimacs, Seed: seed})
	if err != nil {
		return jobRecord{}, err
	}
	start := time.Now()
	req, err := http.NewRequest(http.MethodPost, st.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return jobRecord{}, err
	}
	req.Header.Set(qpu.HeaderTenant, tenantName(c))
	var v serve.JobView
	if err := st.do(req, http.StatusAccepted, &v); err != nil {
		return jobRecord{}, fmt.Errorf("submit: %w", err)
	}
	for !finished(v.State) {
		time.Sleep(pollInterval)
		req, err := http.NewRequest(http.MethodGet, st.base+"/v1/jobs/"+v.ID, nil)
		if err != nil {
			return jobRecord{}, err
		}
		if err := st.do(req, http.StatusOK, &v); err != nil {
			return jobRecord{}, fmt.Errorf("poll: %w", err)
		}
	}
	return jobRecord{id: v.ID, start: start, end: time.Now()}, checkJob(inst, v)
}

func finished(state string) bool {
	return state == serve.StateDone || state == serve.StateFailed || state == serve.StateCheckpointed
}

// do sends req and decodes the JSON body, which must come with status want.
func (st *serveState) do(req *http.Request, want int, v *serve.JobView) error {
	resp, err := st.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

// loop runs the closed-loop clients until dur has passed. It returns one
// latency per attempted job (failedLatency for failures) and the wall time.
func (st *serveState) loop(seed int64, dur time.Duration, t *tally, led *ledger) ([]float64, time.Duration) {
	var (
		mu  sync.Mutex
		wg  sync.WaitGroup
		lat []float64
	)
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; time.Since(start) < dur; k++ {
				i := k*serveClients + c
				inst := st.corpus[i%len(st.corpus)]
				rec, err := st.runJob(c, inst, solverSeed(seed, i))
				mu.Lock()
				t.add(inst.name, err)
				if err != nil {
					lat = append(lat, failedLatency)
				} else {
					lat = append(lat, ms(rec.end.Sub(rec.start)))
					if led != nil {
						led.addJob(rec, st.col.job(rec.id))
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return lat, time.Since(start)
}

func runServe(seed int64, dur time.Duration, traced bool) (result, *tally, error) {
	st, setupS, err := setUp(func() (*serveState, error) {
		return startService(serveCorpus(seed), false)
	}, (*serveState).close)
	if err != nil {
		return result{}, nil, err
	}
	defer st.close()
	t := &tally{}
	if !traced {
		r0 := readResources()
		lat, wall := st.loop(seed, dur, t, nil)
		r1 := readResources()
		return t.result(endToEnd(t, lat, wall, r0, r1, setupS)), t, nil
	}

	// Traced run: a traced service runs the same clients for dur, and the
	// untraced one runs for a quarter of dur before and after it, so that
	// drift over the run cancels out of the tracing overhead.
	tr, err := startService(st.corpus, true)
	if err != nil {
		return result{}, nil, err
	}
	lat1, wall1 := st.loop(seed, dur/4, t, nil)
	led := &ledger{}
	before := tr.counters()
	base := tr.col.snapshot()
	calls0, ns0 := tr.clock.calls.Load(), tr.clock.ns.Load()
	jobLat, tracedWall := tr.loop(seed, dur, t, led)
	after := tr.counters()
	ev := tr.col.snapshot()
	calls1, ns1 := tr.clock.calls.Load(), tr.clock.ns.Load()
	tr.close()
	lat2, wall2 := st.loop(seed, dur/4, t, nil)
	plainPerJob := (wall1 + wall2).Seconds() / float64(len(lat1)+len(lat2))

	ev.sub(base)
	led.addEvents(ev)
	led.batchSubmit = time.Duration(ns1 - ns0)
	led.batchCalls = calls1 - calls0
	led.qaCalls = led.batchCalls
	led.degraded = ev.degraded
	led.warmup = ev.embeds
	led.cacheHits = ev.embedCacheHits
	led.cacheMisses = ev.embeds - ev.embedCacheHits
	led.service = after.minus(before)
	led.deviceNs = led.service.deviceNs
	led.jobP50 = quantile(jobLat, 0.5)
	led.jobP99 = quantile(jobLat, 0.99)
	led.newSolver = probeNew(st.corpus, seed) * time.Duration(led.verdicts)
	overhead := tracedWall.Seconds()/float64(len(jobLat))/plainPerJob - 1
	return t.result(layerMetrics(led, &replayStats{}, overhead)), t, nil
}

// serviceCounters are the service's qbatch and job counters at one instant.
type serviceCounters struct {
	programs, members, solo, deviceNs, savedNs, rejected int64
}

func (st *serveState) counters() serviceCounters {
	return serviceCounters{
		programs: st.reg.Counter("batch_programs").Value(),
		members:  st.reg.Counter("batch_members").Value(),
		solo:     st.reg.Counter("batch_solo").Value(),
		deviceNs: st.reg.Counter("batch_device_ns").Value(),
		savedNs:  st.reg.Counter("batch_device_saved_ns").Value(),
		rejected: st.reg.Counter("serve_jobs_rejected").Value(),
	}
}

func (b serviceCounters) minus(o serviceCounters) serviceCounters {
	return serviceCounters{b.programs - o.programs, b.members - o.members, b.solo - o.solo,
		b.deviceNs - o.deviceNs, b.savedNs - o.savedNs, b.rejected - o.rejected}
}

// probeNew is the mean time of hyqsat.New on the job corpus with the
// service's options and a recycled CDCL pool, as the service's workers
// build their solvers. The service does this inside a job's run time, where
// it cannot be timed from outside.
func probeNew(corpus []*instance, seed int64) time.Duration {
	opts := serveSolveOptions()
	opts.SatPool = sat.NewPool()
	var total time.Duration
	for i, inst := range corpus {
		f := inst.formula.Copy()
		opts.Seed = solverSeed(seed, i)
		start := time.Now()
		s := hyqsat.New(f, opts)
		total += time.Since(start)
		s.Release()
	}
	return total / time.Duration(len(corpus))
}
