package main

import (
	"sync"
	"time"

	"hyqsat/internal/obs"
)

// collector is the in-memory tracer of the traced runs. It folds the
// program's own events into per-layer totals as they arrive (phase spans,
// chain breaks of QA reads, feedback strategies, embed outcomes,
// degradations) and keeps only the instants of each job's lifecycle events,
// so a traced run holds no event log.
type collector struct {
	mu sync.Mutex
	events
	jobs map[string]*jobTimes
}

// jobTimes are the instants the service emitted a job's lifecycle events.
type jobTimes struct{ accepted, started, ended time.Time }

// events are the totals the collector folds the event stream into.
type events struct {
	phaseNs                map[string]int64
	chains, brokenChains   int64
	strategies             [5]int64 // index = strategy number, 0 = masked
	embeds, embedCacheHits int64
	degraded               int64
}

func newCollector() *collector {
	return &collector{events: events{phaseNs: map[string]int64{}}, jobs: map[string]*jobTimes{}}
}

func (c *collector) Enabled() bool { return true }

func (c *collector) Emit(e obs.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch e := e.(type) {
	case obs.PhaseSpan:
		c.phaseNs[e.Phase] += e.Duration()
	case obs.QACallEvent:
		for _, b := range e.BrokenChains {
			c.chains += int64(e.Chains)
			c.brokenChains += int64(b)
		}
	case obs.StrategyHitEvent:
		if e.Strategy >= 0 && e.Strategy < len(c.strategies) {
			c.strategies[e.Strategy]++
		}
	case obs.EmbedEvent:
		c.embeds++
		if e.CacheHit {
			c.embedCacheHits++
		}
	case obs.DegradeEvent:
		c.degraded++
	case obs.JobEvent:
		if e.Job == "" {
			return // a refusal before the job got an id
		}
		jt := c.jobs[e.Job]
		if jt == nil {
			jt = &jobTimes{}
			c.jobs[e.Job] = jt
		}
		switch e.State {
		case "accepted":
			jt.accepted = time.Now()
		case "started":
			jt.started = time.Now()
		default:
			jt.ended = time.Now()
		}
	}
}

// job returns the event instants recorded for a job so far.
func (c *collector) job(id string) jobTimes {
	c.mu.Lock()
	defer c.mu.Unlock()
	if jt := c.jobs[id]; jt != nil {
		return *jt
	}
	return jobTimes{}
}

// snapshot returns a copy of the totals so far.
func (c *collector) snapshot() events {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.events
	s.phaseNs = make(map[string]int64, len(c.phaseNs))
	for k, v := range c.phaseNs {
		s.phaseNs[k] = v
	}
	return s
}

// sub removes the totals of an earlier snapshot.
func (e *events) sub(o events) {
	for k, v := range o.phaseNs {
		e.phaseNs[k] -= v
	}
	e.chains -= o.chains
	e.brokenChains -= o.brokenChains
	for i := range e.strategies {
		e.strategies[i] -= o.strategies[i]
	}
	e.embeds -= o.embeds
	e.embedCacheHits -= o.embedCacheHits
	e.degraded -= o.degraded
}

// ledger accumulates, over the verdicts of a traced run, the time charged
// to each layer and the layer counters. Durations are totals; the metrics
// divide them by the number of verdicts they cover.
type ledger struct {
	verdicts, satVerdicts, unsatVerdicts int
	wall                                 time.Duration // Σ per-verdict wall time

	parse, to3cnf, newSolver time.Duration
	frontend, backend, cdcl  time.Duration
	qaHost                   time.Duration
	satSolve                 time.Duration
	modelCheck, dratCheck    time.Duration

	warmup, qaCalls, reads, degraded int64
	cacheHits, cacheMisses           int64
	strategies                       [5]int64
	chains, brokenChains             int64
	deviceNs                         int64
	conflicts, propagations          int64
	proofSteps                       int64

	// serve: the split of a job's client latency, the scheduler's share of
	// it, the service's counter deltas, and the job latency percentiles of
	// the traced loop.
	submit, queueWait, run, respond time.Duration
	batchSubmit                     time.Duration
	batchCalls                      int64
	service                         serviceCounters
	jobP50, jobP99                  float64
}

// addJob books one finished job. The service's job events split the
// client's latency into admission (send to accepted), queue wait (accepted
// to started), run (started to finished) and respond (finished to the
// client reading the result). The run time is the wall the ledger
// attributes to the solver's layers.
func (l *ledger) addJob(r jobRecord, jt jobTimes) {
	admitted := jt.accepted
	if admitted.IsZero() || jt.started.Before(admitted) {
		// A worker can start the job before Submit emits its accepted event.
		admitted = jt.started
	}
	ended := jt.ended
	if ended.IsZero() || r.end.Before(ended) {
		// The finished event is emitted just after the job view turns done.
		ended = r.end
	}
	l.verdicts++
	l.wall += ended.Sub(jt.started)
	l.submit += admitted.Sub(r.start)
	l.queueWait += jt.started.Sub(admitted)
	l.run += ended.Sub(jt.started)
	l.respond += r.end.Sub(ended)
}

// addEvents charges the traced events of one or more solves to the ledger.
func (l *ledger) addEvents(e events) {
	l.frontend += time.Duration(e.phaseNs["frontend"])
	l.backend += time.Duration(e.phaseNs["backend"])
	l.cdcl += time.Duration(e.phaseNs["cdcl"])
	l.chains += e.chains
	l.brokenChains += e.brokenChains
	for i, n := range e.strategies {
		l.strategies[i] += n
	}
}

// attributed is the sum of the layer times that partition a verdict's wall
// time; cnf.to3cnf is a sub-span of solver construction and not added.
func (l *ledger) attributed() time.Duration {
	return l.parse + l.newSolver + l.frontend + l.backend + l.cdcl + l.qaHost +
		l.batchSubmit + l.satSolve + l.modelCheck + l.dratCheck
}
