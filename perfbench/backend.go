package main

import (
	"context"
	"sync/atomic"
	"time"

	"hyqsat/internal/anneal"
	"hyqsat/internal/qpu"
)

// backendClock accumulates the wall time a solver spends inside its QPU
// access path: the emulated sampler's host CPU on the batch workloads
// (qa_host), the batching window plus sampling on serve.
type backendClock struct {
	calls atomic.Int64 // successful submissions
	ns    atomic.Int64 // wall time inside Submit/SubmitCosted
}

func (c *backendClock) record(start time.Time, err error) {
	c.ns.Add(int64(time.Since(start)))
	if err == nil {
		c.calls.Add(1)
	}
}

// wrap is an Options.WrapBackend decorator timing every access. A costed
// backend (the qbatch scheduler) stays costed behind the decorator: the
// solver charges a CostedBackend its pro-rata device share and a plain one
// the full solo access time, so hiding SubmitCosted would change the
// modelled device time the benchmark reports.
func (c *backendClock) wrap(b qpu.Backend) qpu.Backend {
	t := &timedBackend{inner: b, clock: c}
	if cb, ok := b.(qpu.CostedBackend); ok {
		return &timedCostedBackend{timedBackend: t, costed: cb}
	}
	return t
}

type timedBackend struct {
	inner qpu.Backend
	clock *backendClock
}

func (t *timedBackend) Name() string { return t.inner.Name() }

func (t *timedBackend) Submit(ctx context.Context, ep *anneal.EmbeddedProblem, reads int) (anneal.ReadSet, error) {
	start := time.Now()
	rs, err := t.inner.Submit(ctx, ep, reads)
	t.clock.record(start, err)
	return rs, err
}

type timedCostedBackend struct {
	*timedBackend
	costed qpu.CostedBackend
}

func (t *timedCostedBackend) SubmitCosted(ctx context.Context, ep *anneal.EmbeddedProblem, reads int) (anneal.ReadSet, time.Duration, error) {
	start := time.Now()
	rs, cost, err := t.costed.SubmitCosted(ctx, ep, reads)
	t.clock.record(start, err)
	return rs, cost, err
}
