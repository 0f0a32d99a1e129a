// Package qpu models the quantum annealer as what it is in the paper's real
// deployment: a remote, failable service. The hybrid solver reaches a D-Wave
// 2000Q over the internet — job submission, queueing, calibration drift and
// readout faults are part of the operating envelope — so the QA access path
// is a Backend interface rather than an in-process function call.
//
// Three implementations compose into the production stack:
//
//   - Local wraps the in-process anneal.Sampler (the emulated device).
//   - FaultInjector is a deterministic, seeded decorator producing timeouts,
//     transient errors, slow responses, truncated/corrupted read sets,
//     stale-calibration drift and full outages per a configurable Profile.
//   - Resilient is the reliability decorator: context-deadline propagation,
//     per-call timeout budgets, retry with exponential backoff and
//     deterministic jitter, a closed/open/half-open circuit breaker, panic
//     recovery around the sweep kernel, and read-set shape validation.
//
// The hybrid loop degrades gracefully when a Submit fails: the iteration
// falls back to pure CDCL and the solve keeps going, so arbitrary QA
// misbehaviour costs guidance, never correctness.
package qpu

import (
	"context"
	"errors"
	"time"

	"hyqsat/internal/anneal"
)

// Request headers of the hyqsatd job API (internal/serve): the tenant its
// quotas charge, the client's idempotency key, and the milliseconds of
// client deadline remaining.
const (
	HeaderIdempotency = "Idempotency-Key"
	HeaderTenant      = "X-Hyqsat-Tenant"
	HeaderDeadlineMs  = "X-Hyqsat-Deadline-Ms"
)

// Backend is a QPU access point: it programs an embedded problem and draws
// reads samples from it. Submit honours ctx cancellation and deadlines at
// submission boundaries (a started anneal, like a real device access, cannot
// be recalled mid-flight). Implementations must be safe for concurrent use
// when the wrapped sampler is.
type Backend interface {
	Submit(ctx context.Context, ep *anneal.EmbeddedProblem, reads int) (anneal.ReadSet, error)
	// Name identifies the backend in events and metrics.
	Name() string
}

// CostedBackend is a Backend that also reports the modelled device time the
// caller should be charged for the access. A batching backend (qbatch) serves
// several co-tiled requests from one device program and charges each member
// its pro-rata share of the single program's access time — strictly less
// than the solo AccessTime the caller would otherwise assume. Consumers that
// account device time (the hybrid solver's qa_device_ns, the daemon's tenant
// quotas) should type-assert to CostedBackend and prefer SubmitCosted so
// batched accesses are not double-counted.
type CostedBackend interface {
	Backend
	SubmitCosted(ctx context.Context, ep *anneal.EmbeddedProblem, reads int) (anneal.ReadSet, time.Duration, error)
}

// ErrBreakerOpen is returned by Resilient.Submit without touching the inner
// backend while the circuit breaker is open (or a half-open probe is already
// in flight).
var ErrBreakerOpen = errors.New("qpu: circuit breaker open")

// Permanent reports whether err is a permanent backend failure — one that
// retries, backoff, or a breaker cooldown cannot fix (quota budget exhausted,
// authorization rejected, payload refused by policy). An error opts in by
// implementing Permanent() bool. Callers use it to stop submitting rather
// than to keep paying for rejections: the Resilient wrapper aborts its retry
// loop, and the hybrid loop disables QA for the remainder of the solve.
func Permanent(err error) bool {
	var p interface{ Permanent() bool }
	return errors.As(err, &p) && p.Permanent()
}

// FaultError is a failure reported by (or injected into) the QPU backend;
// Fault is a stable tag naming the failure mode ("timeout", "transient",
// "outage", "panic").
type FaultError struct{ Fault string }

func (e *FaultError) Error() string { return "qpu: backend fault: " + e.Fault }

// Local is the in-process backend: it submits directly to the emulated
// annealer. It checks the context at the submission boundary only — the
// sweep kernel itself is uninterruptible, exactly like a programmed anneal
// on the real device.
type Local struct{ Sampler *anneal.Sampler }

// NewLocal wraps an anneal.Sampler as a Backend.
func NewLocal(s *anneal.Sampler) *Local { return &Local{Sampler: s} }

// Name implements Backend.
func (l *Local) Name() string { return "local" }

// Submit implements Backend.
func (l *Local) Submit(ctx context.Context, ep *anneal.EmbeddedProblem, reads int) (anneal.ReadSet, error) {
	if err := ctx.Err(); err != nil {
		return anneal.ReadSet{}, err
	}
	return l.Sampler.Sample(ep, reads), nil
}
