package obs

import (
	"sync/atomic"
	"time"
)

// PhaseTracker times the pipeline phases of a solve (the Fig 11 breakdown)
// with monotonic spans and asserts their disjointness: at most one phase is
// active at a time, and any overlap (a Start while another span is open, or
// an End of a span that is no longer the active one) is counted in the
// <prefix>phase_overlaps counter instead of silently double-counting time.
// The per-phase totals feed the <prefix>phase_<name>_ns counters and a
// latency histogram per phase, and every span is emitted as a PhaseSpan
// event when tracing is enabled.
type PhaseTracker struct {
	start    time.Time
	names    []string
	totals   []*Counter
	hists    []*Histogram
	overlaps *Counter
	active   atomic.Int32 // index of the open phase, or -1
	trace    Tracer
}

// phaseLatencyBuckets spans 1 µs … ~1 s in ×4 steps, in nanoseconds.
var phaseLatencyBuckets = ExpBuckets(1e3, 4, 10)

// NewPhaseTracker registers per-phase metrics under prefix (e.g. "hyqsat_")
// in reg and returns a tracker for the named phases. trace may be nil.
func NewPhaseTracker(reg *Registry, trace Tracer, prefix string, names ...string) *PhaseTracker {
	t := &PhaseTracker{
		start:    time.Now(),
		names:    names,
		totals:   make([]*Counter, len(names)),
		hists:    make([]*Histogram, len(names)),
		overlaps: reg.Counter(prefix + "phase_overlaps"),
		trace:    trace,
	}
	for i, name := range names {
		t.totals[i] = reg.Counter(prefix + "phase_" + name + "_ns")
		t.hists[i] = reg.Histogram(prefix+"phase_"+name+"_latency_ns", phaseLatencyBuckets)
	}
	t.active.Store(-1)
	return t
}

// Span is one open phase span; close it with End. The zero Span is a no-op.
type Span struct {
	t  *PhaseTracker
	ph int32
	t0 time.Duration
}

// Start opens a span for phase ph (an index into the tracker's names).
// Starting while another span is open counts an overlap violation.
func (t *PhaseTracker) Start(ph int) Span {
	if !t.active.CompareAndSwap(-1, int32(ph)) {
		t.overlaps.Inc()
	}
	return Span{t: t, ph: int32(ph), t0: time.Since(t.start)}
}

// End closes the span: the elapsed time is added to the phase total and
// latency histogram, and a PhaseSpan event is emitted when tracing is
// enabled. Ending a span that is not the active one counts an overlap.
func (s Span) End() {
	if s.t == nil {
		return
	}
	t := s.t
	end := time.Since(t.start)
	d := end - s.t0
	if d < 0 {
		d = 0
	}
	t.totals[s.ph].Add(int64(d))
	t.hists[s.ph].Observe(float64(d))
	if !t.active.CompareAndSwap(s.ph, -1) {
		t.overlaps.Inc()
	}
	if t.trace != nil && t.trace.Enabled() {
		t.trace.Emit(PhaseSpan{Phase: t.names[s.ph], StartNs: s.t0.Nanoseconds(), EndNs: end.Nanoseconds()})
	}
}

// Total returns the accumulated time of phase ph.
func (t *PhaseTracker) Total(ph int) time.Duration {
	return time.Duration(t.totals[ph].Value())
}
