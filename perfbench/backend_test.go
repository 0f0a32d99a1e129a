package main

import (
	"context"
	"reflect"
	"testing"
	"time"

	"hyqsat/internal/anneal"
	"hyqsat/internal/gen"
	"hyqsat/internal/hyqsat"
	"hyqsat/internal/qpu"
)

// halfCostBackend is a costed backend charging half the solo access time,
// so a decorator that hides SubmitCosted changes the solver's QADevice.
type halfCostBackend struct {
	qpu.Backend
	timing anneal.TimingModel
}

func (h halfCostBackend) SubmitCosted(ctx context.Context, ep *anneal.EmbeddedProblem, reads int) (anneal.ReadSet, time.Duration, error) {
	rs, err := h.Submit(ctx, ep, reads)
	return rs, h.timing.AccessTime(len(rs.Samples)) / 2, err
}

// TestTimedBackendKeepsSolveIdentical pins that the timing decorator is
// invisible to the solver: at the same seed a decorated and an undecorated
// solve agree on verdict, model, QA calls, device time and strategy counts,
// for the solver's own plain backend and for a costed one.
func TestTimedBackendKeepsSolveIdentical(t *testing.T) {
	instances := []*gen.Instance{
		gen.SatisfiableRandom3SAT(40, ratioClauses(40), 3),
		gen.UnsatisfiableRandom3SAT(40, ratioClauses(40), 3),
	}
	type outcome struct {
		Status         any
		Model          []bool
		QACalls        int
		QADevice       time.Duration
		S1, S2, S3, S4 int
	}
	for _, costed := range []bool{false, true} {
		for _, in := range instances {
			solve := func(decorate bool) (outcome, *backendClock) {
				opts := hyqsat.HardwareOptions()
				opts.Seed = 42
				if costed {
					opts.Backend = halfCostBackend{
						Backend: qpu.NewLocal(anneal.NewSampler(opts.Schedule, opts.Noise, 7)),
						timing:  opts.Timing,
					}
				}
				var clock backendClock
				if decorate {
					opts.WrapBackend = clock.wrap
				}
				r := hyqsat.New(in.Formula.Copy(), opts).Solve()
				st := r.Stats
				return outcome{r.Status, r.Model, st.QACalls, st.QADevice,
					st.Strategy1Hits, st.Strategy2Hits, st.Strategy3Hits, st.Strategy4Hits}, &clock
			}
			plain, _ := solve(false)
			timed, clock := solve(true)
			if !reflect.DeepEqual(plain, timed) {
				t.Fatalf("%s (costed=%v): decorated solve differs:\nplain %+v\ntimed %+v", in.Name, costed, plain, timed)
			}
			if plain.QACalls == 0 {
				t.Fatalf("%s: no QA calls; the test needs a solve that reaches the QPU", in.Name)
			}
			if got := clock.calls.Load(); got != int64(plain.QACalls) {
				t.Errorf("%s: decorator timed %d calls, solver made %d", in.Name, got, plain.QACalls)
			}
			if clock.ns.Load() <= 0 {
				t.Errorf("%s: decorator measured no time", in.Name)
			}
			if costed {
				want := time.Duration(plain.QACalls) * hyqsat.HardwareOptions().Timing.AccessTime(1) / 2
				if plain.QADevice != want {
					t.Errorf("%s: QADevice %v, want the costed half share %v", in.Name, plain.QADevice, want)
				}
			}
		}
	}
}
