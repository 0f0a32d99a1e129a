package main

import (
	"fmt"
	"time"

	"hyqsat/internal/cnf"
	"hyqsat/internal/hyqsat"
	"hyqsat/internal/sat"
	"hyqsat/internal/verify"
)

// verdictFunc produces and certifies one verdict: parse the DIMACS text,
// solve, check. It returns the wall time from parse to certified verdict.
// A non-nil ledger makes it a traced verdict whose layer times and counters
// are charged to the ledger.
type verdictFunc func(inst *instance, seed int64, led *ledger) (time.Duration, error)

// hybridVerdict solves through hyqsat.New/Solve with the given options. The
// solver records its DRAT proof so an UNSAT verdict is checked against the
// 3-CNF premise it refutes; a SAT model is checked against the input.
func hybridVerdict(base hyqsat.Options) verdictFunc {
	return func(inst *instance, seed int64, led *ledger) (time.Duration, error) {
		start := time.Now()
		f, err := cnf.ParseDIMACSString(inst.dimacs)
		if err != nil {
			return time.Since(start), fmt.Errorf("parse: %w", err)
		}
		parsed := time.Now()
		opts := base
		opts.Seed = seed
		var col *collector
		var clock backendClock
		if led != nil {
			col = newCollector()
			opts.Trace = col
			opts.WrapBackend = clock.wrap
		}
		s := hyqsat.New(f, opts)
		rec := verify.NewRecorder()
		s.SetProofWriter(rec)
		built := time.Now()
		r := s.Solve()
		solved := time.Now()
		err = checkExpected(inst, r.Status)
		if err == nil {
			switch r.Status {
			case sat.Sat:
				err = checkModel(inst, r.Model)
			case sat.Unsat:
				err = checkProof(s.ThreeCNF(), rec.Proof())
			}
		}
		end := time.Now()
		if led == nil {
			return end.Sub(start), err
		}

		led.verdicts++
		led.wall += end.Sub(start)
		led.parse += parsed.Sub(start)
		led.newSolver += built.Sub(parsed)
		led.addEvents(col.snapshot())
		led.qaHost += time.Duration(clock.ns.Load())
		led.chargeCertify(r.Status, solved, end, rec.Len())
		st := r.Stats
		led.warmup += int64(st.WarmupIterations)
		led.qaCalls += int64(st.QACalls)
		led.reads += st.QAReads
		led.degraded += st.QADegraded
		led.cacheHits += int64(st.EmbedCacheHits)
		led.cacheMisses += int64(st.EmbedCacheMisses)
		led.deviceNs += st.QADevice.Nanoseconds()
		led.conflicts += st.SAT.Conflicts
		led.propagations += st.SAT.Propagations
		led.probeTo3CNF(f)
		return end.Sub(start), err
	}
}

// classicalVerdict is the paper's MiniSAT baseline as the CLI runs it:
// sat.New on the parsed formula with MiniSAT options, recording DRAT.
func classicalVerdict(inst *instance, seed int64, led *ledger) (time.Duration, error) {
	start := time.Now()
	f, err := cnf.ParseDIMACSString(inst.dimacs)
	if err != nil {
		return time.Since(start), fmt.Errorf("parse: %w", err)
	}
	parsed := time.Now()
	opts := sat.MiniSATOptions()
	opts.Seed = seed
	s := sat.New(f, opts)
	rec := verify.NewRecorder()
	s.SetProofWriter(rec)
	if led != nil {
		// The CDCL core's conflict and restart events are all a plain CDCL
		// solve traces; they count only toward the tracing overhead.
		s.SetTracer(newCollector())
	}
	r := s.Solve()
	solved := time.Now()
	err = checkExpected(inst, r.Status)
	if err == nil {
		switch r.Status {
		case sat.Sat:
			err = checkModel(inst, r.Model)
		case sat.Unsat:
			err = checkProof(f, rec.Proof())
		}
	}
	end := time.Now()
	if led == nil {
		return end.Sub(start), err
	}

	led.verdicts++
	led.wall += end.Sub(start)
	led.parse += parsed.Sub(start)
	led.satSolve += solved.Sub(parsed)
	led.chargeCertify(r.Status, solved, end, rec.Len())
	led.conflicts += r.Stats.Conflicts
	led.propagations += r.Stats.Propagations
	led.probeTo3CNF(f)
	return end.Sub(start), err
}

// chargeCertify books the check that ran between solved and end.
func (l *ledger) chargeCertify(status sat.Status, solved, end time.Time, proofSteps int) {
	switch status {
	case sat.Sat:
		l.satVerdicts++
		l.modelCheck += end.Sub(solved)
	case sat.Unsat:
		l.unsatVerdicts++
		l.dratCheck += end.Sub(solved)
		l.proofSteps += int64(proofSteps)
	}
}

// probeTo3CNF times the 3-CNF conversion of f by a separate call after the
// verdict: on the hybrid path the same conversion runs inside hyqsat.New.
func (l *ledger) probeTo3CNF(f *cnf.Formula) {
	start := time.Now()
	cnf.To3CNF(f)
	l.to3cnf += time.Since(start)
}
