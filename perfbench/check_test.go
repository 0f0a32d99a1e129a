package main

import (
	"testing"

	"hyqsat/internal/cnf"
	"hyqsat/internal/gen"
	"hyqsat/internal/sat"
	"hyqsat/internal/serve"
	"hyqsat/internal/verify"
)

// TestCheckerCountsCorruptedOutputs feeds the checker a flipped model and a
// truncated proof next to their intact originals, and requires exactly the
// two corrupted outputs to count as failed (and wrong) operations.
func TestCheckerCountsCorruptedOutputs(t *testing.T) {
	satInst := newInstance(gen.SatisfiableRandom3SAT(50, ratioClauses(50), 5))
	unsatInst := newInstance(gen.UnsatisfiableRandom3SAT(50, ratioClauses(50), 5))

	r := sat.New(satInst.formula.Copy(), sat.MiniSATOptions()).Solve()
	if r.Status != sat.Sat {
		t.Fatalf("SAT instance solved as %v", r.Status)
	}
	model := r.Model
	// Flip every literal of the first clause that the model makes true, so
	// the flipped model falsifies that clause.
	flipped := append([]bool(nil), model...)
	for _, l := range satInst.formula.Clauses[0] {
		if model[l.Var()] != l.IsNeg() {
			flipped[l.Var()] = !flipped[l.Var()]
		}
	}

	s := sat.New(unsatInst.formula.Copy(), sat.MiniSATOptions())
	rec := verify.NewRecorder()
	s.SetProofWriter(rec)
	if st := s.Solve().Status; st != sat.Unsat {
		t.Fatalf("UNSAT instance solved as %v", st)
	}
	proof := rec.Proof()
	truncated := proof[:len(proof)/2]

	var tl tally
	tl.add("model", checkModel(satInst, model))
	tl.add("flipped model", checkModel(satInst, flipped))
	tl.add("proof", checkProof(unsatInst.formula, proof))
	tl.add("truncated proof", checkProof(unsatInst.formula, truncated))
	if tl.attempted != 4 || tl.failed != 2 || tl.wrong != 2 {
		t.Fatalf("tally %+v: want 4 attempted, 2 failed, 2 wrong", tl)
	}
	if got := tl.failedFrac(); got != 0.5 {
		t.Errorf("failed_frac = %v, want 0.5", got)
	}
}

// TestCheckJob pins the client-side re-check of serve results.
func TestCheckJob(t *testing.T) {
	inst := newInstance(gen.SatisfiableRandom3SAT(16, ratioClauses(16), 2))
	r := sat.New(inst.formula.Copy(), sat.MiniSATOptions()).Solve()
	lits := make([]int, inst.formula.NumVars)
	for i := range lits {
		lits[i] = cnf.MkLit(cnf.Var(i), !r.Model[i]).Dimacs()
	}
	done := serve.JobView{ID: "j-1", State: serve.StateDone, Verdict: "sat", Certified: true, Model: lits}
	if err := checkJob(inst, done); err != nil {
		t.Fatalf("intact job: %v", err)
	}

	bad := done
	bad.Model = append([]int(nil), lits...)
	for _, l := range inst.formula.Clauses[0] {
		v := int(l.Var())
		if r.Model[v] != l.IsNeg() {
			bad.Model[v] = -bad.Model[v]
		}
	}
	uncertified := done
	uncertified.Certified = false
	contradicting := done
	contradicting.Verdict, contradicting.Model = "unsat", nil
	refusedState := serve.JobView{ID: "j-2", State: serve.StateFailed, Error: "inconclusive"}

	var tl tally
	tl.add("flipped", checkJob(inst, bad))
	tl.add("uncertified", checkJob(inst, uncertified))
	tl.add("contradicting", checkJob(inst, contradicting))
	tl.add("failed", checkJob(inst, refusedState))
	if tl.failed != 4 || tl.wrong != 3 {
		t.Fatalf("tally %+v: want 4 failed, 3 of them wrong", tl)
	}
}
