package main

import (
	"errors"
	"fmt"

	"hyqsat/internal/cnf"
	"hyqsat/internal/sat"
	"hyqsat/internal/serve"
	"hyqsat/internal/verify"
)

// instance is one generated input: the DIMACS text the program receives,
// and the generator's own formula and expected status for the checker.
type instance struct {
	name     string
	dimacs   string
	formula  *cnf.Formula
	expected sat.Status
}

// wrongError marks an incorrect output (a verdict that contradicts the
// generator or fails its certificate), as opposed to a refusal or an
// inconclusive answer, which are failures but not wrong.
type wrongError struct{ msg string }

func (e *wrongError) Error() string { return e.msg }

func wrong(format string, args ...any) error {
	return &wrongError{fmt.Sprintf(format, args...)}
}

// tally counts attempted operations, failed ones, and the subset of
// failures that were wrong outputs.
type tally struct {
	attempted, failed, wrong int
	firstErr                 error
}

func (t *tally) add(name string, err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	var w *wrongError
	if errors.As(err, &w) {
		t.wrong++
	}
	if t.firstErr == nil {
		t.firstErr = fmt.Errorf("%s: %w", name, err)
	}
}

// result reports the tally with the run's metrics; the outputs are correct
// when none was wrong.
func (t *tally) result(metrics map[string]metric) result {
	return result{Correct: t.wrong == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
}

func (t *tally) failedFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// checkExpected compares a verdict with the generator's expected status.
func checkExpected(inst *instance, status sat.Status) error {
	switch {
	case status == sat.Unknown:
		return errors.New("inconclusive verdict")
	case inst.expected != sat.Unknown && status != inst.expected:
		return wrong("verdict %v, generator expects %v", status, inst.expected)
	}
	return nil
}

// checkModel certifies a SAT verdict against the original formula.
func checkModel(inst *instance, model []bool) error {
	if err := verify.CheckModel(inst.formula, model); err != nil {
		return wrong("model check: %v", err)
	}
	return nil
}

// checkProof certifies an UNSAT verdict: the DRAT proof must derive the
// empty clause from the premise the solver refuted (the 3-CNF form for the
// hybrid solver, the input itself for plain CDCL).
func checkProof(premise *cnf.Formula, proof verify.Proof) error {
	if err := verify.CheckUnsatProof(premise, proof); err != nil {
		return wrong("DRAT check: %v", err)
	}
	return nil
}

// checkJob re-checks a finished serve job on the client side: the job must
// be done and certified by the service, its verdict must match the
// generator, and a returned model must satisfy the original formula.
func checkJob(inst *instance, v serve.JobView) error {
	if v.State != serve.StateDone {
		return fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
	}
	status := sat.Unknown
	switch v.Verdict {
	case "sat":
		status = sat.Sat
	case "unsat":
		status = sat.Unsat
	}
	if err := checkExpected(inst, status); err != nil {
		return err
	}
	if !v.Certified {
		return wrong("job %s: verdict %s not certified", v.ID, v.Verdict)
	}
	if status != sat.Sat {
		return nil
	}
	model := make([]bool, inst.formula.NumVars)
	for _, lit := range v.Model {
		x := lit
		if x < 0 {
			x = -x
		}
		if x == 0 || x > len(model) {
			return wrong("model literal %d out of range", lit)
		}
		model[x-1] = lit > 0
	}
	if len(v.Model) != len(model) {
		return wrong("model has %d of %d variables", len(v.Model), len(model))
	}
	return checkModel(inst, model)
}
