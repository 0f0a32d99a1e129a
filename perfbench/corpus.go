package main

import (
	"math"

	"hyqsat/internal/cnf"
	"hyqsat/internal/gen"
)

// Every corpus is a pure function of the run seed. Its composition (sizes,
// SAT/UNSAT split, families) is fixed, and only the instances drawn vary
// with the seed, so runs at different seeds measure the same mix.

func newInstance(in *gen.Instance) *instance {
	return &instance{
		name:     in.Name,
		dimacs:   cnf.DIMACSString(in.Formula),
		formula:  in.Formula,
		expected: in.Expected,
	}
}

// ratioClauses is the clause count of a phase-transition random 3-SAT
// instance (m/n ≈ 4.26) over n variables.
func ratioClauses(n int) int { return int(math.Round(4.26 * float64(n))) }

// randomPair draws one satisfiable and one unsatisfiable phase-transition
// instance over n variables.
func randomPair(n int, seed int64) []*instance {
	m := ratioClauses(n)
	return []*instance{
		newInstance(gen.SatisfiableRandom3SAT(n, m, seed)),
		newInstance(gen.UnsatisfiableRandom3SAT(n, m, seed)),
	}
}

// hybridCorpus is the corpus of both hybrid workloads: three SAT/UNSAT
// phase-transition pairs at n = 75, and one instance of each
// structured family of the paper's Table I: a ripple/carry-select adder
// miter (CRY, 8 bits, the family's smallest), block planning (BP, 4 blocks
// over 3 steps, the smallest), flat graph colouring (GC, flat50-115, the
// smallest SATLIB size) and circuit fault analysis (CFA, 20 inputs and 80
// gates). Each instance costs a hybrid solve of a few seconds at most, so a
// timed run holds whole passes over the corpus, and the random instances
// share one size so the median verdict time falls among them instead of
// jumping between sizes.
func hybridCorpus(seed int64) []*instance {
	var out []*instance
	for b := 0; b < 3; b++ {
		out = append(out, randomPair(75, seed*64+int64(b))...)
	}
	out = append(out,
		newInstance(gen.CmpAdd(8, seed)),
		newInstance(gen.BlockPlanning(4, 3, seed)),
		newInstance(gen.FlatGraphColoring(50, 115, seed)),
		newInstance(gen.CircuitFaultAnalysis(20, 80, seed)))
	return out
}

// classicalCorpus is the corpus of the CDCL baseline: phase-transition
// instances at n = 90 and 100, one satisfiable to two unsatisfiable. A
// satisfiable verdict costs a fraction of an unsatisfiable one (no DRAT
// check), so an even split would put the median verdict time in the gap
// between the two; at one to two it falls among the unsatisfiable ones.
// Hardness varies widely at the phase transition, so the corpus is large
// enough that its mean is much the same at every seed.
func classicalCorpus(seed int64) []*instance {
	const triples = 100
	var out []*instance
	for i := 0; i < triples; i++ {
		n := 90 + 10*(i%2)
		m := ratioClauses(n)
		s := seed*1024 + int64(i)
		out = append(out,
			newInstance(gen.SatisfiableRandom3SAT(n, m, s)),
			newInstance(gen.UnsatisfiableRandom3SAT(n, m, s)),
			newInstance(gen.UnsatisfiableRandom3SAT(n, m, s+1<<20)))
	}
	return out
}

// serveCorpus is the job mix of the serve workload: small SAT/UNSAT pairs
// at n = 12..20 variables.
func serveCorpus(seed int64) []*instance {
	const pairs = 144
	var out []*instance
	for i := 0; i < pairs; i++ {
		out = append(out, randomPair(12+i%9, seed*1024+int64(i))...)
	}
	return out
}

// warmupInstance is the small instance every set-up solves before timing,
// so the timed loop starts with warm code and heap. It and its solver seed
// are the same at every run seed, so that setup_s varies with the seed only
// through corpus generation.
func warmupInstance() *instance {
	return newInstance(gen.SatisfiableRandom3SAT(20, ratioClauses(20), 1))
}

// warmupSeed is the solver seed of the warm-up verdicts.
const warmupSeed = 1
