package main

import (
	"fmt"
	"math/rand"
	"time"

	"hyqsat/internal/anneal"
	"hyqsat/internal/cnf"
	"hyqsat/internal/embed"
	"hyqsat/internal/hyqsat"
	"hyqsat/internal/qubo"
	"hyqsat/internal/sat"
	"hyqsat/internal/topo"
)

// replayStats splits the hybrid frontend into its stages. The replay runs
// the frontend's public calls on every CDCL step of a plain sat.Solver over
// the 3-CNF form of a corpus instance, timing each stage per pass.
type replayStats struct {
	passes                              int
	queue, encode, fast, ising, program time.Duration
	queued, embedded                    int64
}

func (r *replayStats) total() time.Duration {
	return r.queue + r.encode + r.fast + r.ising + r.program
}

// replayFrontend runs up to passes frontend passes on inst, one per CDCL
// step, with the queue and embedding parameters of opts, stopping early at
// the deadline.
func replayFrontend(inst *instance, passes int, seed int64, opts hyqsat.Options, g *topo.Chimera, deadline time.Time, rs *replayStats) error {
	f3, _ := cnf.To3CNF(inst.formula)
	adj := cnf.VarAdjacency(f3)
	cdcl := sat.MiniSATOptions()
	cdcl.Seed = seed
	s := sat.New(f3, cdcl)
	rng := rand.New(rand.NewSource(seed))
	var queue []cnf.Clause
	for p := 0; p < passes && time.Now().Before(deadline); p++ {
		t0 := time.Now()
		cand := s.UnsatisfiedClauses()
		if len(cand) == 0 {
			return nil
		}
		idx := hyqsat.GenerateQueue(f3, adj, s.ClauseScores(), cand, opts.TopN, opts.QueueLimit, rng)
		t1 := time.Now()
		queue = queue[:0]
		for _, ci := range idx {
			queue = append(queue, f3.Clauses[ci])
		}
		enc, err := qubo.Encode(queue)
		if err != nil {
			return fmt.Errorf("replay encode: %w", err)
		}
		t2 := time.Now()
		res := embed.Fast(enc, g)
		t3 := time.Now()
		t4, t5 := t3, t3
		if res.EmbeddedClauses > 0 {
			emb := enc.Restrict(res.EmbeddedSet)
			if opts.AdjustCoefficients {
				emb.AdjustCoefficients()
			}
			norm, _ := emb.Poly.Normalized()
			ising := norm.ToIsing()
			t4 = time.Now()
			anneal.EmbedIsing(ising, res.Embedding, g, opts.ChainStrengthMult*anneal.ChainStrengthFor(ising))
			t5 = time.Now()
		}
		rs.passes++
		rs.queue += t1.Sub(t0)
		rs.encode += t2.Sub(t1)
		rs.fast += t3.Sub(t2)
		rs.ising += t4.Sub(t3)
		rs.program += t5.Sub(t4)
		rs.queued += int64(len(queue))
		rs.embedded += int64(res.EmbeddedClauses)
		if s.Step() != sat.StepContinue {
			return nil
		}
	}
	return nil
}
