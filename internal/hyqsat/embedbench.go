package hyqsat

import (
	"math/rand"

	"hyqsat/internal/anneal"
	"hyqsat/internal/cnf"
	"hyqsat/internal/embed"
	"hyqsat/internal/qubo"
	"hyqsat/internal/topo"
)

// EmbedBench is the fixture behind `benchreport -suite embed`: one clause
// queue of var-disjoint 3-literal clauses, encoded once, for timing the cold
// Fast pipeline a cache miss runs on the D-Wave 2000Q Chimera.
type EmbedBench struct {
	chim *topo.Chimera
	enc  *qubo.Encoding
}

// NewEmbedBench prepares the fixture for a queue of nClauses clauses.
func NewEmbedBench(nClauses int) (*EmbedBench, error) {
	rng := rand.New(rand.NewSource(42))
	queue := make([]cnf.Clause, nClauses)
	for i := range queue {
		c := make(cnf.Clause, 3)
		for j := range c {
			c[j] = cnf.MkLit(cnf.Var(3*i+j), rng.Intn(2) == 1)
		}
		queue[i] = c
	}
	enc, err := qubo.Encode(queue)
	if err != nil {
		return nil, err
	}
	return &EmbedBench{chim: topo.DWave2000Q(), enc: enc}, nil
}

// ColdFast runs the miss pipeline once (embedding search included) and
// returns the number of embedded clauses.
func (e *EmbedBench) ColdFast() int {
	fastRes := embed.Fast(e.enc, e.chim)
	if fastRes.EmbeddedClauses == 0 {
		panic("embedbench: Fast embedded nothing")
	}
	embEnc := e.enc.Restrict(fastRes.EmbeddedSet)
	embEnc.AdjustCoefficients()
	norm, _ := embEnc.Poly.Normalized()
	ising := norm.ToIsing()
	anneal.EmbedIsing(ising, fastRes.Embedding, e.chim,
		anneal.ChainStrengthFor(ising))
	return fastRes.EmbeddedClauses
}
