package hyqsat

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"testing"

	"hyqsat/internal/anneal"
	"hyqsat/internal/cnf"
	"hyqsat/internal/embed"
	"hyqsat/internal/gen"
	"hyqsat/internal/sat"
	"hyqsat/internal/topo"
)

// frontendQueues returns the clause queues GenerateQueue builds on the
// first steps CDCL steps of a seeded sat.Solver over the 3-CNF form of f.
func frontendQueues(f *cnf.Formula, o Options, steps int, seed int64) [][]cnf.Clause {
	f3, _ := cnf.To3CNF(f)
	adj := cnf.VarAdjacency(f3)
	cdcl := sat.MiniSATOptions()
	cdcl.Seed = seed
	s := sat.New(f3, cdcl)
	rng := rand.New(rand.NewSource(seed))
	var out [][]cnf.Clause
	for p := 0; p < steps; p++ {
		cand := s.UnsatisfiedClauses()
		if len(cand) == 0 {
			break
		}
		idx := GenerateQueue(f3, adj, s.ClauseScores(), cand, o.TopN, o.QueueLimit, rng)
		queue := make([]cnf.Clause, len(idx))
		for i, ci := range idx {
			queue[i] = f3.Clauses[ci]
		}
		out = append(out, queue)
		if s.Step() != sat.StepContinue {
			break
		}
	}
	return out
}

// frontendFingerprint hashes everything one frontend pass hands the
// annealer: the embedded clause set, every chain, the active qubits, the
// per-qubit fields, and the energies and node values of one fixed-seed
// 4-read sample (which also covers the couplers and, through the
// programming-noise model, the pair ids).
func frontendFingerprint(h hash.Hash64, res *embed.FastResult, ep *anneal.EmbeddedProblem, o Options) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(res.EmbeddedSet)))
	for _, k := range res.EmbeddedSet {
		put(uint64(k))
	}
	if ep == nil {
		return
	}
	nodes := make([]int, 0, len(res.Embedding.Chains))
	for n := range res.Embedding.Chains {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	for _, n := range nodes {
		put(uint64(n))
		put(uint64(len(res.Embedding.Chains[n])))
		for _, q := range res.Embedding.Chains[n] {
			put(uint64(q))
		}
	}
	put(uint64(len(ep.Qubits)))
	for _, q := range ep.Qubits {
		put(uint64(q))
	}
	for _, v := range ep.H {
		put(math.Float64bits(v))
	}
	sampler := anneal.NewSampler(o.Schedule, o.Noise, 5)
	sampler.Workers = 2
	rs := sampler.Sample(ep, 4)
	for _, s := range rs.Samples {
		put(math.Float64bits(s.HardwareEnergy))
		put(uint64(s.BrokenChains))
		for _, n := range nodes {
			if s.NodeValues[n] {
				put(1)
			} else {
				put(0)
			}
		}
	}
}

// frontendGoldenTable was recorded before the frontend's sort-free,
// map-light rewrite. A mismatch is a behaviour change of the encoder, the
// embedder or the programming step, not a row to regenerate.
var frontendGoldenTable = map[string]uint64{
	"uf75-325/s1000003":  0x612bd07ba32327c7,
	"uf150-645/s2000008": 0x59af1c696c91eff7,
	"bw-4b-3h/s1":        0xaf139c69f2ee1cfc,
	"flat50-115/s1":      0xb52c4d20dc233106,
}

func frontendGoldenInstances() []*gen.Instance {
	return []*gen.Instance{
		gen.SatisfiableRandom3SAT(75, 325, 1),
		gen.SatisfiableRandom3SAT(150, 645, 2),
		gen.BlockPlanning(4, 3, 1),
		gen.FlatGraphColoring(50, 115, 1),
	}
}

// TestFrontendGolden pins the frontend's output bit for bit on the queues of
// the first 20 CDCL steps of four generated instances, in the paper's
// hardware configuration.
func TestFrontendGolden(t *testing.T) {
	o := HardwareOptions()
	g := o.Hardware.(*topo.Chimera)
	for _, inst := range frontendGoldenInstances() {
		h := fnv.New64a()
		queues := frontendQueues(inst.Formula, o, 20, 11)
		for _, q := range queues {
			res, _, ep := frontendPass(q, g, o)
			if res == nil {
				t.Fatalf("%s: queue does not encode", inst.Name)
			}
			frontendFingerprint(h, res, ep, o)
		}
		got := h.Sum64()
		want, ok := frontendGoldenTable[inst.Name]
		if !ok {
			t.Errorf("no golden fingerprint for %s; got %#x", inst.Name, got)
			continue
		}
		if got != want {
			t.Errorf("%s: fingerprint %#x, want %#x", inst.Name, got, want)
		}
	}
}
