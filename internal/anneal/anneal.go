// Package anneal is the quantum-annealer substitute of this reproduction:
// a simulated-annealing Ising sampler that executes on the *embedded*
// hardware graph, exactly as the paper's own noise-free simulator (built on
// D-Wave's neal sampler) does. Logical problems are mapped onto qubit chains
// (ferromagnetic intra-chain couplers, h and J split across chain qubits and
// inter-chain couplers), samples are drawn with Metropolis sweeps under a
// geometric β schedule, chains are read back by majority vote, and an
// optional noise model reproduces the error processes of real hardware:
// Gaussian programming error on coefficients, per-qubit readout flips, and
// truncated schedules that get trapped in local minima.
//
// Sampling is batched the way the real device is used: Sampler.Sample draws
// many reads from one programmed problem across a worker pool, with each
// read's RNG stream derived from (seed, call, read) so results are
// bit-identical regardless of worker count. The sweep kernel itself
// (SampleInto) runs allocation-free in steady state against the flattened,
// read-only structures EmbedIsing precomputes on EmbeddedProblem.
//
// Wall-clock device time is *modelled*, not measured: TimingModel charges
// the D-Wave 2000Q datasheet costs per sample, which is how the paper
// composes its end-to-end numbers too.
package anneal

import (
	"math"

	"hyqsat/internal/embed"
	"hyqsat/internal/qubo"
	"hyqsat/internal/topo"
)

// Noise configures the hardware error model.
type Noise struct {
	// CoefficientSigma is the standard deviation of the Gaussian programming
	// error applied to every h and J, relative to the largest coefficient
	// magnitude. D-Wave 2000Q integrated control errors are a few percent.
	CoefficientSigma float64
	// ReadoutFlipProb is the probability that a qubit's measured value is
	// flipped at readout.
	ReadoutFlipProb float64
}

// NoNoise is the noise-free simulator configuration.
var NoNoise = Noise{}

// DWave2000QNoise approximates the error magnitudes of the real device.
var DWave2000QNoise = Noise{CoefficientSigma: 0.03, ReadoutFlipProb: 0.01}

// Schedule is the annealing schedule: Sweeps full Metropolis passes with
// inverse temperature rising geometrically from BetaMin to BetaMax.
type Schedule struct {
	Sweeps  int
	BetaMin float64
	BetaMax float64
}

// DefaultSchedule mirrors the neal sampler defaults at a sweep count that
// behaves like a fast hardware anneal.
func DefaultSchedule() Schedule { return Schedule{Sweeps: 64, BetaMin: 0.1, BetaMax: 32} }

// LongSchedule is the "long timeout" schedule the paper uses for its
// noise-free simulator, converging far more reliably.
func LongSchedule() Schedule { return Schedule{Sweeps: 512, BetaMin: 0.05, BetaMax: 64} }

// EmbeddedProblem is a logical Ising model programmed onto hardware qubits
// through an embedding: per-qubit fields, per-coupler strengths, and the
// chain structure needed to read results back. After EmbedIsing returns,
// every field is read-only — one EmbeddedProblem may be sampled from many
// goroutines concurrently.
type EmbeddedProblem struct {
	Graph     topo.Topology
	Embedding *embed.Embedding

	Qubits []int     // the active qubits, in a fixed order
	H      []float64 // field per active qubit (indexed as Qubits)
	nodeOf []int     // active-qubit index → logical node
	offset float64   // constant term of the logical Ising model

	// Flattened structures precomputed once so the sweep kernel neither
	// allocates nor sorts: CSR adjacency with a symmetric-pair index for the
	// programming-noise model, chain lists in sorted-node order, and the
	// largest coefficient magnitude (the noise scale).
	adjStart   []int32   // CSR row offsets, len(Qubits)+1
	adjOther   []int32   // neighbour active-qubit index per entry
	adjJ       []float64 // coupler strength per entry
	adjPair    []int32   // unordered-pair id per entry (both directions share one)
	numPairs   int
	maxAbs     float64 // max |coefficient| over H and couplers
	chainNodes []int   // logical nodes, sorted
	chainIx    [][]int // chain qubit-index lists, aligned with chainNodes

	// Chain shape, precomputed for the QA-quality telemetry (chain length
	// drives annealer error, so break rates are bucketed by it).
	maxChainLen int // longest chain, in qubits
	chainQubits int // total qubits held in chains
}

// coupler is one programmed coupler between two active qubits, in the
// order EmbedIsing adds them.
type coupler struct {
	a, b int32 // active-qubit indices
	j    float64
}

// ChainStrengthFor returns a reasonable ferromagnetic chain coupling for a
// logical Ising model: 1.25× the largest coefficient magnitude, the usual
// rule of thumb for D-Wave embeddings. Isolated sampling slightly favours
// weaker chains (bench.AblationChainStrength: majority vote repairs breaks),
// but end-to-end hybrid guidance measures better with intact chains, so the
// conventional value stands; hyqsat.Options.ChainStrengthMult overrides it.
func ChainStrengthFor(is *qubo.Ising) float64 {
	max := 0.0
	for _, h := range is.H {
		if v := math.Abs(h); v > max {
			max = v
		}
	}
	for _, j := range is.J {
		if v := math.Abs(j); v > max {
			max = v
		}
	}
	if max == 0 {
		return 1
	}
	return 1.25 * max
}

// EmbedIsing programs a logical Ising model onto hardware through an
// embedding: each node's field is split across its chain, each logical
// coupling is split across the couplers available between the two chains,
// and chain qubits are bound with a ferromagnetic coupling of the given
// strength. Logical nodes must be present in the embedding; couplings whose
// endpoints both embedded must be realised by at least one coupler. Qubits
// are looked up through slices over the hardware's qubit count, which live
// only for the call.
func EmbedIsing(is *qubo.Ising, emb *embed.Embedding, g topo.Topology, chainStrength float64) *EmbeddedProblem {
	ep := &EmbeddedProblem{
		Graph:     g,
		Embedding: emb,
		offset:    is.Offset,
	}
	nodes := emb.Nodes()
	total := emb.QubitsUsed()
	// qubitIx[q] is 1 + the active index of qubit q, 0 when inactive.
	qubitIx := make([]int32, g.NumQubits())
	ep.Qubits = make([]int, 0, total)
	ep.nodeOf = make([]int, 0, total)
	for _, node := range nodes {
		for _, q := range emb.Chains[node] {
			if qubitIx[q] == 0 {
				ep.Qubits = append(ep.Qubits, q)
				ep.nodeOf = append(ep.nodeOf, node)
				qubitIx[q] = int32(len(ep.Qubits))
			}
		}
	}
	ep.H = make([]float64, len(ep.Qubits))
	owner := emb.ChainOwners(g.NumQubits())
	var couplers []coupler
	var edges []topo.Edge
	add := func(edges []topo.Edge, j float64) {
		for _, c := range edges {
			couplers = append(couplers, coupler{qubitIx[c.A] - 1, qubitIx[c.B] - 1, j})
		}
	}
	ep.chainNodes = nodes
	ep.chainIx = make([][]int, len(nodes))
	ix := make([]int, 0, total)
	for ci, node := range nodes {
		chain := emb.Chains[node]
		lo := len(ix)
		for _, q := range chain {
			ix = append(ix, int(qubitIx[q]-1))
		}
		ep.chainIx[ci] = ix[lo:len(ix):len(ix)]
		if h, ok := is.H[node]; ok && len(chain) > 0 {
			per := h / float64(len(chain))
			for _, i := range ep.chainIx[ci] {
				ep.H[i] += per
			}
		}
		// Ferromagnetic chain couplers.
		edges = embed.IntraChainCouplers(edges[:0], g, owner, chain, node)
		add(edges, -chainStrength)
	}
	for _, e := range qubo.SortedEdges(is.J) {
		j := is.J[e]
		if _, ok := emb.Chains[e.U]; !ok {
			continue
		}
		if _, ok := emb.Chains[e.V]; !ok {
			continue
		}
		edges = embed.InterChainCouplers(edges[:0], g, owner, emb.Chains[e.U], e.V)
		if len(edges) == 0 {
			panic("anneal: logical coupling with no hardware coupler; embedding invalid")
		}
		add(edges, j/float64(len(edges)))
	}
	ep.finalize(couplers)
	return ep
}

// finalize lays the couplers out in the read-only CSR form the sweep kernel
// runs on (each row lists its couplers in the order they were added),
// assigns every unordered qubit pair a stable id (so programming noise
// perturbs both directions of a coupler identically; ids count up in order
// of each pair's first entry, scanning rows in order), and precomputes the
// chain shape and the coefficient scale that SampleOnce used to rescan on
// every call.
func (ep *EmbeddedProblem) finalize(couplers []coupler) {
	n := len(ep.Qubits)
	total := 2 * len(couplers)
	ep.adjStart = make([]int32, n+1)
	ep.adjOther = make([]int32, total)
	ep.adjJ = make([]float64, total)
	ep.adjPair = make([]int32, total)
	for _, c := range couplers {
		ep.adjStart[c.a+1]++
		ep.adjStart[c.b+1]++
	}
	for i := 0; i < n; i++ {
		ep.adjStart[i+1] += ep.adjStart[i]
	}
	next := make([]int32, n)
	copy(next, ep.adjStart[:n])
	put := func(row, other int32, j float64) {
		k := next[row]
		next[row]++
		ep.adjOther[k] = other
		ep.adjJ[k] = j
	}
	for _, c := range couplers {
		put(c.a, c.b, c.j)
		put(c.b, c.a, c.j)
	}
	// A pair {i,o} with o < i met its id in row o; o > i is new unless an
	// earlier entry of row i already names o.
	numPairs := int32(0)
	for i := int32(0); i < int32(n); i++ {
		for k := ep.adjStart[i]; k < ep.adjStart[i+1]; k++ {
			o := ep.adjOther[k]
			ep.adjPair[k] = -1
			if o < i {
				ep.adjPair[k] = ep.pairIn(o, i)
				continue
			}
			if prev := ep.pairInUpTo(i, o, k); prev >= 0 {
				ep.adjPair[k] = prev
				continue
			}
			ep.adjPair[k] = numPairs
			numPairs++
		}
	}
	ep.numPairs = int(numPairs)

	ep.maxAbs = 0
	for _, v := range ep.H {
		if a := math.Abs(v); a > ep.maxAbs {
			ep.maxAbs = a
		}
	}
	for _, j := range ep.adjJ {
		if a := math.Abs(j); a > ep.maxAbs {
			ep.maxAbs = a
		}
	}

	ep.maxChainLen, ep.chainQubits = 0, 0
	for _, ix := range ep.chainIx {
		ep.chainQubits += len(ix)
		if len(ix) > ep.maxChainLen {
			ep.maxChainLen = len(ix)
		}
	}
}

// pairIn returns the pair id of row's first entry naming other.
func (ep *EmbeddedProblem) pairIn(row, other int32) int32 {
	return ep.pairInUpTo(row, other, ep.adjStart[row+1])
}

// pairInUpTo returns the pair id of the first entry of row before end that
// names other, or −1.
func (ep *EmbeddedProblem) pairInUpTo(row, other, end int32) int32 {
	for k := ep.adjStart[row]; k < end; k++ {
		if ep.adjOther[k] == other {
			return ep.adjPair[k]
		}
	}
	return -1
}

// NumActiveQubits returns the number of qubits carrying the problem.
func (ep *EmbeddedProblem) NumActiveQubits() int { return len(ep.Qubits) }

// Adjacency returns the problem's coupler graph in CSR form over active-qubit
// indices: the couplers of Qubits[i] join it to Qubits[other[e]] for e in
// [start[i], start[i+1]). The slices alias the problem; treat them as
// read-only.
func (ep *EmbeddedProblem) Adjacency() (start, other []int32) {
	return ep.adjStart, ep.adjOther
}

// Sample is the result of one hardware sample: raw qubit spins, the
// majority-voted logical values, how many chains were broken, and the raw
// hardware energy.
type Sample struct {
	NodeValues     map[int]bool // logical node → value (x = spin up)
	BrokenChains   int
	HardwareEnergy float64 // Ising energy of the raw spins, incl. chain terms
}
