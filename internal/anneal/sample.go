package anneal

import (
	"math"
	"math/rand"
	"sync/atomic"

	"hyqsat/internal/obs"
)

// Sampler draws samples from embedded problems.
//
// SampleOnce and SampleInto consume the sampler's own Rng stream and scratch
// buffers and must not be called concurrently. Sample fans reads across a
// worker pool with per-read RNG streams and is safe to call from multiple
// goroutines (each call takes a fresh call index; results depend only on the
// order calls are issued, never on the number of workers).
type Sampler struct {
	Schedule Schedule
	Noise    Noise
	Rng      *rand.Rand
	// Workers bounds the worker pool used by Sample; 0 means
	// runtime.NumCPU(). The sampled values do not depend on it.
	Workers int
	// Trace, when non-nil and enabled, receives one QACallEvent per Sample
	// call (and per SampleBatch member) with the per-read energies and
	// chain-break counts. Tracing never touches the sweep kernel (SampleInto
	// stays 0 allocs/op) and never consumes sampler randomness, so sampled
	// values are unchanged.
	Trace obs.Tracer
	// Timing, when set, stamps QACallEvents with the modelled device time of
	// the access. It does not affect sampling.
	Timing TimingModel

	seed    int64
	calls   atomic.Int64
	scratch Scratch // serial-path buffers for SampleOnce / SampleInto
}

// NewSampler returns a sampler with the given schedule and noise, seeded
// deterministically.
func NewSampler(sched Schedule, noise Noise, seed int64) *Sampler {
	return &Sampler{Schedule: sched, Noise: noise, Rng: rand.New(rand.NewSource(seed)), seed: seed}
}

// Scratch holds the reusable buffers of one sampling worker: the spin state
// and the perturbed-coefficient copies of the programming-noise model. A
// scratch grows to fit whatever problem it is used on and is never shared
// between concurrent workers.
type Scratch struct {
	spins     []int8
	h         []float64 // perturbed per-qubit fields
	j         []float64 // perturbed per-entry couplers (CSR order)
	pairNoise []float64 // one Gaussian draw per unordered coupler pair
}

// fit sizes the buffers for ep. Once a scratch has been used on a problem of
// the same or larger size, fit allocates nothing.
func (scr *Scratch) fit(ep *EmbeddedProblem) {
	scr.spins = fitSlice(scr.spins, len(ep.Qubits))
	scr.h = fitSlice(scr.h, len(ep.Qubits))
	scr.j = fitSlice(scr.j, len(ep.adjJ))
	scr.pairNoise = fitSlice(scr.pairNoise, ep.numPairs)
}

func fitSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// SampleOnce draws a single hardware sample (one anneal + readout), the mode
// HyQSAT uses: errors are absorbed by the CDCL loop instead of by repeated
// sampling.
func (s *Sampler) SampleOnce(ep *EmbeddedProblem) Sample {
	var out Sample
	s.SampleInto(ep, &out)
	return out
}

// SampleInto draws one sample like SampleOnce but reuses out's NodeValues
// map and the sampler's scratch buffers: in steady state (same-sized
// problem, reused out) it performs zero heap allocations.
func (s *Sampler) SampleInto(ep *EmbeddedProblem, out *Sample) {
	s.sampleWith(ep, s.Rng, &s.scratch, out)
}

// ReadSet is the outcome of one multi-read device access: every sample in
// read order plus the index of the best (lowest hardware energy) read, ties
// broken towards the earliest read.
type ReadSet struct {
	Samples []Sample
	Best    int
}

// BestSample returns the best-energy sample of the set.
func (rs *ReadSet) BestSample() Sample { return rs.Samples[rs.Best] }

// Sample draws numReads samples from one programmed problem: a one-member
// SampleBatch. Each read's RNG stream is derived from (sampler seed, call
// index, read index), so for a fixed seed the result is bit-identical at any
// worker count, and successive calls draw fresh randomness.
func (s *Sampler) Sample(ep *EmbeddedProblem, numReads int) ReadSet {
	return s.SampleBatch([]*EmbeddedProblem{ep}, []int{numReads})[0]
}

// sampleRead executes one read with its own deterministic RNG stream.
func (s *Sampler) sampleRead(ep *EmbeddedProblem, call int64, read int, scr *Scratch, out *Sample) {
	rng := rand.New(rand.NewSource(readSeed(s.seed, call, read)))
	s.sampleWith(ep, rng, scr, out)
}

// readSeed mixes (seed, call, read) into a well-spread 63-bit stream seed
// using the splitmix64 finaliser.
func readSeed(seed, call int64, read int) int64 {
	x := uint64(seed)
	x = mix64(x + 0x9e3779b97f4a7c15*uint64(call+1))
	x = mix64(x + 0xbf58476d1ce4e5b9*uint64(read+1))
	return int64(x >> 1) // keep it non-negative for rand.NewSource symmetry
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// sampleWith is the sweep kernel: one anneal + readout against ep using rng
// for every stochastic choice and scr for every buffer. It touches only
// read-only fields of ep and performs no steady-state allocations.
func (s *Sampler) sampleWith(ep *EmbeddedProblem, rng *rand.Rand, scr *Scratch, out *Sample) {
	n := len(ep.Qubits)
	scr.fit(ep)
	h := ep.H
	j := ep.adjJ
	// Programming noise: perturb copies of the coefficients, one Gaussian
	// draw per field and per unordered coupler pair (both CSR directions of a
	// coupler receive the same perturbation).
	if s.Noise.CoefficientSigma > 0 {
		sigma := s.Noise.CoefficientSigma * ep.maxAbs
		h = scr.h
		copy(h, ep.H)
		for i := range h {
			h[i] += sigma * rng.NormFloat64()
		}
		for p := 0; p < ep.numPairs; p++ {
			scr.pairNoise[p] = sigma * rng.NormFloat64()
		}
		j = scr.j
		for k := range j {
			j[k] = ep.adjJ[k] + scr.pairNoise[ep.adjPair[k]]
		}
	}

	// Random initial state, chain-aligned: the device initialises in a
	// superposition and strong chain couplers keep chains coherent; a chain
	// starts as one logical spin.
	spins := scr.spins
	for i := range spins {
		spins[i] = 1
	}
	for _, ix := range ep.chainIx {
		v := int8(1)
		if rng.Intn(2) == 0 {
			v = -1
		}
		for _, i := range ix {
			spins[i] = v
		}
	}

	// Metropolis sweeps with geometric β schedule. Moves are chain-level
	// (an intact chain behaves as one logical spin in the device; the strong
	// ferromagnetic coupling makes independent qubit flips within a chain
	// exponentially unlikely), followed by a short single-qubit phase that
	// lets hardware imperfection express itself, including chain breaks.
	sched := s.Schedule
	if sched.Sweeps <= 0 {
		sched = DefaultSchedule()
	}
	beta := sched.BetaMin
	ratio := 1.0
	if sched.Sweeps > 1 {
		ratio = math.Pow(sched.BetaMax/sched.BetaMin, 1/float64(sched.Sweeps-1))
	}
	node := ep.nodeOf
	adjStart, adjOther := ep.adjStart, ep.adjOther
	for sweep := 0; sweep < sched.Sweeps; sweep++ {
		for _, ix := range ep.chainIx {
			// ΔE of flipping the whole chain: internal couplers are
			// unchanged, only fields and chain-boundary couplers count.
			sum := 0.0
			for _, i := range ix {
				local := h[i]
				myNode := node[i]
				for k := adjStart[i]; k < adjStart[i+1]; k++ {
					o := adjOther[k]
					if node[o] != myNode {
						local += j[k] * float64(spins[o])
					}
				}
				sum += float64(spins[i]) * local
			}
			dE := -2 * sum
			if dE <= 0 || rng.Float64() < math.Exp(-beta*dE) {
				for _, i := range ix {
					spins[i] = -spins[i]
				}
			}
		}
		beta *= ratio
	}
	// Single-qubit relaxation at final β.
	qubitSweeps := sched.Sweeps / 16
	if qubitSweeps < 2 {
		qubitSweeps = 2
	}
	for sweep := 0; sweep < qubitSweeps; sweep++ {
		for i := 0; i < n; i++ {
			local := h[i]
			for k := adjStart[i]; k < adjStart[i+1]; k++ {
				local += j[k] * float64(spins[adjOther[k]])
			}
			dE := -2 * float64(spins[i]) * local
			if dE <= 0 || rng.Float64() < math.Exp(-sched.BetaMax*dE) {
				spins[i] = -spins[i]
			}
		}
	}

	// Readout noise.
	if s.Noise.ReadoutFlipProb > 0 {
		for i := range spins {
			if rng.Float64() < s.Noise.ReadoutFlipProb {
				spins[i] = -spins[i]
			}
		}
	}

	// Hardware energy of the read spins (with the true, unperturbed
	// coefficients — that is what the device reports).
	energy := ep.offset
	for i := 0; i < n; i++ {
		energy += ep.H[i] * float64(spins[i])
		for k := adjStart[i]; k < adjStart[i+1]; k++ {
			if o := int(adjOther[k]); o > i {
				energy += ep.adjJ[k] * float64(spins[i]) * float64(spins[o])
			}
		}
	}

	// Unembed: majority vote per chain (sorted node order keeps the
	// tie-breaking RNG stream deterministic).
	if out.NodeValues == nil {
		out.NodeValues = make(map[int]bool, len(ep.chainNodes))
	} else {
		clear(out.NodeValues)
	}
	broken := 0
	for ci, node := range ep.chainNodes {
		up, down := 0, 0
		for _, i := range ep.chainIx[ci] {
			if spins[i] > 0 {
				up++
			} else {
				down++
			}
		}
		if up > 0 && down > 0 {
			broken++
		}
		switch {
		case up > down:
			out.NodeValues[node] = true
		case down > up:
			out.NodeValues[node] = false
		default:
			out.NodeValues[node] = rng.Intn(2) == 0
		}
	}
	out.BrokenChains = broken
	out.HardwareEnergy = energy
}
