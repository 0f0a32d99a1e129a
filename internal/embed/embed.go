// Package embed maps QA problem graphs onto the Chimera hardware graph.
//
// Three embedders are provided:
//
//   - Fast: the HyQSAT paper's linear-time, topology-aware scheme (§IV-B) —
//     logical variables are allocated to vertical lines in clause-queue
//     order, auxiliary variables to horizontal lines, and a connection
//     requirement list (CRL) is satisfied by a greedy left-to-right,
//     bottom-up allocation of horizontal line segments.
//   - Minorminer: a from-scratch reimplementation of the Cai–Macready–Roy
//     heuristic behind D-Wave's minorminer library [11] — iterative chain
//     placement with weighted-Dijkstra routing and penalty-driven repair.
//   - PandR: a place-and-route baseline in the style of Bian et al. [8] —
//     simulated-annealing cell placement followed by BFS path routing.
//
// All embedders produce an Embedding (node → qubit chain) that can be
// checked with Verify and characterised with Stats.
package embed

import (
	"fmt"

	"hyqsat/internal/qubo"
	"hyqsat/internal/topo"
)

// Problem is the graph to embed: nodes 0..NumNodes-1 and quadratic-coupling
// edges between them.
type Problem struct {
	NumNodes int
	Edges    []qubo.Edge
}

// ProblemFromEncoding extracts the problem graph of a QUBO encoding.
func ProblemFromEncoding(e *qubo.Encoding) *Problem {
	return &Problem{NumNodes: e.NumNodes(), Edges: e.ProblemGraph()}
}

// Embedding assigns each embedded problem node a chain of hardware qubits.
// Nodes that could not be embedded are absent from Chains.
type Embedding struct {
	Chains map[int][]int
}

// NewEmbedding returns an empty embedding.
func NewEmbedding() *Embedding { return &Embedding{Chains: map[int][]int{}} }

// Nodes returns the embedded nodes in ascending order. Node indices are
// non-negative, so a presence table orders them without sorting.
func (e *Embedding) Nodes() []int {
	bound := 0
	for node := range e.Chains {
		bound = max(bound, node+1)
	}
	present := make([]bool, bound)
	for node := range e.Chains {
		present[node] = true
	}
	nodes := make([]int, 0, len(e.Chains))
	for node, ok := range present {
		if ok {
			nodes = append(nodes, node)
		}
	}
	return nodes
}

// QubitsUsed returns the total number of qubits over all chains.
func (e *Embedding) QubitsUsed() int {
	n := 0
	for _, c := range e.Chains {
		n += len(c)
	}
	return n
}

// MeanChainLength returns the average chain length (0 for an empty embedding).
func (e *Embedding) MeanChainLength() float64 {
	if len(e.Chains) == 0 {
		return 0
	}
	return float64(e.QubitsUsed()) / float64(len(e.Chains))
}

// MaxChainLength returns the longest chain length.
func (e *Embedding) MaxChainLength() int {
	max := 0
	for _, c := range e.Chains {
		if len(c) > max {
			max = len(c)
		}
	}
	return max
}

// Verify checks that e is a valid minor embedding of p into g: every chain
// is non-empty, chains are pairwise disjoint, every chain is internally
// connected through hardware couplers, and every problem edge between two
// embedded nodes is realised by at least one inter-chain coupler. Edges with
// an unembedded endpoint are ignored (partial embeddings are legal: the
// caller decides which nodes had to be embedded).
func Verify(p *Problem, g topo.Topology, e *Embedding) error {
	owner := map[int]int{}
	for node, chain := range e.Chains {
		if len(chain) == 0 {
			return fmt.Errorf("embed: node %d has an empty chain", node)
		}
		for _, q := range chain {
			if q < 0 || q >= g.NumQubits() {
				return fmt.Errorf("embed: node %d uses out-of-range qubit %d", node, q)
			}
			if g.IsBroken(q) {
				return fmt.Errorf("embed: node %d uses broken qubit %d", node, q)
			}
			if prev, ok := owner[q]; ok {
				return fmt.Errorf("embed: qubit %d shared by nodes %d and %d", q, prev, node)
			}
			owner[q] = node
		}
	}
	for node, chain := range e.Chains {
		if !chainConnected(g, chain) {
			return fmt.Errorf("embed: chain of node %d is disconnected: %v", node, chain)
		}
	}
	for _, ed := range p.Edges {
		cu, okU := e.Chains[ed.U]
		cv, okV := e.Chains[ed.V]
		if !okU || !okV {
			continue
		}
		if !chainsCoupled(g, cu, cv) {
			return fmt.Errorf("embed: problem edge %v has no hardware coupler", ed)
		}
	}
	return nil
}

func chainConnected(g topo.Topology, chain []int) bool {
	if len(chain) <= 1 {
		return true
	}
	in := map[int]bool{}
	for _, q := range chain {
		in[q] = true
	}
	stack := []int{chain[0]}
	visited := map[int]bool{chain[0]: true}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, n := range g.Neighbors(q) {
			if in[n] && !visited[n] {
				visited[n] = true
				stack = append(stack, n)
			}
		}
	}
	return len(visited) == len(chain)
}

func chainsCoupled(g topo.Topology, a, b []int) bool {
	inB := map[int]bool{}
	for _, q := range b {
		inB[q] = true
	}
	for _, q := range a {
		for _, n := range g.Neighbors(q) {
			if inB[n] {
				return true
			}
		}
	}
	return false
}

// ChainOwners returns the qubit-indexed chain membership of e on a graph of
// numQubits qubits: owner[q] is the node whose chain holds qubit q, or −1.
// The chains of a valid embedding are disjoint, so each qubit has at most
// one owner.
func (e *Embedding) ChainOwners(numQubits int) []int {
	owner := make([]int, numQubits)
	for q := range owner {
		owner[q] = -1
	}
	for node, chain := range e.Chains {
		for _, q := range chain {
			owner[q] = node
		}
	}
	return owner
}

// InterChainCouplers appends to dst every hardware coupler joining chainU
// (the chain of some node u) to the chain of node v, with owner from
// ChainOwners — the couplers across which the sampler distributes the
// logical J weight.
func InterChainCouplers(dst []topo.Edge, g topo.Topology, owner []int, chainU []int, v int) []topo.Edge {
	for _, q := range chainU {
		for _, n := range g.Neighbors(q) {
			if owner[n] == v {
				a, b := q, n
				if a > b {
					a, b = b, a
				}
				dst = append(dst, topo.Edge{A: a, B: b})
			}
		}
	}
	return dst
}

// IntraChainCouplers appends to dst the hardware couplers joining qubits
// within the chain of node, with owner from ChainOwners — the couplers that
// receive the ferromagnetic chain coupling.
func IntraChainCouplers(dst []topo.Edge, g topo.Topology, owner []int, chain []int, node int) []topo.Edge {
	for _, q := range chain {
		for _, n := range g.Neighbors(q) {
			if q < n && owner[n] == node {
				dst = append(dst, topo.Edge{A: q, B: n})
			}
		}
	}
	return dst
}
