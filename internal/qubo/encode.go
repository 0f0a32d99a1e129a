package qubo

import (
	"fmt"

	"hyqsat/internal/cnf"
)

// SubClause is one of the decomposed pieces of a clause (Eq. 3) with its own
// objective polynomial (Eq. 4, built with α = 1) and its adjusted coefficient
// α (Eq. 7–9). A violated sub-clause contributes exactly α to the total
// energy, which is what makes QA energies interpretable as (weighted) counts
// of violated sub-clauses.
type SubClause struct {
	Clause int   // index of the source clause within the encoded subset
	Poly   *Poly // objective with α=1
	Alpha  float64
}

// Encoding is the QA problem built from a set of clauses: node numbering for
// logical and auxiliary variables, per-sub-clause objectives, and the summed
// objective polynomial of Eq. 5.
type Encoding struct {
	Clauses []cnf.Clause // the encoded clause subset (aliases caller storage)

	VarNode map[cnf.Var]int // logical variable → node
	NodeVar []cnf.Var       // node → logical variable, or cnf.NoVar for auxiliaries
	AuxNode []int           // per clause: auxiliary node, or −1 when none was needed

	Sub  []SubClause // grouped by clause, in clause order
	Poly *Poly       // Σ α_ij · H_ij  (Eq. 5); rebuilt by AdjustCoefficients
}

// NumNodes returns the total number of nodes (logical + auxiliary).
func (e *Encoding) NumNodes() int { return len(e.NodeVar) }

// litAffine returns H_l (Eq. 4's building block) as s + t·x over the node
// of the literal's variable: x for a positive literal (s=0, t=1) and 1−x for
// a negative one (s=1, t=−1).
func litAffine(l cnf.Lit) (s, t float64) {
	if l.IsNeg() {
		return 1, -1
	}
	return 0, 1
}

// newSubPoly returns an empty sub-clause objective sized for a gadget with
// nl linear and nq quadratic terms.
func newSubPoly(nl, nq int) *Poly {
	return &Poly{Linear: make(map[int]float64, nl), Quad: make(map[Edge]float64, nq)}
}

// Encode builds the QA encoding of the given clauses, following the paper's
// decomposition: a 3-literal clause c = l1∨l2∨l3 becomes
// c₁ = a ↔ (l1∨l2) and c₂ = l3∨a (Eq. 3) with the objectives of Eq. 4;
// 1- and 2-literal clauses are encoded directly without an auxiliary.
// Clauses longer than three literals are rejected (convert with cnf.To3CNF
// first). All α coefficients start at 1 (prior work's setting).
//
// Each gadget's coefficients are written straight from the literal signs:
// with H_i = s_i + t_i·x_i, the products of Eq. 4 expand to the fixed
// coefficient table below. Every coefficient is a small integer, so the
// result is exact, and a term that cancels (a variable repeated with both
// signs) is dropped just as polynomial arithmetic would drop it.
func Encode(clauses []cnf.Clause) (*Encoding, error) {
	subs := 0
	for _, c := range clauses {
		subs++
		if len(c) == 3 {
			subs++
		}
	}
	e := &Encoding{
		Clauses: clauses,
		VarNode: map[cnf.Var]int{},
		AuxNode: make([]int, len(clauses)),
		Sub:     make([]SubClause, 0, subs),
	}
	node := func(v cnf.Var) int {
		if n, ok := e.VarNode[v]; ok {
			return n
		}
		n := len(e.NodeVar)
		e.VarNode[v] = n
		e.NodeVar = append(e.NodeVar, v)
		return n
	}

	for k, c := range clauses {
		e.AuxNode[k] = -1
		switch len(c) {
		case 0:
			return nil, fmt.Errorf("qubo: clause %d is empty", k)
		case 1:
			// H = 1 − H1: zero iff the literal is true.
			n1 := node(c[0].Var())
			s1, t1 := litAffine(c[0])
			h := newSubPoly(1, 0)
			h.Offset = 1 - s1
			h.AddLinear(n1, -t1)
			e.Sub = append(e.Sub, SubClause{Clause: k, Poly: h, Alpha: 1})
		case 2:
			// H = (1−H1)(1−H2): zero iff some literal is true. With
			// 1−H_i = a_i + b_i·x_i the product is
			// a1·a2 + b1·a2·x1 + a1·b2·x2 + b1·b2·x1·x2.
			n1 := node(c[0].Var())
			n2 := node(c[1].Var())
			s1, t1 := litAffine(c[0])
			s2, t2 := litAffine(c[1])
			a1, b1 := 1-s1, -t1
			a2, b2 := 1-s2, -t2
			h := newSubPoly(2, 1)
			h.Offset = a1 * a2
			h.AddLinear(n1, b1*a2)
			h.AddLinear(n2, a1*b2)
			addProduct(h, n1, n2, b1*b2)
			e.Sub = append(e.Sub, SubClause{Clause: k, Poly: h, Alpha: 1})
		case 3:
			a := len(e.NodeVar)
			e.NodeVar = append(e.NodeVar, cnf.NoVar)
			e.AuxNode[k] = a
			n1 := node(c[0].Var())
			n2 := node(c[1].Var())
			n3 := node(c[2].Var())
			s1, t1 := litAffine(c[0])
			s2, t2 := litAffine(c[1])
			s3, t3 := litAffine(c[2])
			// Eq. 4, first sub-clause: a ↔ (l1 ∨ l2), that is
			// a + H1 + H2 − 2a·H1 − 2a·H2 + H1·H2.
			c1 := newSubPoly(3, 3)
			c1.Offset = s1 + s2 + s1*s2
			c1.AddLinear(a, 1-2*s1-2*s2)
			c1.AddLinear(n1, t1+t1*s2)
			c1.AddLinear(n2, t2+s1*t2)
			c1.AddQuad(a, n1, -2*t1)
			c1.AddQuad(a, n2, -2*t2)
			addProduct(c1, n1, n2, t1*t2)
			// Eq. 4, second sub-clause: l3 ∨ a, that is 1 − a − H3 + a·H3.
			c2 := newSubPoly(2, 1)
			c2.Offset = 1 - s3
			c2.AddLinear(a, s3-1)
			c2.AddLinear(n3, -t3)
			c2.AddQuad(a, n3, t3)
			e.Sub = append(e.Sub,
				SubClause{Clause: k, Poly: c1, Alpha: 1},
				SubClause{Clause: k, Poly: c2, Alpha: 1})
		default:
			return nil, fmt.Errorf("qubo: clause %d has %d literals; 3-CNF required", k, len(c))
		}
	}
	e.rebuild()
	return e, nil
}

// addProduct adds c·x_i·x_j, which is c·x_i when i == j (x² = x for binary
// x).
func addProduct(p *Poly, i, j int, c float64) {
	if i == j {
		p.AddLinear(i, c)
	} else {
		p.AddQuad(i, j, c)
	}
}

// rebuild recomputes the summed objective (Eq. 5) from the sub-clause
// objectives and their current α coefficients. Each coefficient sums its
// sub-clause terms in sub-clause order; linear terms accumulate in a
// node-indexed slice, and a term that sums to zero is left out.
func (e *Encoding) rebuild() {
	nq := 0
	for i := range e.Sub {
		nq += len(e.Sub[i].Poly.Quad)
	}
	lin := make([]float64, e.NumNodes())
	p := &Poly{Quad: make(map[Edge]float64, nq)}
	for i := range e.Sub {
		q, alpha := e.Sub[i].Poly, e.Sub[i].Alpha
		p.Offset += alpha * q.Offset
		for n, c := range q.Linear {
			lin[n] += alpha * c
		}
		for ed, c := range q.Quad {
			p.Quad[ed] += alpha * c
			if p.Quad[ed] == 0 {
				delete(p.Quad, ed)
			}
		}
	}
	nl := 0
	for _, c := range lin {
		if c != 0 {
			nl++
		}
	}
	p.Linear = make(map[int]float64, nl)
	for n, c := range lin {
		if c != 0 {
			p.Linear[n] = c
		}
	}
	e.Poly = p
}

// AdjustCoefficients applies the paper's noise optimisation (§IV-C,
// Eq. 6–9): with all α=1 it computes the global d* of the summed objective
// and each sub-clause's own d_ij, then raises α_ij to d*/d_ij and rebuilds
// the objective. This widens the energy gap that normalisation would
// otherwise crush, at the cost of exactly one extra objective evaluation.
// It returns the d* that was used.
func (e *Encoding) AdjustCoefficients() float64 {
	for i := range e.Sub {
		e.Sub[i].Alpha = 1
	}
	e.rebuild()
	dStar := e.Poly.DStar()
	if dStar == 0 {
		return 0
	}
	for i := range e.Sub {
		dij := e.Sub[i].Poly.DStar()
		if dij > 0 {
			e.Sub[i].Alpha = dStar / dij
		}
	}
	e.rebuild()
	return dStar
}

// Restrict returns a new encoding over the same node numbering containing
// only the given clauses (indices into e.Clauses, in ascending order). The
// restriction is how a partially-embedded clause queue becomes the problem
// actually programmed on hardware: node ids stay aligned with the embedding
// produced against the full encoding.
func (e *Encoding) Restrict(clauseSet []int) *Encoding {
	r := &Encoding{
		Clauses: make([]cnf.Clause, 0, len(clauseSet)),
		VarNode: make(map[cnf.Var]int, 3*len(clauseSet)),
		NodeVar: e.NodeVar,
		AuxNode: make([]int, 0, len(clauseSet)),
	}
	newIndex := make([]int, len(e.Clauses)) // old clause index → 1 + new
	subs := 0
	for _, ci := range clauseSet {
		r.Clauses = append(r.Clauses, e.Clauses[ci])
		newIndex[ci] = len(r.Clauses)
		r.AuxNode = append(r.AuxNode, e.AuxNode[ci])
		for _, l := range e.Clauses[ci] {
			r.VarNode[l.Var()] = e.VarNode[l.Var()]
		}
		subs += len(e.Clauses[ci])/3 + 1
	}
	r.Sub = make([]SubClause, 0, subs)
	for i := range e.Sub {
		if ni := newIndex[e.Sub[i].Clause]; ni > 0 {
			sc := e.Sub[i]
			sc.Clause = ni - 1
			r.Sub = append(r.Sub, sc)
		}
	}
	r.rebuild()
	return r
}

// UnitEnergy evaluates the α=1 objective at a node assignment: the number of
// violated sub-clauses. This is the scale on which the backend's
// satisfaction-probability intervals (Fig 8) are defined.
func (e *Encoding) UnitEnergy(x []bool) float64 {
	total := 0.0
	for i := range e.Sub {
		total += e.Sub[i].Poly.EnergyDense(x)
	}
	return total
}

// ViolatedSubClauses returns the indices of sub-clauses with positive energy
// under the assignment.
func (e *Encoding) ViolatedSubClauses(x []bool) []int {
	var out []int
	for i := range e.Sub {
		if e.Sub[i].Poly.EnergyDense(x) > 1e-9 {
			out = append(out, i)
		}
	}
	return out
}

// AssignmentFromNodes converts a node-level assignment back to a partial
// assignment over the original SAT variables (auxiliaries are dropped).
func (e *Encoding) AssignmentFromNodes(x []bool, numVars int) cnf.Assignment {
	a := cnf.NewAssignment(numVars)
	for v, n := range e.VarNode {
		a.Set(v, x[n])
	}
	return a
}

// NodesFromAssignment builds a node-level assignment from SAT variable
// values, choosing each auxiliary optimally (a_k := l1∨l2, its defining
// equivalence) so that a satisfying SAT assignment yields zero energy.
func (e *Encoding) NodesFromAssignment(a cnf.Assignment) []bool {
	x := make([]bool, e.NumNodes())
	for v, n := range e.VarNode {
		x[n] = a[v] == cnf.True
	}
	for k, c := range e.Clauses {
		if e.AuxNode[k] < 0 {
			continue
		}
		l1True := a.Lit(c[0]) == cnf.True
		l2True := a.Lit(c[1]) == cnf.True
		x[e.AuxNode[k]] = l1True || l2True
	}
	return x
}

// ProblemGraph returns the adjacency structure of the encoding's problem
// graph: the set of node pairs with non-zero quadratic coefficients. This is
// what must be embedded into the hardware graph.
func (e *Encoding) ProblemGraph() []Edge {
	out := make([]Edge, 0, len(e.Poly.Quad))
	for ed := range e.Poly.Quad {
		out = append(out, ed)
	}
	return out
}
