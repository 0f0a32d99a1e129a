package qubo

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"hyqsat/internal/cnf"
)

func TestPolyArithmetic(t *testing.T) {
	// (x0 + 1)(1 - x1) = 1 + x0 - x1 - x0x1
	p := Variable(0).Add(Const(1)).Mul(Const(1).Sub(Variable(1)))
	if p.Offset != 1 || p.Linear[0] != 1 || p.Linear[1] != -1 || p.Quad[MkEdge(0, 1)] != -1 {
		t.Fatalf("product wrong: %+v", p)
	}
	// x·x = x for binary variables.
	q := Variable(2).Mul(Variable(2))
	if q.Linear[2] != 1 || len(q.Quad) != 0 {
		t.Fatalf("x²≠x: %+v", q)
	}
}

func TestPolyMulRejectsQuadratic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mul of quadratic operand should panic")
		}
	}()
	p := Variable(0).Mul(Variable(1))
	p.Mul(Variable(2))
}

func TestPolyEnergyMatchesExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		p := NewPoly()
		p.Offset = rng.NormFloat64()
		for i := 0; i < 4; i++ {
			p.AddLinear(i, rng.NormFloat64())
		}
		p.AddQuad(0, 1, rng.NormFloat64())
		p.AddQuad(2, 3, rng.NormFloat64())
		x := []bool{rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0}
		want := p.Offset
		for i := 0; i < 4; i++ {
			if x[i] {
				want += p.Linear[i]
			}
		}
		if x[0] && x[1] {
			want += p.Quad[MkEdge(0, 1)]
		}
		if x[2] && x[3] {
			want += p.Quad[MkEdge(2, 3)]
		}
		if got := p.EnergyDense(x); math.Abs(got-want) > 1e-12 {
			t.Fatalf("energy %v want %v", got, want)
		}
		xm := map[int]bool{0: x[0], 1: x[1], 2: x[2], 3: x[3]}
		if got := p.Energy(xm); math.Abs(got-want) > 1e-12 {
			t.Fatalf("map energy %v want %v", got, want)
		}
	}
}

func TestAddScaledCancelsTerms(t *testing.T) {
	p := Variable(0).Add(Variable(1))
	p = p.Sub(Variable(1))
	if _, ok := p.Linear[1]; ok {
		t.Fatal("cancelled linear term not removed")
	}
	q := Variable(0).Mul(Variable(1))
	q = q.Sub(Variable(0).Mul(Variable(1)))
	if len(q.Quad) != 0 {
		t.Fatal("cancelled quad term not removed")
	}
}

func TestIsingEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		p := NewPoly()
		n := 5
		p.Offset = rng.NormFloat64()
		for i := 0; i < n; i++ {
			p.AddLinear(i, rng.NormFloat64())
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(2) == 0 {
					p.AddQuad(i, j, rng.NormFloat64())
				}
			}
		}
		is := p.ToIsing()
		for mask := 0; mask < 1<<n; mask++ {
			x := make([]bool, n)
			spins := map[int]bool{}
			for i := 0; i < n; i++ {
				x[i] = mask&(1<<i) != 0
				spins[i] = x[i] // x=1 ⟺ s=+1
			}
			if qe, ie := p.EnergyDense(x), is.Energy(spins); math.Abs(qe-ie) > 1e-9 {
				t.Fatalf("trial %d mask %b: qubo %v ising %v", trial, mask, qe, ie)
			}
		}
	}
}

func TestDStarAndNormalize(t *testing.T) {
	p := NewPoly()
	p.AddLinear(0, 6) // |B|/2 = 3
	p.AddQuad(0, 1, -2)
	if d := p.DStar(); d != 3 {
		t.Fatalf("d* = %v, want 3", d)
	}
	n, d := p.Normalized()
	if d != 3 {
		t.Fatalf("normalizer %v", d)
	}
	if n.Linear[0] != 2 || math.Abs(n.Quad[MkEdge(0, 1)]+2.0/3.0) > 1e-12 {
		t.Fatalf("normalized wrong: %+v", n)
	}
	// After normalisation, |B| ≤ 2 and |J| ≤ 1.
	for _, c := range n.Linear {
		if math.Abs(c) > 2+1e-12 {
			t.Fatalf("linear out of range: %v", c)
		}
	}
	for _, c := range n.Quad {
		if math.Abs(c) > 1+1e-12 {
			t.Fatalf("quad out of range: %v", c)
		}
	}
	zero, d0 := NewPoly().Normalized()
	if d0 != 1 || zero.Offset != 0 {
		t.Fatal("zero poly normalisation wrong")
	}
}

func TestMinEnergyBrute(t *testing.T) {
	// x0 − 2x1 + x0x1 is minimised at x0=0, x1=1 with energy −2.
	p := Variable(0).Sub(Variable(1).Scale(2)).Add(Variable(0).Mul(Variable(1)))
	e, x := p.MinEnergyBrute()
	if e != -2 || x[0] || !x[1] {
		t.Fatalf("min %v at %v", e, x)
	}
}

// enumerate all assignments of the encoding's nodes and return min energy of
// the current (α-weighted) objective.
func minEnergyOf(e *Encoding) float64 {
	n := e.NumNodes()
	best := math.Inf(1)
	x := make([]bool, n)
	for mask := 0; mask < 1<<n; mask++ {
		for i := 0; i < n; i++ {
			x[i] = mask&(1<<i) != 0
		}
		if v := e.Poly.EnergyDense(x); v < best {
			best = v
		}
	}
	return best
}

func TestEncodeSingleClauseSemantics(t *testing.T) {
	// For every clause shape and every assignment of its SAT variables, the
	// minimum over auxiliaries must be 0 iff the clause is satisfied, and
	// ≥1 otherwise (each violated sub-clause contributes exactly 1).
	shapes := [][]int{
		{1}, {-1},
		{1, 2}, {-1, 2}, {1, -2}, {-1, -2},
		{1, 2, 3}, {-1, 2, 3}, {1, -2, 3}, {1, 2, -3}, {-1, -2, -3}, {-1, 2, -3},
	}
	for _, shape := range shapes {
		c := cnf.NewClause(shape...)
		enc, err := Encode([]cnf.Clause{c})
		if err != nil {
			t.Fatal(err)
		}
		nSATVars := len(c.Vars())
		for mask := 0; mask < 1<<nSATVars; mask++ {
			a := cnf.NewAssignment(3)
			for i, v := range c.Vars() {
				a.Set(v, mask&(1<<i) != 0)
			}
			satisfied := a.Status(c) == cnf.ClauseSatisfied

			// Minimise over the auxiliary (if any) with SAT vars fixed.
			minE := math.Inf(1)
			auxCount := 0
			if enc.AuxNode[0] >= 0 {
				auxCount = 1
			}
			for am := 0; am < 1<<auxCount; am++ {
				x := make([]bool, enc.NumNodes())
				for v, n := range enc.VarNode {
					x[n] = a[v] == cnf.True
				}
				if auxCount == 1 {
					x[enc.AuxNode[0]] = am != 0
				}
				if v := enc.Poly.EnergyDense(x); v < minE {
					minE = v
				}
			}
			if satisfied && math.Abs(minE) > 1e-9 {
				t.Fatalf("clause %v assignment %v: satisfied but min energy %v", c, a, minE)
			}
			if !satisfied && minE < 1-1e-9 {
				t.Fatalf("clause %v assignment %v: unsatisfied but min energy %v", c, a, minE)
			}
		}
	}
}

func TestEncodePaperExample(t *testing.T) {
	// §IV-C example: c1 = x1 ∨ x2 ∨ x3 gives (Eq. 8)
	// H = x1 + x2 − x3 + x1x2 − 2a x1 − 2a x2 + a x3 + 1, d*=2, d11=2, d12=1.
	c := cnf.NewClause(1, 2, 3)
	enc, err := Encode([]cnf.Clause{c})
	if err != nil {
		t.Fatal(err)
	}
	nx1, nx2, nx3 := enc.VarNode[0], enc.VarNode[1], enc.VarNode[2]
	a := enc.AuxNode[0]
	p := enc.Poly
	check := func(name string, got, want float64) {
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
	}
	check("offset", p.Offset, 1)
	check("x1", p.Linear[nx1], 1)
	check("x2", p.Linear[nx2], 1)
	check("x3", p.Linear[nx3], -1)
	check("a", p.Linear[a], 0)
	check("x1x2", p.Quad[MkEdge(nx1, nx2)], 1)
	check("ax1", p.Quad[MkEdge(a, nx1)], -2)
	check("ax2", p.Quad[MkEdge(a, nx2)], -2)
	check("ax3", p.Quad[MkEdge(a, nx3)], 1)

	check("d*", p.DStar(), 2)
	check("d11", enc.Sub[0].Poly.DStar(), 2)
	check("d12", enc.Sub[1].Poly.DStar(), 1)

	dStar := enc.AdjustCoefficients()
	check("returned d*", dStar, 2)
	check("α11", enc.Sub[0].Alpha, 1)
	check("α12", enc.Sub[1].Alpha, 2)

	// Eq. 9: H' = x1 + x2 − 2x3 − a + x1x2 − 2ax1 − 2ax2 + 2ax3 + 2.
	p = enc.Poly
	check("offset'", p.Offset, 2)
	check("x1'", p.Linear[nx1], 1)
	check("x2'", p.Linear[nx2], 1)
	check("x3'", p.Linear[nx3], -2)
	check("a'", p.Linear[a], -1)
	check("x1x2'", p.Quad[MkEdge(nx1, nx2)], 1)
	check("ax1'", p.Quad[MkEdge(a, nx1)], -2)
	check("ax2'", p.Quad[MkEdge(a, nx2)], -2)
	check("ax3'", p.Quad[MkEdge(a, nx3)], 2)
	check("d*' preserved", p.DStar(), 2)
}

func TestEncodeMultiClauseMinEnergyEqualsSatisfiability(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		nv := rng.Intn(4) + 2
		ncl := rng.Intn(4) + 1
		f := cnf.New(nv)
		for i := 0; i < ncl; i++ {
			k := rng.Intn(3) + 1
			if k > nv {
				k = nv
			}
			c := make(cnf.Clause, 0, k)
			for _, v := range rng.Perm(nv)[:k] {
				c = append(c, cnf.MkLit(cnf.Var(v), rng.Intn(2) == 0))
			}
			f.AddClause(c)
		}
		enc, err := Encode(f.Clauses)
		if err != nil {
			t.Fatal(err)
		}
		if enc.NumNodes() > 14 {
			continue
		}
		minE := minEnergyOf(enc)

		satisfiable := false
		for mask := 0; mask < 1<<nv; mask++ {
			a := cnf.NewAssignment(nv)
			for i := 0; i < nv; i++ {
				a.Set(cnf.Var(i), mask&(1<<i) != 0)
			}
			if a.Satisfies(f) {
				satisfiable = true
				break
			}
		}
		if satisfiable && math.Abs(minE) > 1e-9 {
			t.Fatalf("trial %d: satisfiable but min energy %v", trial, minE)
		}
		if !satisfiable && minE < 1-1e-9 {
			t.Fatalf("trial %d: unsatisfiable but min energy %v < 1", trial, minE)
		}
	}
}

func TestAdjustCoefficientsNeverShrinksMinUnsatEnergy(t *testing.T) {
	// The α adjustment multiplies violated-sub-clause contributions by
	// α ≥ 1, so for every assignment the adjusted energy ≥ the unit energy.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		f := cnf.New(4)
		for i := 0; i < 4; i++ {
			c := make(cnf.Clause, 0, 3)
			for _, v := range rng.Perm(4)[:3] {
				c = append(c, cnf.MkLit(cnf.Var(v), rng.Intn(2) == 0))
			}
			f.AddClause(c)
		}
		enc, _ := Encode(f.Clauses)
		enc.AdjustCoefficients()
		n := enc.NumNodes()
		for mask := 0; mask < 1<<n; mask++ {
			x := make([]bool, n)
			for i := 0; i < n; i++ {
				x[i] = mask&(1<<i) != 0
			}
			adjusted := enc.Poly.EnergyDense(x)
			unit := enc.UnitEnergy(x)
			if adjusted < unit-1e-9 {
				t.Fatalf("adjusted %v < unit %v", adjusted, unit)
			}
		}
	}
}

func TestNodesFromAssignmentZeroEnergyOnModels(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 50; trial++ {
		nv := 6
		f := cnf.New(nv)
		for i := 0; i < 8; i++ {
			c := make(cnf.Clause, 0, 3)
			for _, v := range rng.Perm(nv)[:3] {
				c = append(c, cnf.MkLit(cnf.Var(v), rng.Intn(2) == 0))
			}
			f.AddClause(c)
		}
		// Find a model by brute force, if any.
		var model cnf.Assignment
		for mask := 0; mask < 1<<nv; mask++ {
			a := cnf.NewAssignment(nv)
			for i := 0; i < nv; i++ {
				a.Set(cnf.Var(i), mask&(1<<i) != 0)
			}
			if a.Satisfies(f) {
				model = a
				break
			}
		}
		if model == nil {
			continue
		}
		enc, _ := Encode(f.Clauses)
		x := enc.NodesFromAssignment(model)
		if e := enc.Poly.EnergyDense(x); math.Abs(e) > 1e-9 {
			t.Fatalf("model maps to energy %v", e)
		}
		if e := enc.UnitEnergy(x); math.Abs(e) > 1e-9 {
			t.Fatalf("model maps to unit energy %v", e)
		}
		// Round trip back to SAT variables.
		back := enc.AssignmentFromNodes(x, nv)
		for v := range enc.VarNode {
			if back[v] != model[v] {
				t.Fatalf("round trip changed var %d", v)
			}
		}
	}
}

func TestViolatedSubClauses(t *testing.T) {
	c := cnf.NewClause(1, 2, 3)
	enc, _ := Encode([]cnf.Clause{c})
	x := make([]bool, enc.NumNodes()) // all-false: clause violated
	violated := enc.ViolatedSubClauses(x)
	if len(violated) == 0 {
		t.Fatal("all-false assignment should violate a sub-clause")
	}
	if e := enc.UnitEnergy(x); e < 1 {
		t.Fatalf("unit energy %v", e)
	}
}

func TestEncodeRejectsBadClauses(t *testing.T) {
	if _, err := Encode([]cnf.Clause{{}}); err == nil {
		t.Fatal("empty clause should be rejected")
	}
	long := cnf.NewClause(1, 2, 3, 4)
	if _, err := Encode([]cnf.Clause{long}); err == nil {
		t.Fatal("4-literal clause should be rejected")
	}
}

func TestProblemGraphMatchesQuadTerms(t *testing.T) {
	enc, _ := Encode([]cnf.Clause{cnf.NewClause(1, 2, 3), cnf.NewClause(-1, 2, 4)})
	g := enc.ProblemGraph()
	if len(g) != len(enc.Poly.Quad) {
		t.Fatalf("graph has %d edges, poly has %d quad terms", len(g), len(enc.Poly.Quad))
	}
	for _, e := range g {
		if _, ok := enc.Poly.Quad[e]; !ok {
			t.Fatalf("edge %v not in poly", e)
		}
	}
}

func TestMkEdgeCanonical(t *testing.T) {
	if MkEdge(3, 1) != (Edge{1, 3}) {
		t.Fatal("MkEdge not canonical")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("self edge should panic")
		}
	}()
	MkEdge(2, 2)
}

// TestSortedEdgesAscending checks the bucketed edge order against a
// comparison sort.
func TestSortedEdgesAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		m := map[Edge]float64{}
		for i := rng.Intn(60); i > 0; i-- {
			a, b := rng.Intn(20), rng.Intn(20)
			if a != b {
				m[MkEdge(a, b)] = 1
			}
		}
		want := make([]Edge, 0, len(m))
		for e := range m {
			want = append(want, e)
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].U != want[j].U {
				return want[i].U < want[j].U
			}
			return want[i].V < want[j].V
		})
		got := SortedEdges(m)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d:\n got %v\nwant %v", trial, got, want)
		}
	}
}
