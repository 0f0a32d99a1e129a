package qubo

import (
	"math"
	"testing"

	"hyqsat/internal/cnf"
)

// The affine-product algebra below spells Eq. 4 out term by term. Encode
// writes the same coefficients from a sign table; these helpers are the
// reference TestEncodeMatchesEq4Algebra holds it to.

// Const returns the constant polynomial c.
func Const(c float64) *Poly {
	p := NewPoly()
	p.Offset = c
	return p
}

// Variable returns the polynomial x_i.
func Variable(i int) *Poly {
	p := NewPoly()
	p.Linear[i] = 1
	return p
}

// Add returns p + q as a new polynomial.
func (p *Poly) Add(q *Poly) *Poly { return p.Copy().AddScaled(q, 1) }

// Sub returns p − q as a new polynomial.
func (p *Poly) Sub(q *Poly) *Poly { return p.Copy().AddScaled(q, -1) }

// Mul returns p·q. Both operands must be affine (no quadratic terms), since
// the result must stay within degree two; x_i·x_i simplifies to x_i because
// variables are binary.
func (p *Poly) Mul(q *Poly) *Poly {
	if len(p.Quad) > 0 || len(q.Quad) > 0 {
		panic("qubo: Mul operands must be affine")
	}
	out := NewPoly()
	out.Offset = p.Offset * q.Offset
	for i, c := range p.Linear {
		out.AddLinear(i, c*q.Offset)
	}
	for j, d := range q.Linear {
		out.AddLinear(j, d*p.Offset)
	}
	for i, c := range p.Linear {
		for j, d := range q.Linear {
			if i == j {
				out.AddLinear(i, c*d) // x² = x for binary x
			} else {
				out.AddQuad(i, j, c*d)
			}
		}
	}
	return out
}

// litPoly returns H_l as a polynomial: x for a positive literal and 1−x
// for a negative one, over the node of the literal's variable.
func litPoly(l cnf.Lit, node int) *Poly {
	if l.IsNeg() {
		return Const(1).Sub(Variable(node))
	}
	return Variable(node)
}

// eq4Gadget builds the sub-clause objectives of one clause by polynomial
// arithmetic, with nodes[i] the node of literal i and aux the auxiliary node
// of a 3-literal clause.
func eq4Gadget(c cnf.Clause, nodes []int, aux int) []*Poly {
	switch len(c) {
	case 1:
		return []*Poly{Const(1).Sub(litPoly(c[0], nodes[0]))}
	case 2:
		h1 := litPoly(c[0], nodes[0])
		h2 := litPoly(c[1], nodes[1])
		return []*Poly{Const(1).Sub(h1).Mul(Const(1).Sub(h2))}
	default:
		ha := Variable(aux)
		h1 := litPoly(c[0], nodes[0])
		h2 := litPoly(c[1], nodes[1])
		h3 := litPoly(c[2], nodes[2])
		c1 := ha.Add(h1).Add(h2).
			Sub(ha.Mul(h1).Scale(2)).
			Sub(ha.Mul(h2).Scale(2)).
			Add(h1.Mul(h2))
		c2 := Const(1).Sub(ha).Sub(h3).Add(ha.Mul(h3))
		return []*Poly{c1, c2}
	}
}

func samePoly(a, b *Poly) bool {
	if math.Float64bits(a.Offset) != math.Float64bits(b.Offset) ||
		len(a.Linear) != len(b.Linear) || len(a.Quad) != len(b.Quad) {
		return false
	}
	for i, c := range a.Linear {
		if d, ok := b.Linear[i]; !ok || math.Float64bits(c) != math.Float64bits(d) {
			return false
		}
	}
	for e, c := range a.Quad {
		if d, ok := b.Quad[e]; !ok || math.Float64bits(c) != math.Float64bits(d) {
			return false
		}
	}
	return true
}

// TestEncodeMatchesEq4Algebra checks the table-driven gadgets against Eq. 4
// evaluated by polynomial arithmetic, bit for bit and term for term, on every
// clause of one to three literals over three variables: every polarity, and
// every pattern of repeated and complementary variables.
func TestEncodeMatchesEq4Algebra(t *testing.T) {
	for k := 1; k <= 3; k++ {
		total := 1
		for i := 0; i < k; i++ {
			total *= 6 // 3 variables × 2 signs per literal
		}
		for code := 0; code < total; code++ {
			c := make(cnf.Clause, k)
			for i, x := 0, code; i < k; i, x = i+1, x/6 {
				c[i] = cnf.MkLit(cnf.Var(x%6/2), x%2 == 1)
			}
			enc, err := Encode([]cnf.Clause{c})
			if err != nil {
				t.Fatal(err)
			}
			nodes := make([]int, k)
			for i, l := range c {
				nodes[i] = enc.VarNode[l.Var()]
			}
			want := eq4Gadget(c, nodes, enc.AuxNode[0])
			if len(enc.Sub) != len(want) {
				t.Fatalf("%v: %d sub-clauses, want %d", c, len(enc.Sub), len(want))
			}
			for i, w := range want {
				if got := enc.Sub[i].Poly; !samePoly(got, w) {
					t.Errorf("%v sub-clause %d:\n got %+v\nwant %+v", c, i, got, w)
				}
			}
		}
	}
}
