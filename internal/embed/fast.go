package embed

import (
	"sort"

	"hyqsat/internal/cnf"
	"hyqsat/internal/qubo"
	"hyqsat/internal/topo"
)

// FastResult is the outcome of the paper's fast embedding: a valid embedding
// of EmbeddedSet (clause indices into the queue, ascending). Clauses that
// did not fit were skipped; embedding stops after several consecutive
// failures (the hardware is then effectively full).
type FastResult struct {
	Embedding       *Embedding
	EmbeddedClauses int   // len(EmbeddedSet)
	EmbeddedSet     []int // indices of embedded clauses within the queue
	// EmbeddedNodes are the problem-graph nodes present in the embedding.
	EmbeddedNodes map[int]bool
}

// span is a contiguous row interval on a vertical line; empty when Min > Max.
type span struct{ Min, Max int }

func (s span) empty() bool { return s.Min > s.Max }

func (s span) with(r int) span {
	if s.empty() {
		return span{r, r}
	}
	if r < s.Min {
		return span{r, s.Max}
	}
	if r > s.Max {
		return span{s.Min, r}
	}
	return s
}

func (s span) overlaps(t span) bool {
	return !s.empty() && !t.empty() && s.Min <= t.Max && t.Min <= s.Max
}

// seg is a horizontal line segment owned by a node: columns [C1,C2] of
// horizontal line Line.
type seg struct{ Line, C1, C2 int }

// fastState carries the incremental embedding state of the paper's two-step
// scheme (§IV-B): vertical-line allocation in clause-queue order, and greedy
// bottom-up horizontal segment allocation against connection requirements.
type fastState struct {
	g   *topo.Chimera
	enc *qubo.Encoding

	maxVarsPerLine int
	lineVars       [][]int      // vertical line → nodes allocated to it
	varLine        map[int]int  // logical node → vertical line
	varSpan        map[int]span // logical node → row span on its line
	nextLine       int          // next never-used vertical line

	hUsed    [][]bool          // horizontal line → per-cell-column used flag
	colUsage []int             // per cell column: used horizontal qubits
	segs     map[int][]seg     // node → horizontal segments
	realized map[qubo.Edge]int // problem edge → count of realisations

	// journal records undo actions for the clause currently being added, so
	// a clause that fails mid-way leaves no allocations behind.
	journal []func()
}

// note records an undo action for the current clause.
func (st *fastState) note(undo func()) { st.journal = append(st.journal, undo) }

// rollback undoes every mutation since the start of the current clause.
func (st *fastState) rollback() {
	for i := len(st.journal) - 1; i >= 0; i-- {
		st.journal[i]()
	}
	st.journal = st.journal[:0]
}

// Fast runs the paper's linear-time embedding of the encoding's clauses, in
// order, onto g, skipping clauses that do not fit. Broken qubits are not
// avoided (the paper's scheme assumes a fully working chip; use Minorminer
// for graphs with hard faults). Logical
// variables go to vertical lines (shared by multiple variables on larger
// grids, with disjoint row spans); auxiliary variables and inter-variable
// connections are realised by greedily allocated horizontal segments,
// scanning horizontal lines bottom-up and columns left-to-right.
func Fast(enc *qubo.Encoding, g *topo.Chimera) *FastResult {
	st := newFastState(enc, g)
	var set []int
	failures := 0
	for k := range enc.Clauses {
		if st.addClause(k) {
			set = append(set, k)
			continue
		}
		failures++
		if failures >= 256 {
			break // hardware effectively full
		}
	}
	return st.finish(set)
}

// newFastState initialises the embedding state for one run.
func newFastState(enc *qubo.Encoding, g *topo.Chimera) *fastState {
	st := &fastState{
		g:   g,
		enc: enc,
		// Allow multiple variables per vertical line once all lines are in
		// use; each needs a disjoint row span, so budget ~4 rows per
		// variable.
		maxVarsPerLine: maxInt(1, g.M/4),
		lineVars:       make([][]int, g.NumVerticalLines()),
		varLine:        map[int]int{},
		varSpan:        map[int]span{},
		hUsed:          make([][]bool, g.NumHorizontalLines()),
		colUsage:       make([]int, g.N),
		segs:           map[int][]seg{},
		realized:       map[qubo.Edge]int{},
	}
	for i := range st.hUsed {
		st.hUsed[i] = make([]bool, g.N)
	}
	return st
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// rowOfHLine returns the grid row a horizontal line lives in.
func (st *fastState) rowOfHLine(h int) int { return st.g.M - 1 - h/st.g.L }

// cellCol returns the cell column of a logical node's vertical line.
func (st *fastState) cellCol(node int) int { return st.varLine[node] / st.g.L }

// clauseNodes returns the logical nodes and the auxiliary node (or -1) of
// clause k.
func (st *fastState) clauseNodes(k int) (logical []int, aux int) {
	seen := map[int]bool{}
	for _, l := range st.enc.Clauses[k] {
		n := st.enc.VarNode[l.Var()]
		if !seen[n] {
			seen[n] = true
			logical = append(logical, n)
		}
	}
	return logical, st.enc.AuxNode[k]
}

// clauseEdges returns the problem edges the sub-clauses of clause k require,
// in a deterministic order.
func (st *fastState) clauseEdges(k int) []qubo.Edge {
	set := map[qubo.Edge]bool{}
	var out []qubo.Edge
	for i := range st.enc.Sub {
		if st.enc.Sub[i].Clause != k {
			continue
		}
		for e := range st.enc.Sub[i].Poly.Quad {
			if !set[e] {
				set[e] = true
				out = append(out, e)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// allocLine assigns node a vertical line, preferring fresh lines and
// falling back to sharing. Shared placement balances two goals: staying
// close to prefCol (the clause's other variables, to keep future horizontal
// segments short) and picking occupants with free rows.
func (st *fastState) allocLine(node, prefCol int) bool {
	if st.nextLine < len(st.lineVars) {
		line := st.nextLine
		st.nextLine++
		st.lineVars[line] = append(st.lineVars[line], node)
		st.varLine[node] = line
		st.varSpan[node] = span{1, 0} // empty
		st.note(func() {
			st.nextLine--
			st.lineVars[line] = st.lineVars[line][:len(st.lineVars[line])-1]
			delete(st.varLine, node)
			delete(st.varSpan, node)
		})
		return true
	}
	best, bestScore := -1, -1<<30
	for line := range st.lineVars {
		if len(st.lineVars[line]) >= st.maxVarsPerLine {
			continue
		}
		used := 0
		for _, v := range st.lineVars[line] {
			if s := st.varSpan[v]; !s.empty() {
				used += s.Max - s.Min + 1
			}
		}
		free := st.g.M - used
		col := line / st.g.L
		colDist := col - prefCol
		if colDist < 0 {
			colDist = -colDist
		}
		// Free rows dominate, then anchor capacity (free horizontal qubits
		// in the line's column — a variable in a saturated column cannot be
		// coupled to), then proximity to the clause's other variables.
		anchorFree := st.g.NumHorizontalLines() - st.colUsage[col]
		score := free*4096 + anchorFree*16 - colDist
		if score > bestScore {
			best, bestScore = line, score
		}
	}
	if best < 0 {
		return false
	}
	st.lineVars[best] = append(st.lineVars[best], node)
	st.varLine[node] = best
	st.varSpan[node] = span{1, 0}
	line := best
	st.note(func() {
		st.lineVars[line] = st.lineVars[line][:len(st.lineVars[line])-1]
		delete(st.varLine, node)
		delete(st.varSpan, node)
	})
	return true
}

// canExtendSpan reports whether node's row span may grow to include row r
// without colliding with a cohabitant on the same vertical line.
func (st *fastState) canExtendSpan(node, r int) bool {
	line := st.varLine[node]
	ns := st.varSpan[node].with(r)
	for _, v := range st.lineVars[line] {
		if v == node {
			continue
		}
		if ns.overlaps(st.varSpan[v]) {
			return false
		}
	}
	return true
}

func (st *fastState) extendSpan(node, r int) {
	prev := st.varSpan[node]
	st.varSpan[node] = prev.with(r)
	st.note(func() { st.varSpan[node] = prev })
}

// preferredRow returns the grid row near which node's connections should
// land: cohabitants of a shared vertical line get disjoint row bands
// (slot k of L occupants prefers band k), which avoids span collisions by
// construction.
func (st *fastState) preferredRow(node int) int {
	line, ok := st.varLine[node]
	if !ok {
		return st.g.M - 1
	}
	slot := 0
	for i, v := range st.lineVars[line] {
		if v == node {
			slot = i
			break
		}
	}
	band := st.g.M / st.maxVarsPerLine
	// Slot 0 takes the bottom band (the paper's greedy starts at the bottom
	// horizontal line), later occupants stack upwards.
	return st.g.M - 1 - slot*band - band/2
}

// hLineOrder returns all horizontal line indices sorted by the distance of
// their row from the preferred row, then bottom-up (the paper's scan order
// within a band).
func (st *fastState) hLineOrder(prefRow int) []int {
	n := st.g.NumHorizontalLines()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	dist := func(h int) int {
		d := st.rowOfHLine(h) - prefRow
		if d < 0 {
			d = -d
		}
		return d
	}
	sort.SliceStable(order, func(i, j int) bool {
		di, dj := dist(order[i]), dist(order[j])
		if di != dj {
			return di < dj
		}
		return order[i] < order[j]
	})
	return order
}

// colsFree reports whether columns [c1,c2] of horizontal line h are all free.
func (st *fastState) colsFree(h, c1, c2 int) bool {
	for c := c1; c <= c2; c++ {
		if st.hUsed[h][c] {
			return false
		}
	}
	return true
}

func (st *fastState) takeCols(h, c1, c2 int) {
	var taken []int
	for c := c1; c <= c2; c++ {
		if !st.hUsed[h][c] {
			st.hUsed[h][c] = true
			st.colUsage[c]++
			taken = append(taken, c)
		}
	}
	if len(taken) > 0 {
		st.note(func() {
			for _, c := range taken {
				st.hUsed[h][c] = false
				st.colUsage[c]--
			}
		})
	}
}

// realize records a problem edge as realised (journalled).
func (st *fastState) realize(e qubo.Edge) {
	st.realized[e]++
	st.note(func() { st.realized[e]-- })
}

// addSeg appends a horizontal segment to node's chain (journalled).
func (st *fastState) addSeg(node int, sg seg) {
	st.segs[node] = append(st.segs[node], sg)
	st.note(func() { st.segs[node] = st.segs[node][:len(st.segs[node])-1] })
}

// addClause embeds clause k, returning false when it does not fit; a failed
// clause's partial allocations are rolled back so later clauses see a clean
// state.
func (st *fastState) addClause(k int) bool {
	st.journal = st.journal[:0]
	logical, aux := st.clauseNodes(k)

	// Step 1 (paper): allocate vertical lines to new logical variables in
	// queue order.
	newVars := 0
	for _, n := range logical {
		if _, ok := st.varLine[n]; !ok {
			newVars++
		}
	}
	free := 0
	for line := range st.lineVars {
		if line >= st.nextLine {
			free += st.maxVarsPerLine
		} else if room := st.maxVarsPerLine - len(st.lineVars[line]); room > 0 {
			free += room
		}
	}
	if free < newVars {
		st.rollback()
		return false
	}
	prefCol, prefCount := 0, 0
	for _, n := range logical {
		if _, ok := st.varLine[n]; ok {
			prefCol += st.cellCol(n)
			prefCount++
		}
	}
	if prefCount > 0 {
		prefCol /= prefCount
	} else {
		prefCol = (st.nextLine % len(st.lineVars)) / st.g.L
	}
	for _, n := range logical {
		if _, ok := st.varLine[n]; !ok {
			if !st.allocLine(n, prefCol) {
				st.rollback()
				return false
			}
		}
	}

	// Step 2 (paper): satisfy the clause's connection requirements with
	// horizontal segments, auxiliary first (it connects to every variable of
	// the clause with a single segment). When the anchor columns of the
	// targets are exhausted, fall back to giving the auxiliary a vertical
	// line slot — vertical capacity is plentiful — and routing its couplings
	// like ordinary edges.
	auxOnHorizontal := false
	if aux >= 0 {
		auxOnHorizontal = st.placeAux(k, aux, logical)
		if !auxOnHorizontal {
			if _, ok := st.varLine[aux]; !ok {
				if !st.allocLine(aux, prefCol) {
					st.rollback()
					return false
				}
			}
		}
	}
	for _, e := range st.clauseEdges(k) {
		if auxOnHorizontal && st.isAuxEdge(e, aux) {
			continue // realised by placeAux
		}
		if st.realized[e] > 0 {
			continue
		}
		if !st.routeEdge(e) {
			st.rollback()
			return false
		}
	}
	st.journal = st.journal[:0]
	return true
}

func (st *fastState) isAuxEdge(e qubo.Edge, aux int) bool {
	return aux >= 0 && (e.U == aux || e.V == aux)
}

// placeAux allocates the auxiliary variable of clause k to one horizontal
// segment spanning the cell columns of all clause variables, anchoring each
// variable's vertical chain at the segment's row.
func (st *fastState) placeAux(k, aux int, logical []int) bool {
	cmin, cmax := st.g.N, -1
	for _, n := range logical {
		c := st.cellCol(n)
		if c < cmin {
			cmin = c
		}
		if c > cmax {
			cmax = c
		}
	}
	pref := 0
	for _, n := range logical {
		pref += st.preferredRow(n)
	}
	pref /= len(logical)
	for _, h := range st.hLineOrder(pref) {
		if !st.colsFree(h, cmin, cmax) {
			continue
		}
		r := st.rowOfHLine(h)
		// Extend the spans sequentially so clause variables sharing a
		// vertical line cannot both claim row r; restore on failure.
		saved := make(map[int]span, len(logical))
		ok := true
		for _, n := range logical {
			if _, done := saved[n]; done {
				continue // duplicate variable in the clause
			}
			saved[n] = st.varSpan[n]
			if !st.canExtendSpan(n, r) {
				ok = false
				break
			}
			st.varSpan[n] = st.varSpan[n].with(r)
		}
		if !ok {
			for n, sp := range saved {
				st.varSpan[n] = sp
			}
			continue
		}
		// Journal the net span changes for clause-level rollback.
		for n, sp := range saved {
			prev := sp
			node := n
			st.note(func() { st.varSpan[node] = prev })
		}
		st.takeCols(h, cmin, cmax)
		st.addSeg(aux, seg{h, cmin, cmax})
		for _, n := range logical {
			st.realize(qubo.MkEdge(aux, n))
		}
		return true
	}
	return false
}

// routeEdge realises a logical-logical problem edge, trying in order:
// an already-available coupling via an existing segment, extension of an
// existing segment, and a fresh segment owned by either endpoint.
func (st *fastState) routeEdge(e qubo.Edge) bool {
	u, v := e.U, e.V
	// (a) An existing segment of one endpoint already crosses the other's
	// column: only the other's span needs extending.
	for _, pair := range [2][2]int{{u, v}, {v, u}} {
		owner, target := pair[0], pair[1]
		ct := st.cellCol(target)
		for _, sg := range st.segs[owner] {
			if sg.C1 <= ct && ct <= sg.C2 {
				r := st.rowOfHLine(sg.Line)
				if st.canExtendSpan(target, r) {
					st.extendSpan(target, r)
					st.realize(e)
					return true
				}
			}
		}
	}
	// (b) Extend an existing segment sideways to reach the target column.
	for _, pair := range [2][2]int{{u, v}, {v, u}} {
		owner, target := pair[0], pair[1]
		ct := st.cellCol(target)
		for i, sg := range st.segs[owner] {
			r := st.rowOfHLine(sg.Line)
			if !st.canExtendSpan(target, r) {
				continue
			}
			var nc1, nc2 int
			switch {
			case ct < sg.C1 && st.colsFree(sg.Line, ct, sg.C1-1):
				nc1, nc2 = ct, sg.C2
			case ct > sg.C2 && st.colsFree(sg.Line, sg.C2+1, ct):
				nc1, nc2 = sg.C1, ct
			default:
				continue
			}
			st.takeCols(sg.Line, nc1, sg.C1-1) // empty when extending right
			st.takeCols(sg.Line, sg.C2+1, nc2) // empty when extending left
			prev := st.segs[owner][i]
			st.segs[owner][i] = seg{sg.Line, nc1, nc2}
			ownerCopy, idx := owner, i
			st.note(func() { st.segs[ownerCopy][idx] = prev })
			st.extendSpan(target, r)
			st.realize(e)
			return true
		}
	}
	// (c) A fresh segment from one endpoint's column to the other's.
	for _, pair := range [2][2]int{{u, v}, {v, u}} {
		owner, target := pair[0], pair[1]
		c1, c2 := st.cellCol(owner), st.cellCol(target)
		if c1 > c2 {
			c1, c2 = c2, c1
		}
		pref := (st.preferredRow(owner) + st.preferredRow(target)) / 2
		for _, h := range st.hLineOrder(pref) {
			if !st.colsFree(h, c1, c2) {
				continue
			}
			r := st.rowOfHLine(h)
			// Sequential extension: owner first, then target against the
			// updated state, so two endpoints sharing a vertical line
			// cannot both claim row r.
			if !st.canExtendSpan(owner, r) {
				continue
			}
			prevOwner := st.varSpan[owner]
			st.varSpan[owner] = prevOwner.with(r)
			if !st.canExtendSpan(target, r) {
				st.varSpan[owner] = prevOwner
				continue
			}
			ownerCopy := owner
			st.note(func() { st.varSpan[ownerCopy] = prevOwner })
			st.takeCols(h, c1, c2)
			st.addSeg(owner, seg{h, c1, c2})
			st.extendSpan(target, r)
			st.realize(e)
			return true
		}
	}
	return false
}

// finish assembles the Embedding for the embedded clause set.
func (st *fastState) finish(set []int) *FastResult {
	nodes := map[int]bool{}
	for _, k := range set {
		logical, aux := st.clauseNodes(k)
		for _, n := range logical {
			nodes[n] = true
		}
		if aux >= 0 && st.auxPlaced(aux) {
			nodes[aux] = true
		}
	}
	emb := NewEmbedding()
	sortedNodes := make([]int, 0, len(nodes))
	for n := range nodes {
		sortedNodes = append(sortedNodes, n)
	}
	sort.Ints(sortedNodes)
	for _, n := range sortedNodes {
		var chain []int
		if line, ok := st.varLine[n]; ok {
			s := st.varSpan[n]
			if s.empty() {
				// Variable with no couplings (unit clause): claim one free
				// row on its line.
				for r := 0; r < st.g.M; r++ {
					if st.canExtendSpan(n, r) {
						st.extendSpan(n, r)
						s = st.varSpan[n]
						break
					}
				}
			}
			for r := s.Min; r <= s.Max; r++ {
				chain = append(chain, st.g.VerticalLineQubit(line, r))
			}
		}
		for _, sg := range st.segs[n] {
			for c := sg.C1; c <= sg.C2; c++ {
				chain = append(chain, st.g.HorizontalLineQubit(sg.Line, c))
			}
		}
		if len(chain) > 0 {
			emb.Chains[n] = chain
		}
	}
	return &FastResult{
		Embedding:       emb,
		EmbeddedClauses: len(set),
		EmbeddedSet:     set,
		EmbeddedNodes:   nodes,
	}
}

// auxPlaced reports whether an auxiliary node received any qubits (it always
// has when its clause was embedded; defensive for failed clauses).
func (st *fastState) auxPlaced(aux int) bool {
	if len(st.segs[aux]) > 0 {
		return true
	}
	_, ok := st.varLine[aux]
	return ok
}

// FastEmbedder adapts Fast to the generic Embedder interface used by the
// Fig 13 comparison: the clause queue is encoded and embedded, and the
// result is reported as a (possibly partial) embedding of the problem graph.
type FastEmbedder struct{}

// Name implements Embedder.
func (FastEmbedder) Name() string { return "hyqsat-fast" }

// EmbedClauses embeds a clause queue and reports how many clauses fit.
func (FastEmbedder) EmbedClauses(clauses []cnf.Clause, g *topo.Chimera) (*FastResult, error) {
	enc, err := qubo.Encode(clauses)
	if err != nil {
		return nil, err
	}
	return Fast(enc, g), nil
}
