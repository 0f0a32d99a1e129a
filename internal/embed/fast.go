package embed

import (
	"slices"

	"hyqsat/internal/qubo"
	"hyqsat/internal/topo"
)

// FastResult is the outcome of the paper's fast embedding: a valid embedding
// of EmbeddedSet (clause indices into the queue, ascending). Clauses that
// did not fit were skipped; embedding stops once 256 clauses have failed in
// total (the count is never reset by a later success), at which point the
// hardware is effectively full.
type FastResult struct {
	Embedding       *Embedding
	EmbeddedClauses int   // len(EmbeddedSet)
	EmbeddedSet     []int // indices of embedded clauses within the queue
}

// maxFastFailures is the number of failed clauses after which Fast stops.
const maxFastFailures = 256

// span is a contiguous row interval on a vertical line; empty when Min > Max.
type span struct{ Min, Max int }

var emptySpan = span{1, 0}

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

// undoOp names the kind of mutation an undo record reverts.
type undoOp uint8

const (
	undoLine      undoOp = iota // node a took a slot on its vertical line (b=1: a fresh line)
	undoSpan                    // node a's row span was sp
	undoCol                     // column b of horizontal line a was taken
	undoRealize                 // problem edge {a,b} was realised once more
	undoSegAppend               // node a gained its last segment
	undoSegSet                  // node a's segment b was sg
)

// undo is one journalled mutation of the clause being added.
type undo struct {
	op   undoOp
	a, b int
	sp   span
	sg   seg
}

// fastState carries the incremental embedding state of the paper's two-step
// scheme (§IV-B): vertical-line allocation in clause-queue order, and greedy
// bottom-up horizontal segment allocation against connection requirements.
// Per-node state lives in slices indexed by node (nodes are dense,
// 0..NumNodes-1), and nothing outlives the Fast call.
type fastState struct {
	g   *topo.Chimera
	enc *qubo.Encoding

	maxVarsPerLine int
	lineVars       [][]int // vertical line → nodes allocated to it
	varLine        []int   // node → vertical line, or −1
	varSpan        []span  // node → row span on its line
	nextLine       int     // next never-used vertical line

	hUsed    []bool            // horizontal line h, column c → used, at h·N+c
	colUsage []int             // per cell column: used horizontal qubits
	segs     [][]seg           // node → horizontal segments
	realized map[qubo.Edge]int // problem edge → count of realisations

	// subStart[k] is the first of clause k's sub-clauses in enc.Sub, which
	// lists them grouped by clause in clause order.
	subStart []int
	// lineOrder[p·H:(p+1)·H] lists the H horizontal lines by the distance
	// of their row from row p, then ascending: the scan order for a
	// preferred row p, computed once per run.
	lineOrder []int

	// journal records the mutations of the clause currently being added, so
	// a clause that fails mid-way leaves no allocations behind.
	journal []undo

	// Scratch reused across clauses.
	logicalBuf []int
	edgeBuf    []qubo.Edge
	saved      []nodeSpan
}

type nodeSpan struct {
	node int
	sp   span
}

// note records an undo record for the current clause.
func (st *fastState) note(u undo) { st.journal = append(st.journal, u) }

// rollback undoes every mutation since the start of the current clause.
func (st *fastState) rollback() {
	for i := len(st.journal) - 1; i >= 0; i-- {
		u := st.journal[i]
		switch u.op {
		case undoLine:
			line := st.varLine[u.a]
			st.lineVars[line] = st.lineVars[line][:len(st.lineVars[line])-1]
			st.varLine[u.a] = -1
			st.varSpan[u.a] = emptySpan
			if u.b == 1 {
				st.nextLine--
			}
		case undoSpan:
			st.varSpan[u.a] = u.sp
		case undoCol:
			st.hUsed[u.a*st.g.N+u.b] = false
			st.colUsage[u.b]--
		case undoRealize:
			st.realized[qubo.Edge{U: u.a, V: u.b}]--
		case undoSegAppend:
			st.segs[u.a] = st.segs[u.a][:len(st.segs[u.a])-1]
		case undoSegSet:
			st.segs[u.a][u.b] = u.sg
		}
	}
	st.journal = st.journal[:0]
}

// Fast runs the paper's linear-time embedding of the encoding's clauses, in
// order, onto g, skipping clauses that do not fit and stopping once 256
// clauses have failed in total. Broken qubits are not
// avoided (the paper's scheme assumes a fully working chip; use Minorminer
// for graphs with hard faults). Logical
// variables go to vertical lines (shared by multiple variables on larger
// grids, with disjoint row spans); auxiliary variables and inter-variable
// connections are realised by greedily allocated horizontal segments,
// scanning horizontal lines bottom-up and columns left-to-right.
func Fast(enc *qubo.Encoding, g *topo.Chimera) *FastResult {
	st := newFastState(enc, g)
	set := make([]int, 0, len(enc.Clauses))
	failures := 0
	for k := range enc.Clauses {
		if st.addClause(k) {
			set = append(set, k)
			continue
		}
		failures++
		if failures >= maxFastFailures {
			break // hardware effectively full
		}
	}
	return st.finish(set)
}

// newFastState initialises the embedding state for one run.
func newFastState(enc *qubo.Encoding, g *topo.Chimera) *fastState {
	nodes := enc.NumNodes()
	st := &fastState{
		g:   g,
		enc: enc,
		// Allow multiple variables per vertical line once all lines are in
		// use; each needs a disjoint row span, so budget ~4 rows per
		// variable.
		maxVarsPerLine: max(1, g.M/4),
		lineVars:       make([][]int, g.NumVerticalLines()),
		varLine:        make([]int, nodes),
		varSpan:        make([]span, nodes),
		hUsed:          make([]bool, g.NumHorizontalLines()*g.N),
		colUsage:       make([]int, g.N),
		segs:           make([][]seg, nodes),
		realized:       make(map[qubo.Edge]int, len(enc.Sub)),
		subStart:       make([]int, len(enc.Clauses)+1),
		lineOrder:      hLineOrders(g),
	}
	for n := range st.varLine {
		st.varLine[n] = -1
		st.varSpan[n] = emptySpan
	}
	for i := range enc.Sub {
		st.subStart[enc.Sub[i].Clause+1] = i + 1
	}
	for k := 1; k < len(st.subStart); k++ {
		if st.subStart[k] < st.subStart[k-1] {
			st.subStart[k] = st.subStart[k-1] // clause without sub-clauses
		}
	}
	return st
}

// hLineOrders returns, for every preferred row p, the horizontal lines
// sorted by the distance of their row from p, then by ascending index (the
// paper's bottom-up scan within a band). Lines of row r are the L
// consecutive indices from (M−1−r)·L, so walking outward from p (row p+d
// before row p−d, whose lines have the larger indices) yields that order
// without sorting.
func hLineOrders(g *topo.Chimera) []int {
	nH := g.NumHorizontalLines()
	order := make([]int, 0, g.M*nH)
	row := func(r int) {
		if r < 0 || r >= g.M {
			return
		}
		for h := (g.M - 1 - r) * g.L; h < (g.M-r)*g.L; h++ {
			order = append(order, h)
		}
	}
	for p := 0; p < g.M; p++ {
		row(p)
		for d := 1; d < g.M; d++ {
			row(p + d)
			row(p - d)
		}
	}
	return order
}

// rowOfHLine returns the grid row a horizontal line lives in.
func (st *fastState) rowOfHLine(h int) int { return st.g.M - 1 - h/st.g.L }

// cellCol returns the cell column of a logical node's vertical line.
func (st *fastState) cellCol(node int) int { return st.varLine[node] / st.g.L }

// clauseNodes returns the distinct logical nodes (in literal order) and the
// auxiliary node (or -1) of clause k. The slice is scratch, valid until the
// next call.
func (st *fastState) clauseNodes(k int) (logical []int, aux int) {
	logical = st.logicalBuf[:0]
	for _, l := range st.enc.Clauses[k] {
		n := st.enc.VarNode[l.Var()]
		if !slices.Contains(logical, n) {
			logical = append(logical, n)
		}
	}
	st.logicalBuf = logical
	return logical, st.enc.AuxNode[k]
}

// clauseEdges returns the problem edges the sub-clauses of clause k require,
// ascending. The slice is scratch, valid until the next call.
func (st *fastState) clauseEdges(k int) []qubo.Edge {
	out := st.edgeBuf[:0]
	for i := st.subStart[k]; i < st.subStart[k+1]; i++ {
		for e := range st.enc.Sub[i].Poly.Quad {
			// Insert e in order unless present (a clause has at most four
			// edges).
			j := len(out)
			for j > 0 && edgeLess(e, out[j-1]) {
				j--
			}
			if j > 0 && out[j-1] == e {
				continue
			}
			out = append(out, qubo.Edge{})
			copy(out[j+1:], out[j:])
			out[j] = e
		}
	}
	st.edgeBuf = out
	return out
}

func edgeLess(a, b qubo.Edge) bool {
	if a.U != b.U {
		return a.U < b.U
	}
	return a.V < b.V
}

// allocLine assigns node a vertical line, preferring fresh lines and
// falling back to sharing. Shared placement balances two goals: staying
// close to prefCol (the clause's other variables, to keep future horizontal
// segments short) and picking occupants with free rows.
func (st *fastState) allocLine(node, prefCol int) bool {
	if st.nextLine < len(st.lineVars) {
		st.takeLine(node, st.nextLine, true)
		st.nextLine++
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
	st.takeLine(node, best, false)
	return true
}

// takeLine gives node the next slot of vertical line (journalled; fresh
// when the line was never used before).
func (st *fastState) takeLine(node, line int, fresh bool) {
	st.lineVars[line] = append(st.lineVars[line], node)
	st.varLine[node] = line
	st.varSpan[node] = emptySpan
	u := undo{op: undoLine, a: node}
	if fresh {
		u.b = 1
	}
	st.note(u)
}

// canExtendSpan reports whether node's row span may grow to include row r
// without colliding with a cohabitant on the same vertical line.
func (st *fastState) canExtendSpan(node, r int) bool {
	ns := st.varSpan[node].with(r)
	for _, v := range st.lineVars[st.varLine[node]] {
		if v == node {
			continue
		}
		if ns.overlaps(st.varSpan[v]) {
			return false
		}
	}
	return true
}

// extendSpan grows node's row span to include row r (journalled).
func (st *fastState) extendSpan(node, r int) {
	st.note(undo{op: undoSpan, a: node, sp: st.varSpan[node]})
	st.varSpan[node] = st.varSpan[node].with(r)
}

// preferredRow returns the grid row near which node's connections should
// land: cohabitants of a shared vertical line get disjoint row bands
// (slot k of L occupants prefers band k), which avoids span collisions by
// construction.
func (st *fastState) preferredRow(node int) int {
	line := st.varLine[node]
	if line < 0 {
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
// within a band). A row outside the grid orders lines exactly as the
// nearest grid row does.
func (st *fastState) hLineOrder(prefRow int) []int {
	prefRow = min(max(prefRow, 0), st.g.M-1)
	nH := st.g.NumHorizontalLines()
	return st.lineOrder[prefRow*nH : (prefRow+1)*nH]
}

// colsFree reports whether columns [c1,c2] of horizontal line h are all free.
func (st *fastState) colsFree(h, c1, c2 int) bool {
	row := st.hUsed[h*st.g.N : (h+1)*st.g.N]
	for c := c1; c <= c2; c++ {
		if row[c] {
			return false
		}
	}
	return true
}

func (st *fastState) takeCols(h, c1, c2 int) {
	row := st.hUsed[h*st.g.N : (h+1)*st.g.N]
	for c := c1; c <= c2; c++ {
		if !row[c] {
			row[c] = true
			st.colUsage[c]++
			st.note(undo{op: undoCol, a: h, b: c})
		}
	}
}

// realize records a problem edge as realised (journalled).
func (st *fastState) realize(e qubo.Edge) {
	st.realized[e]++
	st.note(undo{op: undoRealize, a: e.U, b: e.V})
}

// addSeg appends a horizontal segment to node's chain (journalled).
func (st *fastState) addSeg(node int, sg seg) {
	st.segs[node] = append(st.segs[node], sg)
	st.note(undo{op: undoSegAppend, a: node})
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
		if st.varLine[n] < 0 {
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
		if st.varLine[n] >= 0 {
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
		if st.varLine[n] < 0 {
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
		auxOnHorizontal = st.placeAux(aux, logical)
		if !auxOnHorizontal {
			if st.varLine[aux] < 0 {
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

// placeAux allocates the auxiliary variable of a clause to one horizontal
// segment spanning the cell columns of all the clause's (distinct) logical
// variables, anchoring each variable's vertical chain at the segment's row.
func (st *fastState) placeAux(aux int, logical []int) bool {
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
		saved := st.saved[:0]
		ok := true
		for _, n := range logical {
			saved = append(saved, nodeSpan{n, st.varSpan[n]})
			if !st.canExtendSpan(n, r) {
				ok = false
				break
			}
			st.varSpan[n] = st.varSpan[n].with(r)
		}
		st.saved = saved
		if !ok {
			for _, s := range saved {
				st.varSpan[s.node] = s.sp
			}
			continue
		}
		// Journal the net span changes for clause-level rollback.
		for _, s := range saved {
			st.note(undo{op: undoSpan, a: s.node, sp: s.sp})
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
			st.note(undo{op: undoSegSet, a: owner, b: i, sg: sg})
			st.segs[owner][i] = seg{sg.Line, nc1, nc2}
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
			st.note(undo{op: undoSpan, a: owner, sp: prevOwner})
			st.takeCols(h, c1, c2)
			st.addSeg(owner, seg{h, c1, c2})
			st.extendSpan(target, r)
			st.realize(e)
			return true
		}
	}
	return false
}

// finish assembles the Embedding for the embedded clause set: every logical
// node of an embedded clause and every placed auxiliary, in ascending node
// order, with all chains cut from one backing array.
func (st *fastState) finish(set []int) *FastResult {
	inEmb := make([]bool, len(st.varLine))
	for _, k := range set {
		logical, aux := st.clauseNodes(k)
		for _, n := range logical {
			inEmb[n] = true
		}
		if aux >= 0 && st.auxPlaced(aux) {
			inEmb[aux] = true
		}
	}
	numChains, total := 0, 0
	for n, in := range inEmb {
		if !in {
			continue
		}
		if st.varLine[n] >= 0 && st.varSpan[n].empty() {
			// Variable with no couplings (unit clause): claim one free row
			// on its line.
			for r := 0; r < st.g.M; r++ {
				if st.canExtendSpan(n, r) {
					st.extendSpan(n, r)
					break
				}
			}
		}
		size := st.chainSize(n)
		if size > 0 {
			numChains++
			total += size
		}
	}
	emb := &Embedding{Chains: make(map[int][]int, numChains)}
	qubits := make([]int, 0, total)
	for n, in := range inEmb {
		if !in {
			continue
		}
		lo := len(qubits)
		if line := st.varLine[n]; line >= 0 {
			s := st.varSpan[n]
			for r := s.Min; r <= s.Max; r++ {
				qubits = append(qubits, st.g.VerticalLineQubit(line, r))
			}
		}
		for _, sg := range st.segs[n] {
			for c := sg.C1; c <= sg.C2; c++ {
				qubits = append(qubits, st.g.HorizontalLineQubit(sg.Line, c))
			}
		}
		if len(qubits) > lo {
			emb.Chains[n] = qubits[lo:len(qubits):len(qubits)]
		}
	}
	return &FastResult{
		Embedding:       emb,
		EmbeddedClauses: len(set),
		EmbeddedSet:     set,
	}
}

// chainSize returns the number of qubits in node's chain.
func (st *fastState) chainSize(n int) int {
	size := 0
	if st.varLine[n] >= 0 {
		if s := st.varSpan[n]; !s.empty() {
			size += s.Max - s.Min + 1
		}
	}
	for _, sg := range st.segs[n] {
		size += sg.C2 - sg.C1 + 1
	}
	return size
}

// auxPlaced reports whether an auxiliary node received any qubits (it always
// has when its clause was embedded; defensive for failed clauses).
func (st *fastState) auxPlaced(aux int) bool {
	return len(st.segs[aux]) > 0 || st.varLine[aux] >= 0
}
