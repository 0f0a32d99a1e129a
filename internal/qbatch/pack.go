// Package qbatch coalesces concurrent QPU sample requests into single device
// programs. The paper's timing model charges ProgrammingTime once per
// program, and its clause-tiling insight — many small 3-clause QUBOs embedded
// side by side on disjoint Chimera unit cells — generalizes across requests:
// independent embedded problems whose gadgets are tile-local can be relocated
// onto disjoint free tiles of one chip and annealed together, so a batch of k
// requests pays for one program instead of k.
//
// The package has two layers: the Packer/Packing pair places member problems
// onto disjoint tile regions (first-fit over free unit cells, zero-alloc
// renaming in steady state); the Scheduler collects concurrent requests for
// a short window, packs them, runs one batched device access, and charges
// each member a pro-rata share of the single program's access time.
package qbatch

import (
	"fmt"

	"hyqsat/internal/anneal"
	"hyqsat/internal/topo"
)

// PackReason classifies why a problem could not be co-tiled.
type PackReason string

const (
	// ReasonTopology: the problem was embedded for a different hardware
	// graph than the packer's. Co-tiling problems across topologies would
	// silently mis-place qubits, so this is a hard refusal — the request is
	// rejected, not served solo.
	ReasonTopology PackReason = "topology"
	// ReasonLayout: the problem is not tile-local (a chain or coupler spans
	// unit cells, or a qubit lies outside every tile), so it cannot be
	// relocated by tile renaming. The scheduler serves such requests as
	// their own program at their original placement.
	ReasonLayout PackReason = "layout"
	// ReasonCapacity: the chip has no compatible free tiles left in this
	// packing. The scheduler flushes the current program and retries the
	// member in the next one.
	ReasonCapacity PackReason = "capacity"
)

// PackError reports why a member could not join a packing.
type PackError struct {
	Reason PackReason
	Detail string
}

func (e *PackError) Error() string {
	return fmt.Sprintf("qbatch: cannot pack (%s): %s", e.Reason, e.Detail)
}

// maxTileSide bounds the per-side qubit count of a unit cell so tile usage
// fits a uint32 position mask. Chimera and Pegasus cells are K_{4,4}; the
// bound leaves generous headroom.
const maxTileSide = 32

// Packer holds the immutable per-topology placement tables: for every qubit
// its (tile, side, position) coordinate, and for every tile the bitmask of
// working positions per side. A Packer is safe for concurrent use; the
// mutable packing state lives in Packing.
type Packer struct {
	g     topo.Topology
	tiles []topo.Tile
	// qubitTile[q] is the tile index of qubit q, or -1 when q lies outside
	// every unit cell (such qubits cannot be relocated by tile renaming).
	qubitTile []int32
	qubitSide []int8 // 0 = A side, 1 = B side
	qubitPos  []int8 // position within the side's slice
	workA     []uint32
	workB     []uint32
}

// NewPacker precomputes placement tables for g. It errors when g has no
// tiles or a tile side exceeds the position-mask width.
func NewPacker(g topo.Topology) (*Packer, error) {
	tiles := g.Tiles()
	if len(tiles) == 0 {
		return nil, fmt.Errorf("qbatch: topology %s has no unit cells to pack onto", g.Name())
	}
	p := &Packer{
		g:         g,
		tiles:     tiles,
		qubitTile: make([]int32, g.NumQubits()),
		qubitSide: make([]int8, g.NumQubits()),
		qubitPos:  make([]int8, g.NumQubits()),
		workA:     make([]uint32, len(tiles)),
		workB:     make([]uint32, len(tiles)),
	}
	for q := range p.qubitTile {
		p.qubitTile[q] = -1
	}
	for t, tile := range tiles {
		if len(tile.A) > maxTileSide || len(tile.B) > maxTileSide {
			return nil, fmt.Errorf("qbatch: topology %s has a %d/%d-qubit tile side, beyond the %d-bit mask",
				g.Name(), len(tile.A), len(tile.B), maxTileSide)
		}
		for pos, q := range tile.A {
			p.qubitTile[q] = int32(t)
			p.qubitSide[q] = 0
			p.qubitPos[q] = int8(pos)
			if !g.IsBroken(q) {
				p.workA[t] |= 1 << pos
			}
		}
		for pos, q := range tile.B {
			p.qubitTile[q] = int32(t)
			p.qubitSide[q] = 1
			p.qubitPos[q] = int8(pos)
			if !g.IsBroken(q) {
				p.workB[t] |= 1 << pos
			}
		}
	}
	return p, nil
}

// Topology returns the hardware graph the packer places onto.
func (p *Packer) Topology() topo.Topology { return p.g }

// Compatible reports whether ep was embedded for (a graph interchangeable
// with) the packer's topology.
func (p *Packer) Compatible(ep *anneal.EmbeddedProblem) error {
	g := ep.Graph
	if g == p.g {
		return nil
	}
	if g == nil {
		return &PackError{Reason: ReasonTopology, Detail: "problem names no hardware graph"}
	}
	if g.Name() != p.g.Name() || g.NumQubits() != p.g.NumQubits() {
		return &PackError{Reason: ReasonTopology, Detail: fmt.Sprintf(
			"problem embedded for %s/%d qubits, device is %s/%d qubits",
			g.Name(), g.NumQubits(), p.g.Name(), p.g.NumQubits())}
	}
	return nil
}

// memberTile is one source tile used by the member currently being added:
// which tile, which positions of each side it occupies, and (once chosen)
// the free target tile it will be renamed onto.
type memberTile struct {
	src    int32
	usedA  uint32
	usedB  uint32
	target int32
}

// placement records where one committed member landed, as offsets into the
// packing's flat buffers (the buffers may be reallocated by later Adds, so
// views are materialized on demand by Placement).
type placement struct {
	qubitOff int // offset into qubitBuf; length = len(member.Qubits)
	qubitLen int
	tileOff  int // offset into tileBuf; length = source-tile count
	tileLen  int
}

// Placement is where one packed member landed: the relocated physical qubit
// id per active-qubit index and the target tiles occupied. The slices are
// views into the packing's buffers — valid until the next Add or Reset.
type Placement struct {
	QubitMap []int
	Tiles    []int32
}

// Packing is one in-progress co-tiling of member problems onto disjoint
// regions of the packer's topology. It is not safe for concurrent use; the
// scheduler pools packings. After warm-up, an Add/Reset cycle at a given
// batch shape allocates nothing.
type Packing struct {
	p *Packer

	// Tile occupancy is epoch-stamped so Reset is O(1): tile t is occupied
	// by a committed member iff occStamp[t] == epoch.
	epoch    uint32
	occStamp []uint32

	// Per-Add scratch, epoch-stamped likewise. srcIx maps a source tile to
	// its index in memTiles for the Add in flight; chosenStamp marks target
	// tiles tentatively selected by the Add in flight, so a failed Add
	// leaves no trace (the commit is transactional).
	addEpoch    uint32
	srcStamp    []uint32
	srcIx       []int32
	chosenStamp []uint32
	memTiles    []memberTile

	placements []placement
	qubitBuf   []int
	tileBuf    []int32
}

// NewPacking returns an empty packing over the packer's topology.
func (p *Packer) NewPacking() *Packing {
	n := len(p.tiles)
	return &Packing{
		p:           p,
		epoch:       1,
		occStamp:    make([]uint32, n),
		addEpoch:    1,
		srcStamp:    make([]uint32, n),
		srcIx:       make([]int32, n),
		chosenStamp: make([]uint32, n),
	}
}

// Reset empties the packing, retaining every buffer for reuse.
func (k *Packing) Reset() {
	k.epoch++
	k.placements = k.placements[:0]
	k.qubitBuf = k.qubitBuf[:0]
	k.tileBuf = k.tileBuf[:0]
}

// Len returns the number of committed members.
func (k *Packing) Len() int { return len(k.placements) }

// Placement returns where committed member i landed.
func (k *Packing) Placement(i int) Placement {
	pl := k.placements[i]
	return Placement{
		QubitMap: k.qubitBuf[pl.qubitOff : pl.qubitOff+pl.qubitLen : pl.qubitOff+pl.qubitLen],
		Tiles:    k.tileBuf[pl.tileOff : pl.tileOff+pl.tileLen : pl.tileOff+pl.tileLen],
	}
}

// Add attempts to co-tile ep into the packing. On success the member is
// committed onto free tiles disjoint from every earlier member and Add
// returns the member index. On failure the packing is unchanged and the
// error is a *PackError whose Reason directs the caller: ReasonTopology is
// a hard refusal, ReasonLayout means the problem cannot be placed on this
// topology at all, ReasonCapacity means this packing is currently too full
// (retrying on an empty packing always succeeds, via the identity
// placement).
//
// Two relocation modes cover the two shapes that occur in practice:
//
//   - Tile-local members (every coupler joins the A and B side of one unit
//     cell — single clause gadgets, variable-disjoint clause queues) are
//     renamed tile-by-tile, first-fit over free cells: the Tile contract
//     guarantees every working A×B coupler exists in any cell, so any
//     mask-compatible free cell works.
//   - Members with inter-tile couplers (chains following line couplers
//     across cells) are relocated by one uniform tile translation, chosen
//     first-fit and verified coupler-by-coupler against the topology — a
//     translation that crosses a grid boundary or lands on a broken coupler
//     is rejected by the check, never silently mis-programmed. The identity
//     translation is always among the candidates, so a member whose source
//     cells are free keeps its original placement.
func (k *Packing) Add(ep *anneal.EmbeddedProblem) (int, error) {
	if err := k.p.Compatible(ep); err != nil {
		return 0, err
	}
	k.addEpoch++
	p := k.p
	qubits := ep.Qubits
	adjStart, adjOther := ep.Adjacency()

	// Pass 1: resolve every active qubit to a (tile, side, pos) coordinate
	// and accumulate per-source-tile usage masks.
	k.memTiles = k.memTiles[:0]
	for _, q := range qubits {
		if q < 0 || q >= len(p.qubitTile) {
			return 0, &PackError{Reason: ReasonLayout,
				Detail: fmt.Sprintf("qubit %d outside the %d-qubit device", q, len(p.qubitTile))}
		}
		t := p.qubitTile[q]
		if t < 0 {
			return 0, &PackError{Reason: ReasonLayout,
				Detail: fmt.Sprintf("qubit %d lies outside every unit cell", q)}
		}
		if k.srcStamp[t] != k.addEpoch {
			k.srcStamp[t] = k.addEpoch
			k.srcIx[t] = int32(len(k.memTiles))
			k.memTiles = append(k.memTiles, memberTile{src: t, target: -1})
		}
		mt := &k.memTiles[k.srcIx[t]]
		if p.qubitSide[q] == 0 {
			mt.usedA |= 1 << p.qubitPos[q]
		} else {
			mt.usedB |= 1 << p.qubitPos[q]
		}
	}

	// Pass 2: classify the member. Tile-local means every coupler joins the
	// two sides of one unit cell — the only couplers an arbitrary cell
	// renaming is guaranteed to preserve.
	tileLocal := true
	for i, qi := range qubits {
		for e := adjStart[i]; e < adjStart[i+1]; e++ {
			qo := qubits[adjOther[e]]
			if p.qubitTile[qi] != p.qubitTile[qo] || p.qubitSide[qi] == p.qubitSide[qo] {
				tileLocal = false
				break
			}
		}
		if !tileLocal {
			break
		}
	}

	// Pass 3: choose target tiles, tentatively (chosenStamp) so a failed
	// Add leaves the packing untouched.
	if tileLocal {
		if err := k.placePerTile(); err != nil {
			return 0, err
		}
	} else {
		if err := k.placeTranslated(ep); err != nil {
			return 0, err
		}
	}

	// Commit: occupy the chosen tiles and materialize the relocation map.
	qubitOff, tileOff := len(k.qubitBuf), len(k.tileBuf)
	for _, mt := range k.memTiles {
		k.occStamp[mt.target] = k.epoch
		k.tileBuf = append(k.tileBuf, mt.target)
	}
	for _, q := range qubits {
		mt := k.memTiles[k.srcIx[p.qubitTile[q]]]
		tile := p.tiles[mt.target]
		if p.qubitSide[q] == 0 {
			k.qubitBuf = append(k.qubitBuf, tile.A[p.qubitPos[q]])
		} else {
			k.qubitBuf = append(k.qubitBuf, tile.B[p.qubitPos[q]])
		}
	}
	idx := len(k.placements)
	k.placements = append(k.placements, placement{
		qubitOff: qubitOff, qubitLen: len(qubits),
		tileOff: tileOff, tileLen: len(k.memTiles),
	})
	return idx, nil
}

// placePerTile first-fits each source tile of the member in flight onto any
// free, working-compatible cell, independently.
func (k *Packing) placePerTile() error {
	p := k.p
	for j := range k.memTiles {
		mt := &k.memTiles[j]
		target := int32(-1)
		for t := range p.tiles {
			if k.occStamp[t] == k.epoch || k.chosenStamp[t] == k.addEpoch {
				continue
			}
			if mt.usedA&^p.workA[t] != 0 || mt.usedB&^p.workB[t] != 0 {
				continue
			}
			target = int32(t)
			break
		}
		if target < 0 {
			return &PackError{Reason: ReasonCapacity,
				Detail: fmt.Sprintf("no free cell fits member cell %d (%d members already placed)",
					mt.src, len(k.placements))}
		}
		k.chosenStamp[target] = k.addEpoch
		mt.target = target
	}
	return nil
}

// placeTranslated first-fits one uniform tile translation for a member with
// inter-tile couplers: every source cell shifts by the same delta, and every
// coupler of the member is re-checked against the topology at the shifted
// position. Candidate deltas put the member's first source cell on each cell
// of the chip in order; delta 0 (the original placement) is among them.
func (k *Packing) placeTranslated(ep *anneal.EmbeddedProblem) error {
	p := k.p
	adjStart, adjOther := ep.Adjacency()
	n := int32(len(p.tiles))
	first := k.memTiles[0].src
cand:
	for t0 := int32(0); t0 < n; t0++ {
		delta := t0 - first
		for j := range k.memTiles {
			mt := &k.memTiles[j]
			t := mt.src + delta
			if t < 0 || t >= n || k.occStamp[t] == k.epoch {
				continue cand
			}
			if mt.usedA&^p.workA[t] != 0 || mt.usedB&^p.workB[t] != 0 {
				continue cand
			}
		}
		// Masks fit; verify every coupler survives the translation. This
		// catches grid-boundary wraps (the tile order is row-major, so a
		// delta can slide a member across a row edge) and any couplers the
		// Tile contract does not guarantee.
		for i, q := range ep.Qubits {
			ri := k.relocated(q, delta)
			for e := adjStart[i]; e < adjStart[i+1]; e++ {
				ro := k.relocated(ep.Qubits[adjOther[e]], delta)
				if !p.g.Coupled(ri, ro) {
					continue cand
				}
			}
		}
		for j := range k.memTiles {
			k.memTiles[j].target = k.memTiles[j].src + delta
			k.chosenStamp[k.memTiles[j].target] = k.addEpoch
		}
		return nil
	}
	return &PackError{Reason: ReasonCapacity,
		Detail: fmt.Sprintf("no translation fits the %d-cell member (%d members already placed)",
			len(k.memTiles), len(k.placements))}
}

// relocated returns the physical qubit id of q after a tile translation by
// delta: the same (side, position) coordinate in cell tile(q)+delta.
func (k *Packing) relocated(q int, delta int32) int {
	p := k.p
	tile := p.tiles[p.qubitTile[q]+delta]
	if p.qubitSide[q] == 0 {
		return tile.A[p.qubitPos[q]]
	}
	return tile.B[p.qubitPos[q]]
}
