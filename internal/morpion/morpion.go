// Package morpion implements the Morpion Solitaire puzzle, the evaluation
// domain of the paper.
//
// Morpion Solitaire is played on a grid of lattice points. The initial
// position is a cross of 36 points. A move places one new point and draws a
// line of k consecutive points (k=5 in the paper's version) through it:
// every other point of the line must already be present. Lines are
// horizontal, vertical or diagonal. The goal is to play as many moves as
// possible; the game score is the number of moves played.
//
// Two families of rules restrict how lines in the same direction may relate:
//
//   - Touching (T): two lines in the same direction may share an endpoint
//     but not a unit segment (link) of the grid.
//   - Disjoint (D): two lines in the same direction may not share any point.
//
// The paper uses the 5D (disjoint, line length 5) variant; 5T, 4T and 4D are
// the standard companions from the literature (Demaine et al. 2006) and are
// used here as cheaper stand-ins for scaled-down experiments. Morpion
// Solitaire is NP-hard (Demaine et al.), has a large state space and no good
// heuristic, which is exactly why the paper evaluates nested Monte-Carlo
// search on it.
package morpion

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/game"
	"repro/internal/rng"
)

// Incremental position hashing (game.Hasher). The hash is a Zobrist XOR
// over the cells of the five planes (occupancy plus the four per-direction
// usage planes) on top of a per-variant base salt. The feature key of cell
// idx of plane p is rng.Mix(planeSalt[p], idx), tabulated per board (see
// board) so Play and Undo look keys up instead of mixing them.
const hashSalt = 0x4d6f7270696f6e88 // "Morpion" flavoured

// planeSalt[p] salts the feature keys of plane p (0 = occupancy, 1+d =
// usage of direction d), fixed at init so hashes are stable across
// processes.
var planeSalt [1 + numDirs]uint64

func init() {
	for p := range planeSalt {
		planeSalt[p] = rng.Fold(hashSalt, uint64(p))
	}
}

// board tabulates what depends only on the board side and the line
// length, so the kernels below neither divide nor hash. One board per
// (side, length) is built per process and shared by pointer by every state
// of that geometry.
type board struct {
	step [numDirs]int // cell index delta of one step along each direction
	// keys[p*w*w+idx] is the Zobrist key of cell idx of plane p.
	keys []uint64
	// reach[idx] holds one byte per direction d, at bit 8*d: the low nibble
	// is the number of steps the grid allows from idx against d, the high
	// nibble along d, both capped at LineLen-1.
	reach []uint32
	// wins[occ], for the occupancy word of the 2L-1 cells centred on a
	// point (see addMovesThrough), has bit k set iff the line holding the
	// point at offset k has exactly one empty cell.
	wins []uint8
}

var boards = struct {
	sync.Mutex
	m map[[2]int]*board
}{m: map[[2]int]*board{}}

func boardFor(w, lineLen int) *board {
	boards.Lock()
	defer boards.Unlock()
	g := boards.m[[2]int{w, lineLen}]
	if g != nil {
		return g
	}
	cells := w * w
	g = &board{
		keys:  make([]uint64, (1+numDirs)*cells),
		reach: make([]uint32, cells),
		wins:  make([]uint8, 1<<(2*lineLen-1)),
	}
	for occ := range g.wins {
		for k := 0; k < lineLen; k++ {
			if bits.OnesCount(uint(occ)>>(lineLen-1-k)&(1<<lineLen-1)) == lineLen-1 {
				g.wins[occ] |= 1 << k
			}
		}
	}
	for p, salt := range planeSalt {
		for idx := 0; idx < cells; idx++ {
			g.keys[p*cells+idx] = rng.Mix(salt, uint64(idx))
		}
	}
	// room is the number of steps from coordinate c to the border in the
	// direction of sign, capped at lineLen-1 (no border in direction 0).
	room := func(c, sign int) int {
		switch {
		case sign < 0:
			return min(c, lineLen-1)
		case sign > 0:
			return min(w-1-c, lineLen-1)
		}
		return lineLen - 1
	}
	for d := 0; d < numDirs; d++ {
		dx, dy := dirDX[d], dirDY[d]
		g.step[d] = dy*w + dx
		for idx := 0; idx < cells; idx++ {
			x, y := idx%w, idx/w
			back := min(room(x, -dx), room(y, -dy))
			fwd := min(room(x, dx), room(y, dy))
			g.reach[idx] |= uint32(back|fwd<<4) << (8 * d)
		}
	}
	boards.m[[2]int{w, lineLen}] = g
	return g
}

// baseHash returns the variant-dependent starting value of the hash.
func baseHash(v Variant, w int) uint64 {
	disjoint := uint64(0)
	if v.Disjoint {
		disjoint = 1
	}
	return rng.Fold(hashSalt, uint64(v.LineLen), disjoint, uint64(w))
}

// Dir indexes the four line directions.
type Dir uint8

// The four directions a line can take. Their unit deltas are in dirDX/dirDY.
const (
	DirE    Dir = iota // east: dx=1, dy=0 (horizontal)
	DirS               // south: dx=0, dy=1 (vertical)
	DirSE              // south-east: dx=1, dy=1 (main diagonal)
	DirNE              // north-east: dx=1, dy=-1 (anti-diagonal)
	numDirs = 4
)

var dirDX = [numDirs]int{1, 0, 1, 1}
var dirDY = [numDirs]int{0, 1, 1, -1}
var dirNames = [numDirs]string{"E", "S", "SE", "NE"}

// String returns the compass name of the direction.
func (d Dir) String() string {
	if d < numDirs {
		return dirNames[d]
	}
	return fmt.Sprintf("Dir(%d)", uint8(d))
}

// Variant describes one rule set of Morpion Solitaire.
type Variant struct {
	Name string
	// LineLen is the number of points in a line (4 or 5 in the standard
	// variants).
	LineLen int
	// Disjoint selects the D rule (no shared point between same-direction
	// lines); false selects the T rule (no shared link).
	Disjoint bool
	// BoardSize is the side of the square working grid. It is sized so that
	// record-length games cannot reach the border.
	BoardSize int
}

// The four standard variants. The paper's experiments all use Var5D;
// Var4D and Var4T are the scaled-down stand-ins used by the fast
// experiment presets, and Var5T is the variant with the longest known games.
var (
	Var5T = Variant{Name: "5T", LineLen: 5, Disjoint: false, BoardSize: 64}
	Var5D = Variant{Name: "5D", LineLen: 5, Disjoint: true, BoardSize: 52}
	Var4T = Variant{Name: "4T", LineLen: 4, Disjoint: false, BoardSize: 40}
	Var4D = Variant{Name: "4D", LineLen: 4, Disjoint: true, BoardSize: 40}
)

// VariantByName returns the standard variant with the given name.
func VariantByName(name string) (Variant, error) {
	switch name {
	case "5T":
		return Var5T, nil
	case "5D":
		return Var5D, nil
	case "4T":
		return Var4T, nil
	case "4D":
		return Var4D, nil
	}
	return Variant{}, fmt.Errorf("morpion: unknown variant %q (want 5T, 5D, 4T or 4D)", name)
}

// crossRows5 describes the standard 36-point initial cross of the
// lines-of-5 variants inside its 10×10 bounding box; crossRows5[y] lists the
// x coordinates of initial points.
var crossRows5 = [][]int{
	{3, 4, 5, 6},
	{3, 6},
	{3, 6},
	{0, 1, 2, 3, 6, 7, 8, 9},
	{0, 9},
	{0, 9},
	{0, 1, 2, 3, 6, 7, 8, 9},
	{3, 6},
	{3, 6},
	{3, 4, 5, 6},
}

// crossRows4 is the scaled analogue for the lines-of-4 variants: the same
// Greek-cross outline built from segments of 3 points (24 points, 7×7 box).
var crossRows4 = [][]int{
	{2, 3, 4},
	{2, 4},
	{0, 1, 2, 4, 5, 6},
	{0, 6},
	{0, 1, 2, 4, 5, 6},
	{2, 4},
	{2, 3, 4},
}

// crossFor returns the initial cross layout for a line length.
func crossFor(lineLen int) [][]int {
	if lineLen <= 4 {
		return crossRows4
	}
	return crossRows5
}

// CrossPoints returns the number of points in the initial cross of the
// variant (36 for lines of 5, 24 for lines of 4).
func (v Variant) CrossPoints() int {
	n := 0
	for _, row := range crossFor(v.LineLen) {
		n += len(row)
	}
	return n
}

// State is a Morpion Solitaire position with incrementally maintained legal
// moves. It implements game.State. The zero value is not usable; call New.
type State struct {
	v Variant
	w int    // board side
	g *board // tables of the (w, v.LineLen) geometry

	// planes is the single backing array for the five cell planes below;
	// keeping them contiguous makes Clone a single allocation plus copy,
	// which matters because nested search clones on every candidate move.
	planes []uint8
	// occ[i] is nonzero when grid cell i holds a point.
	occ []uint8
	// used[d][i] marks, for direction d, either the point i (Disjoint rule)
	// or the unit link whose lower endpoint is i (Touching rule) as consumed
	// by an existing line.
	used [numDirs][]uint8

	moves []game.Move // current legal moves, deterministic order
	seq   []game.Move // moves played since the initial position

	// Undo history. Every Play records one histEntry; the moves it removed
	// from the legal list (and their original indices) are pushed onto the
	// histMoves/histIdx arena stacks rather than per-entry slices, so the
	// bookkeeping allocates nothing once the arenas have grown to the
	// game's depth — Play/Undo is allocation-free in steady state, which is
	// what lets nested search traverse with Undo instead of Clone.
	hist      []histEntry
	histMoves []game.Move // arena: removed moves, stacked per entry
	histIdx   []int32     // arena: their original list positions, ascending

	// originX/Y is the top-left corner of the cross's bounding box, used by
	// the human-readable notation so coordinates are board-size independent.
	originX, originY int

	// hash is the incremental Zobrist hash of the plane content, maintained
	// by Play and Undo. See game.Hasher.
	hash uint64
}

// histEntry is the undo record of one Play. The removed moves occupy the
// top numRemoved slots of the histMoves/histIdx arenas (undo is LIFO, so
// offsets are implicit in the stack discipline).
type histEntry struct {
	move       game.Move
	numRemoved int32 // moves deleted from the legal list by this move
	numAdded   int32 // moves appended to the list by this move
}

// New returns the initial position of the given variant, with the standard
// 36-point cross centred on the working grid.
func New(v Variant) *State {
	if v.LineLen < 3 || v.LineLen > 8 {
		panic(fmt.Sprintf("morpion: unsupported line length %d", v.LineLen))
	}
	cross := crossFor(v.LineLen)
	w := v.BoardSize
	if w < len(cross)+4*v.LineLen {
		panic(fmt.Sprintf("morpion: board size %d too small for line length %d", w, v.LineLen))
	}
	if w > 256 {
		// packMove keeps 16 bits of base cell.
		panic(fmt.Sprintf("morpion: board size %d too large (max 256)", w))
	}
	s := &State{v: v, w: w, g: boardFor(w, v.LineLen)}
	s.attachPlanes(make([]uint8, 5*w*w))
	s.originX = (w - len(cross)) / 2
	s.originY = (w - len(cross)) / 2
	s.hash = baseHash(v, w)
	for y, xs := range cross {
		for _, x := range xs {
			idx := (s.originY+y)*w + s.originX + x
			s.occ[idx] = 1
			s.hash ^= s.g.keys[idx]
		}
	}
	// Every line of a first move holds LineLen-1 cross points, so its base
	// lies within LineLen of the cross's bounding box.
	s.moves = s.scanMoves(max(0, s.originX-v.LineLen), min(w, s.originX+len(cross)+v.LineLen))
	return s
}

// attachPlanes slices the five cell planes out of one backing array.
func (s *State) attachPlanes(planes []uint8) {
	cells := s.w * s.w
	s.planes = planes
	s.occ = planes[:cells:cells]
	for d := 0; d < numDirs; d++ {
		s.used[d] = planes[(1+d)*cells : (2+d)*cells : (2+d)*cells]
	}
}

// Variant returns the rule set of the position.
func (s *State) Variant() Variant { return s.v }

// BoardSize returns the side length of the working grid.
func (s *State) BoardSize() int { return s.w }

// Occupied reports whether the grid cell (x, y) holds a point.
func (s *State) Occupied(x, y int) bool {
	return x >= 0 && x < s.w && y >= 0 && y < s.w && s.occ[y*s.w+x] != 0
}

// MovesPlayed returns the number of moves played from the initial cross.
func (s *State) MovesPlayed() int { return len(s.seq) }

// Sequence returns a copy of the moves played so far.
func (s *State) Sequence() []game.Move {
	return append([]game.Move(nil), s.seq...)
}

// Score returns the game score: the number of moves played. This is the
// quantity the search maximizes (paper §III).
func (s *State) Score() float64 { return float64(len(s.seq)) }

// Terminal reports whether no legal move remains.
func (s *State) Terminal() bool { return len(s.moves) == 0 }

// LegalMoves appends the legal moves to buf and returns it.
func (s *State) LegalMoves(buf []game.Move) []game.Move {
	return append(buf, s.moves...)
}

// NumLegalMoves returns the current branching factor.
func (s *State) NumLegalMoves() int { return len(s.moves) }

// Clone returns a deep copy of the position. Per the game.State
// clone-with-undo contract, the clone does NOT inherit the source's undo
// history: it starts with an empty history whose floor is the clone point,
// so a clone can be searched forward with Play/Undo but rewinds at most
// back to the position it was cloned from (Undo past the floor panics, and
// Reset rewinds a clone only to the clone point). Dropping the history is
// what keeps Clone a handful of slice copies regardless of game length.
func (s *State) Clone() game.State {
	c := &State{
		v:       s.v,
		w:       s.w,
		g:       s.g,
		moves:   append([]game.Move(nil), s.moves...),
		seq:     append([]game.Move(nil), s.seq...),
		originX: s.originX,
		originY: s.originY,
		hash:    s.hash,
	}
	c.attachPlanes(append([]uint8(nil), s.planes...))
	return c
}

// CopyFrom implements game.Copier: it overwrites s with a deep copy of src,
// reusing s's backing arrays where sizes allow (a variant or board-size
// change reallocates them, so cross-variant copies are safe, just not
// free). Like Clone, the copy starts with an empty undo history floored at
// the copied position. src must be a Morpion state.
func (s *State) CopyFrom(src game.State) {
	o, ok := src.(*State)
	if !ok {
		panic("morpion: CopyFrom with a non-Morpion state")
	}
	s.v, s.g = o.v, o.g
	if s.w != o.w {
		s.w = o.w
		s.attachPlanes(make([]uint8, len(o.planes)))
	}
	copy(s.planes, o.planes)
	s.moves = append(s.moves[:0], o.moves...)
	s.seq = append(s.seq[:0], o.seq...)
	s.originX, s.originY = o.originX, o.originY
	s.hash = o.hash
	s.hist = s.hist[:0]
	s.histMoves = s.histMoves[:0]
	s.histIdx = s.histIdx[:0]
}

// Hash implements game.Hasher: the incremental Zobrist hash of the plane
// content. Positions with equal planes hash equal regardless of the move
// order that produced them (note the legal-move LIST order is
// history-dependent and is deliberately not hashed; cache consumers that
// depend on it must select moves order-independently — see
// core.Searcher's derived mode).
func (s *State) Hash() uint64 { return s.hash }

// EncodedSize implements game.Sizer: an upper bound on the bytes needed to
// ship this position between cluster processes (occupancy and usage planes
// bit-packed, plus the move sequence). The virtual network model charges
// this per position message.
func (s *State) EncodedSize() int {
	cells := s.w * s.w
	return cells*5/8 + 4*len(s.seq) + 16
}

// --- move encoding -------------------------------------------------------

// A move is packed into a game.Move as:
//
//	bits 0..15  : base cell index (start of the line, lowest point)
//	bits 16..17 : direction
//	bits 18..20 : offset k of the new point within the line (0..LineLen-1)
//
// The base point is the line endpoint with the smallest (y, x), i.e. the
// line extends from base towards +delta.

func packMove(base int, d Dir, k int) game.Move {
	return game.Move(uint64(base) | uint64(d)<<16 | uint64(k)<<18)
}

func unpackMove(m game.Move) (base int, d Dir, k int) {
	return int(m & 0xffff), Dir(m >> 16 & 0x3), int(m >> 18 & 0x7)
}

// MoveParts exposes the decoded move for rendering and notation: the board
// cell of the new point, the line's base cell, its direction and the offset
// of the new point in the line.
func (s *State) MoveParts(m game.Move) (newX, newY, baseX, baseY int, d Dir, k int) {
	base, d, k := unpackMove(m)
	baseX, baseY = base%s.w, base/s.w
	newX = baseX + k*dirDX[d]
	newY = baseY + k*dirDY[d]
	return
}

// --- legality ------------------------------------------------------------

// claimed returns how many cells of a line, from its base, the line marks
// in its direction's usage plane: every point under the D rule (no point
// may be shared), the lower endpoint of every unit link under the T rule
// (no link may be shared).
func (s *State) claimed() int {
	if s.v.Disjoint {
		return s.v.LineLen
	}
	return s.v.LineLen - 1
}

// usageFree reports whether the line (base, d) respects the variant's
// same-direction rule against the lines already drawn.
func (s *State) usageFree(base int, d Dir) bool {
	u, step := s.used[d], s.g.step[d]
	for n := s.claimed(); n > 0; n, base = n-1, base+step {
		if u[base] != 0 {
			return false
		}
	}
	return true
}

// scanMoves lists the legal moves whose base cell lies in [lo,hi)×[lo,hi),
// in (y, x, direction) order of the base. A legal move has the whole line
// on the board, exactly one empty point, and satisfies the usage rule. New
// lists the first moves with it; from there Play and Undo maintain the
// list incrementally.
func (s *State) scanMoves(lo, hi int) []game.Move {
	var moves []game.Move
	L := s.v.LineLen
	for y := lo; y < hi; y++ {
		for x := lo; x < hi; x++ {
			base := y*s.w + x
			for d := Dir(0); d < numDirs; d++ {
				// The line fits iff L-1 steps along d stay on the grid.
				if int(s.g.reach[base]>>(8*d+4)&15) < L-1 {
					continue
				}
				empty, k := 0, 0
				for i, c := 0, base; i < L; i, c = i+1, c+s.g.step[d] {
					if s.occ[c] == 0 {
						empty, k = empty+1, i
					}
				}
				if empty == 1 && s.usageFree(base, d) {
					moves = append(moves, packMove(base, d, k))
				}
			}
		}
	}
	return moves
}

// --- play / undo ---------------------------------------------------------

// mark sets (on = 1) or clears (on = 0) the point and the usage claim of
// move m in the planes and the hash, and returns the move's new point and
// direction.
func (s *State) mark(m game.Move, on uint8) (newCell int, d Dir) {
	base, d, k := unpackMove(m)
	step := s.g.step[d]
	newCell = base + k*step
	s.occ[newCell] = on
	h := s.hash ^ s.g.keys[newCell]
	u, keys := s.used[d], s.g.keys[(1+int(d))*len(s.occ):]
	for n := s.claimed(); n > 0; n, base = n-1, base+step {
		u[base] = on
		h ^= keys[base]
	}
	s.hash = h
	return newCell, d
}

// Play applies a legal move: places the new point, claims the line's usage,
// and updates the legal move list incrementally. Playing a move that is not
// currently legal corrupts the position; the search only plays moves it got
// from LegalMoves.
func (s *State) Play(m game.Move) {
	newCell, d := s.mark(m, 1)
	s.seq = append(s.seq, m)

	// Incremental move list maintenance. Two invalidation causes:
	//  1. a listed move's new point is newCell, which is now occupied;
	//  2. a listed move's line conflicts with the just-claimed line under
	//     the same-direction rule. Its own claim was free while it was
	//     listed, so any mark on it now is the new line's.
	// And one creation cause: lines through newCell that now have exactly
	// one empty point. Removed moves go onto the arena stacks so Undo can
	// restore the list in its exact pre-Play order.
	kept := 0
	for i, mv := range s.moves {
		b, md, mk := unpackMove(mv)
		if b+mk*s.g.step[md] == newCell || (md == d && !s.usageFree(b, d)) {
			s.histMoves = append(s.histMoves, mv)
			s.histIdx = append(s.histIdx, int32(i))
		} else {
			s.moves[kept] = mv
			kept++
		}
	}
	removed := len(s.moves) - kept
	s.moves = s.moves[:kept]
	added := s.addMovesThrough(newCell)
	s.hist = append(s.hist, histEntry{move: m, numRemoved: int32(removed), numAdded: int32(added)})
}

func (s *State) stepOf(d Dir) int { return s.g.step[d] }

// addMovesThrough appends all moves whose line passes through the just
// occupied cell p, in (direction, offset of p in the line) order, and
// returns how many were added. Only lines through p can have become legal,
// because p is the only cell whose occupancy changed.
//
// Per direction, the occupancy of the 2L-1 cells centred on p is gathered
// into one word, bit j for the cell j-(L-1) steps along the direction, and
// each of the L lines through p is an L-bit window of it — for L = 5, with
// p in the middle and k the offset of p in the line:
//
//	bit    0 1 2 3 4 5 6 7 8
//	cell   . . o o P o . o .
//	k=4    [-------]            3 of 5: no move
//	k=3      [-------]          4 of 5: legal, empty point at bit 1
//	k=2        [-------]        4 of 5: legal, empty point at bit 6
//	k=1          [-------]      4 of 5: legal, empty point at bit 6
//	k=0            [-------]    3 of 5: no move
//
// The board's wins table answers all L windows in one look-up. Cells
// beyond the border stay zero bits, and reach masks off the windows that
// would cover them.
func (s *State) addMovesThrough(p int) int {
	L := s.v.LineLen
	before := len(s.moves)
	reach := s.g.reach[p]
	for d := Dir(0); d < numDirs; d, reach = d+1, reach>>8 {
		back, fwd := int(reach&15), int(reach>>4&15)
		step := s.g.step[d]
		var occ uint32
		for c := p + fwd*step; c != p-back*step-step; c -= step {
			occ = occ<<1 | uint32(s.occ[c])
		}
		occ <<= L - 1 - back
		fit := uint8((1<<(back+1) - 1) &^ (1<<(L-1-fwd) - 1)) // offsets L-1-fwd..back
		for ks := s.g.wins[occ] & fit; ks != 0; ks &= ks - 1 {
			k := bits.TrailingZeros8(ks)
			if s.usageFree(p-k*step, d) {
				empty := bits.TrailingZeros32(^(occ >> (L - 1 - k)))
				s.moves = append(s.moves, packMove(p-k*step, d, empty))
			}
		}
	}
	return len(s.moves) - before
}

// Undo reverts the most recent move, implementing game.Undoer. It panics
// if no move has been played since the position was created or cloned (the
// clone floor — clones drop the history of their source).
func (s *State) Undo() {
	if len(s.hist) == 0 {
		panic("morpion: Undo on initial position or past a clone floor")
	}
	h := s.hist[len(s.hist)-1]
	s.hist = s.hist[:len(s.hist)-1]
	s.mark(h.move, 0)
	s.seq = s.seq[:len(s.seq)-1]
	// Restore the move list to its exact pre-Play order: drop the appended
	// moves, then merge the removed ones (popped off the arena stacks) back
	// in at their original positions, filling from the back so every entry
	// moves at most once. The exact order is what makes an undo traversal
	// bit-identical to a clone traversal.
	lo := len(s.histMoves) - int(h.numRemoved)
	kept := len(s.moves) - int(h.numAdded)
	s.moves = s.moves[:kept+int(h.numRemoved)] // the length before Play: within capacity
	for i, r := len(s.moves)-1, len(s.histMoves)-1; r >= lo; i-- {
		if int(s.histIdx[r]) == i {
			s.moves[i] = s.histMoves[r]
			r--
		} else {
			kept--
			s.moves[i] = s.moves[kept]
		}
	}
	s.histMoves = s.histMoves[:lo]
	s.histIdx = s.histIdx[:lo]
}

// Reset implements game.Replayer: it rewinds the position to the initial
// cross by undoing every move in the history. Positions obtained by Clone
// only rewind to the clone point, since clones drop history; use New for a
// pristine state.
func (s *State) Reset() {
	for len(s.hist) > 0 {
		s.Undo()
	}
}

var _ game.State = (*State)(nil)
var _ game.Undoer = (*State)(nil)
var _ game.Copier = (*State)(nil)
var _ game.Sizer = (*State)(nil)
var _ game.Replayer = (*State)(nil)
var _ game.Hasher = (*State)(nil)

// RateMoves implements game.MoveRater for the bundled heuristic
// evaluator: moves whose new point lands near the centre of the cross
// get higher weight. Long Morpion games grow the grid outward from the
// centre, and biasing early playout moves inward keeps lines connectable
// longer — a classic hand heuristic for the puzzle. The weight is
// 1/(1+d) for Chebyshev distance d from the board centre; pure and
// allocation-free beyond the appended weights.
func (s *State) RateMoves(moves []game.Move, w []float64) []float64 {
	cx, cy := s.w/2, s.w/2
	for _, m := range moves {
		newX, newY, _, _, _, _ := s.MoveParts(m)
		dx, dy := newX-cx, newY-cy
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		d := dx
		if dy > d {
			d = dy
		}
		w = append(w, 1/float64(1+d))
	}
	return w
}

var _ game.MoveRater = (*State)(nil)
