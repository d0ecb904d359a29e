// Package samegame implements SameGame, the block-collapsing puzzle used as
// a second evaluation domain for nested Monte-Carlo search (it is one of
// the domains of the companion IJCAI-09 NMCS paper this paper builds on).
//
// The board is a grid of coloured blocks. A move removes a connected group
// (4-neighbourhood) of at least two same-coloured blocks and scores
// (n−2)² points for a group of n blocks. Blocks above removed cells fall
// down and empty columns collapse to the left. Clearing the whole board
// earns a 1000-point bonus. The game ends when no group of two or more
// blocks remains; the goal is to maximize the total score.
//
// SameGame has a much wider score range than Morpion Solitaire and rewards
// long-horizon planning (saving one colour for a massive final group),
// which exercises the search differently.
package samegame

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/game"
	"repro/internal/rng"
)

// Standard board parameters of the SameGame literature.
const (
	DefaultWidth  = 15
	DefaultHeight = 15
	DefaultColors = 5
	// ClearBonus is awarded for emptying the board completely.
	ClearBonus = 1000
)

// State is a SameGame position. Create with New or NewRandom.
type State struct {
	w, h   int
	colors int
	lay    *layout // tables of the w×h shape
	cells  []int8  // column-major: cells[x*h+y], y=0 is the BOTTOM row; 0 = empty
	score  float64
	moves  int

	// scratch buffers for group enumeration, rebuilt lazily
	mark    []int32
	markGen int32
	stack   []int32
	members []int32 // cells of the group Play removes

	// Undo history. Gravity and column collapse scramble cell positions
	// irreversibly, so each Play snapshots the pre-move board into the
	// histCells arena (w×h bytes, a fraction of what Clone allocates) plus
	// the pre-move score and hash. The arena grows once to the game depth
	// and is then reused, so Play/Undo allocates nothing in steady state.
	hist      []histEntry // pre-move score and hash, one per played move
	histCells []int8      // arena: pre-move boards, stacked w*h at a time

	// hash is the incremental Zobrist hash of the cell content, maintained
	// by Play (diffing against the pre-move snapshot) and restored from
	// hist by Undo. See game.Hasher.
	hash uint64
}

// histEntry is the O(1) part of one Play's undo record; the board snapshot
// lives in the histCells arena.
type histEntry struct {
	score float64
	hash  uint64
}

// hashSalt seeds the feature keys and the base hash; fixed so hashes are
// stable across processes.
const hashSalt = 0x53616d6547616d65 // "SameGame"

// layout tabulates what depends only on the board's shape, so the kernels
// neither divide nor hash per cell. One layout per shape is built per
// process and shared by pointer by every state of that shape.
type layout struct {
	y    []int32  // y[idx] = idx % h, the height of cell idx in its column
	keys []uint64 // keys[idx<<4|c] is the Zobrist key of colour c (1..9) at cell idx
}

// tables memoizes the layouts. The keys do not depend on the shape, so
// every layout holds a prefix of one process-wide key table, which grows
// by doubling into a new array (published prefixes are never written).
var tables = struct {
	sync.Mutex
	layouts map[[2]int]*layout
	keys    []uint64 // keys[idx<<4|c] = rng.Mix(hashSalt, idx<<8|c)
}{layouts: map[[2]int]*layout{}}

func layoutFor(w, h int) *layout {
	t := &tables
	t.Lock()
	defer t.Unlock()
	l := t.layouts[[2]int{w, h}]
	if l != nil {
		return l
	}
	need := w * h << 4
	if len(t.keys) < need {
		grown := make([]uint64, max(need, 2*len(t.keys)))
		for i := copy(grown, t.keys); i < len(grown); i++ {
			if c := i & 15; c >= 1 && c <= 9 {
				grown[i] = rng.Mix(hashSalt, uint64(i>>4)<<8|uint64(c))
			}
		}
		t.keys = grown
	}
	l = &layout{y: make([]int32, w*h), keys: t.keys[:need]}
	for idx := range l.y {
		l.y[idx] = int32(idx % h)
	}
	t.layouts[[2]int{w, h}] = l
	return l
}

// NewRandom returns a uniformly random w×h board with the given number of
// colours, deterministically derived from seed.
func NewRandom(w, h, colors int, seed uint64) *State {
	if w < 1 || h < 1 {
		panic("samegame: board must be at least 1x1")
	}
	if colors < 1 || colors > 9 {
		panic("samegame: colours must be in 1..9")
	}
	s := &State{w: w, h: h, colors: colors, lay: layoutFor(w, h), cells: make([]int8, w*h)}
	r := rng.New(seed)
	for i := range s.cells {
		s.cells[i] = int8(r.Intn(colors) + 1)
	}
	s.hash = s.contentHash()
	s.initScratch()
	return s
}

// NewStandard returns the standard 15×15, 5-colour random board.
func NewStandard(seed uint64) *State {
	return NewRandom(DefaultWidth, DefaultHeight, DefaultColors, seed)
}

// Parse builds a board from rows of digits ('0' or '.' = empty, '1'-'9' =
// colour), topmost row first. All rows must have equal length.
func Parse(text string) (*State, error) {
	lines := strings.Fields(strings.TrimSpace(text))
	if len(lines) == 0 {
		return nil, fmt.Errorf("samegame: empty board")
	}
	h := len(lines)
	w := len(lines[0])
	s := &State{w: w, h: h, colors: 0, lay: layoutFor(w, h), cells: make([]int8, w*h)}
	for row, line := range lines {
		if len(line) != w {
			return nil, fmt.Errorf("samegame: row %d has %d cells, want %d", row, len(line), w)
		}
		y := h - 1 - row // topmost line is the highest y
		for x := 0; x < w; x++ {
			ch := line[x]
			switch {
			case ch == '0' || ch == '.':
				s.cells[x*h+y] = 0
			case ch >= '1' && ch <= '9':
				c := int8(ch - '0')
				s.cells[x*h+y] = c
				if int(c) > s.colors {
					s.colors = int(c)
				}
			default:
				return nil, fmt.Errorf("samegame: bad cell %q at row %d col %d", ch, row, x)
			}
		}
	}
	// A parsed board must already satisfy gravity/collapse invariants for
	// the move generator to be meaningful; normalize it.
	s.settle()
	s.hash = s.contentHash()
	s.initScratch()
	return s, nil
}

func (s *State) initScratch() {
	s.mark = make([]int32, s.w*s.h)
	s.stack = make([]int32, 0, s.w*s.h)
}

// Width and Height report the board dimensions.
func (s *State) Width() int  { return s.w }
func (s *State) Height() int { return s.h }

// Cell returns the colour at column x, height y (0 = bottom), 0 if empty.
func (s *State) Cell(x, y int) int { return int(s.cells[x*s.h+y]) }

// Score implements game.State: points accumulated so far, including the
// clear bonus once the board is empty.
func (s *State) Score() float64 { return s.score }

// MovesPlayed implements game.State.
func (s *State) MovesPlayed() int { return s.moves }

// Terminal implements game.State: true when no group of ≥2 remains.
func (s *State) Terminal() bool {
	return !s.anyGroup()
}

// Move encoding: the cell index (x*h+y) of the representative (smallest
// index) block of the group to remove.

// LegalMoves implements game.State: one move per connected group of at
// least two blocks, identified by its smallest cell index, in increasing
// order (deterministic).
func (s *State) LegalMoves(buf []game.Move) []game.Move {
	s.markGen++
	h, y := s.h, s.lay.y
	for i, c := range s.cells {
		if c == 0 || s.mark[i] == s.markGen {
			continue
		}
		// An unmarked block has no same-coloured neighbour below or to the
		// left (that one would have flooded it), so it heads a group iff
		// the block above or to the right matches.
		if (int(y[i])+1 < h && s.cells[i+1] == c) || (i+h < len(s.cells) && s.cells[i+h] == c) {
			s.flood(int32(i), c, nil)
			buf = append(buf, game.Move(i))
		}
	}
	return buf
}

// anyGroup reports whether any removable group exists (cheaper than a full
// LegalMoves when only termination matters).
func (s *State) anyGroup() bool {
	h, y := s.h, s.lay.y
	for i, c := range s.cells {
		if c == 0 {
			continue
		}
		// Right neighbour (same row, next column) or upper neighbour.
		if i+h < len(s.cells) && s.cells[i+h] == c {
			return true
		}
		if int(y[i])+1 < h && s.cells[i+1] == c {
			return true
		}
	}
	return false
}

// flood marks the group containing cell idx (colour c) with the current
// generation and returns its size. When out is non-nil the member cells
// are appended to it.
func (s *State) flood(idx int32, c int8, out *[]int32) int {
	h, top := int32(s.h), int32(s.h-1)
	cells, mark, gen, y := s.cells, s.mark, s.markGen, s.lay.y
	visit := func(stack []int32, nb int32) []int32 {
		if cells[nb] == c && mark[nb] != gen {
			mark[nb] = gen
			stack = append(stack, nb)
		}
		return stack
	}
	n := 0
	stack := append(s.stack[:0], idx)
	mark[idx] = gen
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n++
		if out != nil {
			*out = append(*out, cur)
		}
		if cur >= h {
			stack = visit(stack, cur-h)
		}
		if int(cur+h) < len(cells) {
			stack = visit(stack, cur+h)
		}
		if y[cur] > 0 {
			stack = visit(stack, cur-1)
		}
		if y[cur] < top {
			stack = visit(stack, cur+1)
		}
	}
	s.stack = stack
	return n
}

// Play implements game.State: removes the group containing the move's
// cell, applies gravity and column collapse, and accumulates the score.
func (s *State) Play(m game.Move) {
	idx := int32(m)
	if idx < 0 || int(idx) >= len(s.cells) || s.cells[idx] == 0 {
		panic(fmt.Sprintf("samegame: illegal move %d", idx))
	}
	s.markGen++
	s.members = s.members[:0]
	n := s.flood(idx, s.cells[idx], &s.members)
	if n < 2 {
		panic(fmt.Sprintf("samegame: move %d names a singleton group", idx))
	}
	s.histCells = append(s.histCells, s.cells...)
	s.hist = append(s.hist, histEntry{score: s.score, hash: s.hash})
	for _, c := range s.members {
		s.cells[c] = 0
	}
	s.score += float64((n - 2) * (n - 2))
	s.moves++
	s.settle()
	if s.empty() {
		s.score += ClearBonus
	}
	// Incremental hash update: gravity and collapse move many cells, but
	// the pre-move board is already snapshotted in the histCells arena, so
	// one diff pass XORs exactly the changed features in and out.
	// Colour 0 has key 0: empty cells contribute nothing.
	snap := s.histCells[len(s.histCells)-len(s.cells):]
	keys := s.lay.keys
	for i, c := range s.cells {
		if old := snap[i]; old != c {
			s.hash ^= keys[i<<4|int(old)] ^ keys[i<<4|int(c)]
		}
	}
}

// settle applies gravity within columns and collapses empty columns left.
func (s *State) settle() {
	h := s.h
	// Gravity: compact every column downwards.
	for x := 0; x < s.w; x++ {
		col := s.cells[x*h : (x+1)*h]
		w := 0
		for y := 0; y < h; y++ {
			if col[y] != 0 {
				col[w] = col[y]
				w++
			}
		}
		for ; w < h; w++ {
			col[w] = 0
		}
	}
	// Collapse: shift non-empty columns left.
	wout := 0
	for x := 0; x < s.w; x++ {
		if s.cells[x*h] == 0 { // empty column after gravity
			continue
		}
		if wout != x {
			copy(s.cells[wout*h:(wout+1)*h], s.cells[x*h:(x+1)*h])
		}
		wout++
	}
	for x := wout; x < s.w; x++ {
		for y := 0; y < h; y++ {
			s.cells[x*h+y] = 0
		}
	}
}

// empty reports whether the board has no blocks left.
func (s *State) empty() bool {
	for _, c := range s.cells {
		if c != 0 {
			return false
		}
	}
	return true
}

// Undo implements game.Undoer: it restores the board and score to their
// state before the most recent Play. It panics on the initial position or
// past a clone floor (clones drop history; see the game.State contract).
func (s *State) Undo() {
	if len(s.hist) == 0 {
		panic("samegame: Undo on initial position or past a clone floor")
	}
	n := len(s.cells)
	lo := len(s.histCells) - n
	copy(s.cells, s.histCells[lo:])
	s.histCells = s.histCells[:lo]
	h := s.hist[len(s.hist)-1]
	s.score, s.hash = h.score, h.hash
	s.hist = s.hist[:len(s.hist)-1]
	s.moves--
}

// Clone implements game.State. Per the clone-with-undo contract the clone
// starts with an empty undo history floored at the cloned position.
func (s *State) Clone() game.State {
	c := &State{
		w: s.w, h: s.h, colors: s.colors, lay: s.lay,
		cells: append([]int8(nil), s.cells...),
		score: s.score, moves: s.moves,
		hash: s.hash,
	}
	c.initScratch()
	return c
}

// CopyFrom implements game.Copier: it overwrites s with a deep copy of
// src, reusing s's buffers where sizes allow (a dimension change
// reallocates them). src must be a SameGame state.
func (s *State) CopyFrom(src game.State) {
	o, ok := src.(*State)
	if !ok {
		panic("samegame: CopyFrom with a non-SameGame state")
	}
	if s.w != o.w || s.h != o.h {
		s.w, s.h, s.lay = o.w, o.h, o.lay
		s.cells = make([]int8, len(o.cells))
		s.initScratch()
	}
	copy(s.cells, o.cells)
	s.colors = o.colors
	s.score, s.moves = o.score, o.moves
	s.hash = o.hash
	s.hist = s.hist[:0]
	s.histCells = s.histCells[:0]
}

// Hash implements game.Hasher: the incremental Zobrist hash of the cell
// content. Positions with equal boards hash equal even when their
// accumulated score differs (score is path-dependent), so cache consumers
// store score deltas (see the game.Hasher contract).
func (s *State) Hash() uint64 { return s.hash }

// contentHash computes the position hash from the cells alone; Play keeps
// it up to date incrementally from there.
func (s *State) contentHash() uint64 {
	h := rng.Mix(hashSalt, uint64(s.w)<<32|uint64(s.h))
	for i, c := range s.cells {
		h ^= s.lay.keys[i<<4|int(c)] // colour 0 has key 0
	}
	return h
}

// EncodedSize implements game.Sizer.
func (s *State) EncodedSize() int { return len(s.cells) + 16 }

// Render draws the board, top row first.
func (s *State) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "samegame %dx%d score=%.0f\n", s.w, s.h, s.score)
	for y := s.h - 1; y >= 0; y-- {
		for x := 0; x < s.w; x++ {
			c := s.cells[x*s.h+y]
			if c == 0 {
				b.WriteByte('.')
			} else {
				b.WriteByte('0' + byte(c))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Remaining returns the number of blocks still on the board.
func (s *State) Remaining() int {
	n := 0
	for _, c := range s.cells {
		if c != 0 {
			n++
		}
	}
	return n
}

var _ game.State = (*State)(nil)
var _ game.Undoer = (*State)(nil)
var _ game.Copier = (*State)(nil)
var _ game.Sizer = (*State)(nil)
var _ game.Hasher = (*State)(nil)

// RateMoves implements game.MoveRater for the bundled heuristic
// evaluator: a group's weight is its size. The score of removing n
// blocks is (n−2)², so steering playouts toward big groups is the
// natural greedy signal. Only scratch marks are touched; the observable
// position is unchanged.
func (s *State) RateMoves(moves []game.Move, w []float64) []float64 {
	s.markGen++
	for _, m := range moves {
		w = append(w, float64(s.flood(int32(m), s.cells[m], nil)))
	}
	return w
}

var _ game.MoveRater = (*State)(nil)
