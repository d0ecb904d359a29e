// Package sudoku implements N²×N² Sudoku grid filling as a constraint
// search domain for nested Monte-Carlo search (16×16 Sudoku is the third
// evaluation domain of the companion IJCAI-09 NMCS paper).
//
// The game fills the first empty cell (row-major order) with any value
// that respects the row, column and box constraints; the score is the
// number of cells filled. A playout that paints itself into a corner ends
// early with a low score, so deeper nesting — which looks ahead before
// committing — fills dramatically more of the grid, exactly the
// amplification effect NMCS is designed for.
package sudoku

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/game"
	"repro/internal/rng"
)

// Incremental position hashing (game.Hasher). The hash is a Zobrist XOR
// over (cell, value) features plus a per-box-side base salt, maintained by
// place and Undo so reading it is O(1). The feature keys come from a
// package-level table: the domain is small (side ≤ 25 ⇒ ≤ 625 cells × 25
// values), so the whole table is precomputed once at init.
const (
	maxSide  = 25 // box ≤ 5
	maxCells = maxSide * maxSide
)

// zobrist[idx*(maxSide+1)+v] is the feature key of value v at cell idx.
var zobrist [maxCells * (maxSide + 1)]uint64

// hashSalt seeds both the key table and the per-box base hash; the value
// is arbitrary but fixed so hashes are stable across processes (cache
// entries shared between coordinator and workers must agree).
const hashSalt = 0x53554b00d0ec75a1 // "SUDOKU" flavoured

func init() {
	r := rng.New(hashSalt)
	for i := range zobrist {
		zobrist[i] = r.Uint64()
	}
}

// cellKey returns the Zobrist key of value v placed at cell idx.
func cellKey(idx int, v int8) uint64 { return zobrist[idx*(maxSide+1)+int(v)] }

// unit names the row, column and box a cell belongs to.
type unit struct{ row, col, box uint8 }

// units[box] tabulates unit per cell of the box-side-`box` grid, so the
// kernels below never divide. Built once at init and shared by pointer by
// every state of that box side.
var units [6]*[maxCells]unit

func init() {
	for box := 2; box <= 5; box++ {
		side := box * box
		units[box] = new([maxCells]unit)
		for idx := 0; idx < side*side; idx++ {
			r, c := idx/side, idx%side
			units[box][idx] = unit{uint8(r), uint8(c), uint8(r/box*box + c/box)}
		}
	}
}

// State is a Sudoku filling position. Create with New or ParseGivens.
type State struct {
	box  int             // box side; grid side is box*box
	side int             // cached box*box
	unit *[maxCells]unit // units[box]
	grid []int8          // 0 = empty, else 1..side

	// Constraint bitmasks: bit v-1 set when value v is used.
	rows, cols, boxes []uint32

	filled int // cells filled by play (excludes givens)
	givens int
	next   int // index of the first empty cell at or after next

	// hist records, for each Play, the played cell and the pre-move value
	// of next, which is all Undo needs: clearing the cell and its
	// constraint bits is exact, and everything else is derived. The slice
	// keeps its capacity across games, so Play/Undo never allocates in
	// steady state.
	hist []histEntry

	// hash is the incremental Zobrist hash of the grid content (givens
	// included), maintained by place and Undo. See game.Hasher.
	hash uint64
}

type histEntry struct {
	cell     int32
	prevNext int32
}

// New returns an empty grid with the given box side (box=4 for the paper's
// 16×16 grids, box=3 for classic 9×9).
func New(box int) *State {
	if box < 2 || box > 5 {
		panic("sudoku: box side must be in 2..5")
	}
	side := box * box
	s := &State{
		box: box, side: side, unit: units[box],
		grid: make([]int8, side*side),
		rows: make([]uint32, side), cols: make([]uint32, side), boxes: make([]uint32, side),
		hash: rng.Mix(hashSalt, uint64(box)),
	}
	return s
}

// ParseGivens builds a puzzle from rows of cell values: '.' or '0' for
// empty, '1'-'9' then 'A'-'G' for 10..16 (hex-like). Rows are whitespace
// separated.
func ParseGivens(box int, text string) (*State, error) {
	s := New(box)
	lines := strings.Fields(strings.TrimSpace(text))
	if len(lines) != s.side {
		return nil, fmt.Errorf("sudoku: %d rows, want %d", len(lines), s.side)
	}
	for r, line := range lines {
		if len(line) != s.side {
			return nil, fmt.Errorf("sudoku: row %d has %d cells, want %d", r, len(line), s.side)
		}
		for c := 0; c < s.side; c++ {
			v, err := parseCell(line[c])
			if err != nil {
				return nil, fmt.Errorf("sudoku: row %d col %d: %v", r, c, err)
			}
			if v == 0 {
				continue
			}
			if int(v) > s.side {
				return nil, fmt.Errorf("sudoku: row %d col %d: value %d exceeds side %d", r, c, v, s.side)
			}
			if !s.place(r*s.side+c, v) {
				return nil, fmt.Errorf("sudoku: given at row %d col %d conflicts", r, c)
			}
			s.givens++
		}
	}
	s.filled = 0 // givens do not count towards the score
	return s, nil
}

func parseCell(ch byte) (int8, error) {
	switch {
	case ch == '.' || ch == '0':
		return 0, nil
	case ch >= '1' && ch <= '9':
		return int8(ch - '0'), nil
	case ch >= 'A' && ch <= 'G':
		return int8(ch-'A') + 10, nil
	default:
		return 0, fmt.Errorf("bad cell %q", ch)
	}
}

// Side returns the grid side (16 for box 4).
func (s *State) Side() int { return s.side }

// Cell returns the value at (row, col), 0 when empty.
func (s *State) Cell(row, col int) int { return int(s.grid[row*s.side+col]) }

// used returns the values taken in the row, column and box of cell idx,
// bit v-1 for value v.
func (s *State) used(idx int) uint32 {
	u := s.unit[idx]
	return s.rows[u.row] | s.cols[u.col] | s.boxes[u.box]
}

// place writes v at the empty cell idx and updates the constraint masks
// and the incremental hash. It reports false, changing nothing, when the
// cell is filled or v is already used in its row, column or box.
func (s *State) place(idx int, v int8) bool {
	bit := uint32(1) << (v - 1)
	u := s.unit[idx]
	if s.grid[idx] != 0 || (s.rows[u.row]|s.cols[u.col]|s.boxes[u.box])&bit != 0 {
		return false
	}
	s.grid[idx] = v
	s.rows[u.row] |= bit
	s.cols[u.col] |= bit
	s.boxes[u.box] |= bit
	s.hash ^= cellKey(idx, v)
	return true
}

// nextEmpty returns the index of the first empty cell, or -1 when full.
func (s *State) nextEmpty() int {
	for i := s.next; i < len(s.grid); i++ {
		if s.grid[i] == 0 {
			return i
		}
	}
	return -1
}

// Move encoding: cell<<8 | value.

// LegalMoves implements game.State: every value placeable in the first
// empty cell. An empty slice on a non-full grid means the playout is stuck
// (terminal with a partial score).
func (s *State) LegalMoves(buf []game.Move) []game.Move {
	idx := s.nextEmpty()
	if idx < 0 {
		return buf
	}
	for free := ^s.used(idx) & (1<<s.side - 1); free != 0; free &= free - 1 {
		buf = append(buf, game.Move(idx<<8|(bits.TrailingZeros32(free)+1)))
	}
	return buf
}

// Play implements game.State.
func (s *State) Play(m game.Move) {
	idx := int(m >> 8)
	v := int8(m & 0xff)
	if idx < 0 || idx >= len(s.grid) || v < 1 || int(v) > s.side || !s.place(idx, v) {
		panic(fmt.Sprintf("sudoku: illegal move cell=%d value=%d", idx, v))
	}
	s.hist = append(s.hist, histEntry{cell: int32(idx), prevNext: int32(s.next)})
	s.filled++
	if idx >= s.next {
		s.next = idx + 1
	}
}

// Undo implements game.Undoer: it erases the most recently played cell and
// restores the constraint masks and the next-empty cursor. It panics on a
// position with no played moves (givens are not undoable) or past a clone
// floor (clones drop history; see the game.State contract).
func (s *State) Undo() {
	if len(s.hist) == 0 {
		panic("sudoku: Undo with no played moves or past a clone floor")
	}
	h := s.hist[len(s.hist)-1]
	s.hist = s.hist[:len(s.hist)-1]
	idx := int(h.cell)
	v := s.grid[idx]
	bit := uint32(1) << (v - 1)
	u := s.unit[idx]
	s.hash ^= cellKey(idx, v)
	s.grid[idx] = 0
	s.rows[u.row] &^= bit
	s.cols[u.col] &^= bit
	s.boxes[u.box] &^= bit
	s.filled--
	s.next = int(h.prevNext)
}

// Terminal implements game.State: the grid is full or the next empty cell
// admits no value.
func (s *State) Terminal() bool {
	idx := s.nextEmpty()
	if idx < 0 {
		return true
	}
	return s.used(idx) == 1<<s.side-1
}

// Score implements game.State: cells filled during play (givens excluded).
func (s *State) Score() float64 { return float64(s.filled) }

// MovesPlayed implements game.State.
func (s *State) MovesPlayed() int { return s.filled }

// Solved reports whether every cell is filled.
func (s *State) Solved() bool { return s.nextEmpty() < 0 }

// Clone implements game.State. Per the clone-with-undo contract the clone
// starts with an empty undo history floored at the cloned position.
func (s *State) Clone() game.State {
	return &State{
		box: s.box, side: s.side, unit: s.unit,
		grid:   append([]int8(nil), s.grid...),
		rows:   append([]uint32(nil), s.rows...),
		cols:   append([]uint32(nil), s.cols...),
		boxes:  append([]uint32(nil), s.boxes...),
		filled: s.filled, givens: s.givens, next: s.next,
		hash: s.hash,
	}
}

// CopyFrom implements game.Copier: it overwrites s with a deep copy of
// src, reusing s's buffers where sizes allow (a box-side change
// reallocates them). src must be a Sudoku state.
func (s *State) CopyFrom(src game.State) {
	o, ok := src.(*State)
	if !ok {
		panic("sudoku: CopyFrom with a non-Sudoku state")
	}
	if s.box != o.box {
		s.box, s.side, s.unit = o.box, o.side, o.unit
		s.grid = make([]int8, len(o.grid))
		s.rows = make([]uint32, o.side)
		s.cols = make([]uint32, o.side)
		s.boxes = make([]uint32, o.side)
	}
	copy(s.grid, o.grid)
	copy(s.rows, o.rows)
	copy(s.cols, o.cols)
	copy(s.boxes, o.boxes)
	s.filled, s.givens, s.next = o.filled, o.givens, o.next
	s.hash = o.hash
	s.hist = s.hist[:0]
}

// Hash implements game.Hasher: the incremental Zobrist hash of the grid
// content (givens included). Positions with equal grids hash equal even
// when their filled/given split — and hence Score — differs, so cache
// consumers store score deltas (see the game.Hasher contract).
func (s *State) Hash() uint64 { return s.hash }

// hashFromScratch recomputes the position hash from the grid alone. It is
// the oracle the fuzz tests compare the incremental hash against.
func (s *State) hashFromScratch() uint64 {
	h := rng.Mix(hashSalt, uint64(s.box))
	for idx, v := range s.grid {
		if v != 0 {
			h ^= cellKey(idx, v)
		}
	}
	return h
}

// EncodedSize implements game.Sizer.
func (s *State) EncodedSize() int { return len(s.grid) + 16 }

// Render draws the grid with box separators.
func (s *State) Render() string {
	var b strings.Builder
	for r := 0; r < s.side; r++ {
		if r > 0 && r%s.box == 0 {
			b.WriteString(strings.Repeat("-", s.side+s.box-1))
			b.WriteByte('\n')
		}
		for c := 0; c < s.side; c++ {
			if c > 0 && c%s.box == 0 {
				b.WriteByte('|')
			}
			v := s.grid[r*s.side+c]
			switch {
			case v == 0:
				b.WriteByte('.')
			case v <= 9:
				b.WriteByte('0' + byte(v))
			default:
				b.WriteByte('A' + byte(v) - 10)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Valid verifies every row, column and box holds distinct values — a
// structural self-check used by tests.
func (s *State) Valid() bool {
	side := s.side
	check := func(cells []int) bool {
		var seen uint32
		for _, idx := range cells {
			v := s.grid[idx]
			if v == 0 {
				continue
			}
			bit := uint32(1) << (v - 1)
			if seen&bit != 0 {
				return false
			}
			seen |= bit
		}
		return true
	}
	idxs := make([]int, side)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			idxs[c] = r*side + c
		}
		if !check(idxs) {
			return false
		}
	}
	for c := 0; c < side; c++ {
		for r := 0; r < side; r++ {
			idxs[r] = r*side + c
		}
		if !check(idxs) {
			return false
		}
	}
	for b0 := 0; b0 < side; b0++ {
		br, bc := (b0/s.box)*s.box, (b0%s.box)*s.box
		k := 0
		for r := 0; r < s.box; r++ {
			for c := 0; c < s.box; c++ {
				idxs[k] = (br+r)*side + bc + c
				k++
			}
		}
		if !check(idxs) {
			return false
		}
	}
	return true
}

var _ game.State = (*State)(nil)
var _ game.Undoer = (*State)(nil)
var _ game.Copier = (*State)(nil)
var _ game.Sizer = (*State)(nil)
var _ game.Hasher = (*State)(nil)

// RateMoves implements game.MoveRater for the bundled heuristic
// evaluator. All legal moves fill the same (first empty) cell with
// different values, so the rating discriminates on the value: a value
// already placed often has fewer remaining slots that can still take it,
// and placing it sooner fails less often later — the "most constrained
// value first" bias. The weight is 1 + the value's current count on the
// grid; pure, one O(side²) scan per request.
func (s *State) RateMoves(moves []game.Move, w []float64) []float64 {
	var counts [26]int // side ≤ 25 (box ≤ 5); index by value
	for _, v := range s.grid {
		if v != 0 {
			counts[v]++
		}
	}
	for _, m := range moves {
		w = append(w, float64(1+counts[m&0xff]))
	}
	return w
}

var _ game.MoveRater = (*State)(nil)
