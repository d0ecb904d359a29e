package sudoku

// Oracle the table-driven kernels are checked against: it reads the grid
// by coordinates alone, sharing neither the unit table nor the constraint
// masks with LegalMoves and Play.

import (
	"slices"
	"testing"

	"repro/internal/game"
	"repro/internal/rng"
)

// gridMoves lists, in increasing value order, every value the first empty
// cell can take: it scans that cell's row, column and box on the grid.
func (s *State) gridMoves() []game.Move {
	idx := 0
	for idx < len(s.grid) && s.grid[idx] != 0 {
		idx++
	}
	if idx == len(s.grid) {
		return nil
	}
	r, c := idx/s.side, idx%s.side
	var moves []game.Move
	for v := 1; v <= s.side; v++ {
		free := true
		for i := 0; i < s.side; i++ {
			br, bc := r/s.box*s.box+i/s.box, c/s.box*s.box+i%s.box
			if s.Cell(r, i) == v || s.Cell(i, c) == v || s.Cell(br, bc) == v {
				free = false
			}
		}
		if free {
			moves = append(moves, game.Move(idx<<8|v))
		}
	}
	return moves
}

// checkOracles asserts that LegalMoves, Terminal and Hash agree with the
// grid on the current position.
func checkOracles(t *testing.T, s *State, when string) {
	t.Helper()
	got, want := s.LegalMoves(nil), s.gridMoves()
	if !slices.Equal(got, want) {
		t.Fatalf("%s: legal moves %v, oracle %v\n%s", when, got, want, s.Render())
	}
	if s.Terminal() != (len(want) == 0) {
		t.Fatalf("%s: Terminal() = %v with %d moves", when, s.Terminal(), len(want))
	}
	if got, want := s.Hash(), s.hashFromScratch(); got != want {
		t.Fatalf("%s: incremental hash %x != from-scratch %x", when, got, want)
	}
	if !s.Valid() {
		t.Fatalf("%s: grid violates a constraint\n%s", when, s.Render())
	}
}

// TestKernelsMatchOracle plays random games with interleaved Undos on
// every box side.
func TestKernelsMatchOracle(t *testing.T) {
	for box := 2; box <= 5; box++ {
		for seed := uint64(1); seed <= 3; seed++ {
			r := rng.New(seed)
			s := New(box)
			checkOracles(t, s, "empty grid")
			for !s.Terminal() {
				moves := s.LegalMoves(nil)
				s.Play(moves[r.Intn(len(moves))])
				checkOracles(t, s, "after play")
				if r.Intn(4) == 0 {
					s.Undo()
					checkOracles(t, s, "after undo")
				}
			}
		}
	}
}

// TestCopyFromAcrossBoxSidesSwapsUnits pins that a recycled state adopts
// the cell table of the box side it copies, not only the grid: with the
// table of another side its rows, columns and boxes would be misread.
func TestCopyFromAcrossBoxSidesSwapsUnits(t *testing.T) {
	for _, sides := range [][2]int{{2, 4}, {5, 3}} {
		dst, src := New(sides[0]), New(sides[1])
		r := rng.New(9)
		for i := 0; i < 12; i++ {
			moves := src.LegalMoves(nil)
			src.Play(moves[r.Intn(len(moves))])
		}
		dst.CopyFrom(src)
		checkOracles(t, dst, "after CopyFrom")
		for !dst.Terminal() {
			moves := dst.LegalMoves(nil)
			dst.Play(moves[r.Intn(len(moves))])
			checkOracles(t, dst, "copy, after play")
		}
	}
}
