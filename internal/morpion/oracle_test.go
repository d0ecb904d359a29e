package morpion

// Oracles the table-driven kernels are checked against. They work from
// coordinates and rng.Mix alone, sharing no table, window gather or usage
// walk with Play, Undo and New.

import (
	"sync"
	"testing"

	"repro/internal/game"
	"repro/internal/rng"
)

// hashFromScratch recomputes the position hash from the planes alone.
func (s *State) hashFromScratch() uint64 {
	h := baseHash(s.v, s.w)
	for idx, occ := range s.occ {
		if occ != 0 {
			h ^= rng.Mix(planeSalt[0], uint64(idx))
		}
	}
	for d := 0; d < numDirs; d++ {
		for idx, used := range s.used[d] {
			if used != 0 {
				h ^= rng.Mix(planeSalt[1+d], uint64(idx))
			}
		}
	}
	return h
}

// candidate checks whether the line (baseX, baseY, d) is a legal move and,
// if so, returns the packed move. A legal move has the whole line on the
// board, exactly one empty point, and satisfies the usage constraint: no
// point (D rule) or unit link, identified by its lower cell (T rule), of
// the line belongs to an existing line of the same direction.
func (s *State) candidate(baseX, baseY int, d Dir) (game.Move, bool) {
	L := s.v.LineLen
	links := L - 1
	if s.v.Disjoint {
		links = L
	}
	empty := -1
	for i := 0; i < L; i++ {
		x, y := baseX+i*dirDX[d], baseY+i*dirDY[d]
		if x < 0 || y < 0 || x >= s.w || y >= s.w {
			return 0, false
		}
		if s.occ[y*s.w+x] == 0 {
			if empty >= 0 {
				return 0, false // two empty points
			}
			empty = i
		}
		if i < links && s.used[d][y*s.w+x] != 0 {
			return 0, false
		}
	}
	if empty < 0 {
		return 0, false // line already complete
	}
	return packMove(baseY*s.w+baseX, d, empty), true
}

// scanAllMoves recomputes the full legal move list from scratch, in the
// (y, x, direction) order of the base cell New lists the first moves in.
func (s *State) scanAllMoves(buf []game.Move) []game.Move {
	for y := 0; y < s.w; y++ {
		for x := 0; x < s.w; x++ {
			for d := Dir(0); d < numDirs; d++ {
				if m, ok := s.candidate(x, y, d); ok {
					buf = append(buf, m)
				}
			}
		}
	}
	return buf
}

// checkOracles asserts that the incremental move list equals the rescan as
// a set and the incremental hash the recomputed one.
func checkOracles(t *testing.T, s *State, when string) {
	t.Helper()
	got := append([]game.Move(nil), s.moves...)
	want := s.scanAllMoves(nil)
	sortMoves(got)
	sortMoves(want)
	if !equalMoves(got, want) {
		t.Fatalf("%s %s, move %d: move list diverged:\nincremental=%v\nrescan=%v",
			s.v.Name, when, s.MovesPlayed(), got, want)
	}
	if got, want := s.Hash(), s.hashFromScratch(); got != want {
		t.Fatalf("%s %s, move %d: incremental hash %x != from-scratch %x",
			s.v.Name, when, s.MovesPlayed(), got, want)
	}
}

// cornerDistance is how far the new point of m is from the given corner
// of the grid (0..3), in king moves.
func cornerDistance(s *State, m game.Move, corner int) int {
	x, y, _, _, _, _ := s.MoveParts(m)
	if corner&1 != 0 {
		x = s.w - 1 - x
	}
	if corner&2 != 0 {
		y = s.w - 1 - y
	}
	return max(x, y)
}

// TestKernelsMatchOraclesAtTheBorder plays games on the smallest legal
// boards, and on the T variants the benchmark never draws, steering three
// moves in four toward one corner, where lines get clipped in every
// direction; after every Play and every Undo the list and the hash must
// equal the oracles'.
func TestKernelsMatchOraclesAtTheBorder(t *testing.T) {
	variants := []Variant{
		Var5T, Var4T,
		{Name: "5D/30", LineLen: 5, Disjoint: true, BoardSize: 30},
		{Name: "5T/30", LineLen: 5, BoardSize: 30},
		{Name: "4D/23", LineLen: 4, Disjoint: true, BoardSize: 23},
		{Name: "4T/23", LineLen: 4, BoardSize: 23},
		{Name: "3T/19", LineLen: 3, BoardSize: 19},
		{Name: "3D/19", LineLen: 3, Disjoint: true, BoardSize: 19},
	}
	for _, v := range variants {
		nearest := v.BoardSize
		for seed := uint64(0); seed < 8; seed++ {
			r := rng.New(seed)
			corner := int(seed % 4)
			s := New(v)
			if !equalMoves(s.moves, s.scanAllMoves(nil)) {
				t.Fatalf("%s: New lists first moves in another order than the whole-grid scan", v.Name)
			}
			var buf []game.Move
			for !s.Terminal() {
				buf = s.LegalMoves(buf[:0])
				m := buf[r.Intn(len(buf))]
				if r.Intn(4) != 0 {
					for _, c := range buf {
						if cornerDistance(s, c, corner) < cornerDistance(s, m, corner) {
							m = c
						}
					}
				}
				nearest = min(nearest, cornerDistance(s, m, corner))
				s.Play(m)
				checkOracles(t, s, "after play")
				if r.Intn(4) == 0 {
					s.Undo()
					checkOracles(t, s, "after undo")
				}
			}
		}
		// Lines of 4 and 5 never get this far, even on the smallest board;
		// TestAddMovesThroughMatchesLineWalk clips them instead.
		if v.LineLen == 3 && nearest != 0 {
			t.Errorf("%s: no game reached its corner (nearest point %d away)", v.Name, nearest)
		}
	}
}

// TestAddMovesThroughMatchesLineWalk checks the window kernel alone, move
// ORDER included, on positions no game reaches: random planes on the
// smallest board of every line length and rule, with the new point on
// every cell of the grid, so each direction is clipped by each border and
// corner in turn. The reference walks the L lines through the point cell
// by cell, as the kernel did before it gathered words.
func TestAddMovesThroughMatchesLineWalk(t *testing.T) {
	r := rng.New(5)
	for L := 3; L <= 8; L++ {
		for _, disjoint := range []bool{true, false} {
			v := Variant{Name: "synthetic", LineLen: L, Disjoint: disjoint, BoardSize: len(crossFor(L)) + 4*L}
			s := New(v)
			for trial := 0; trial < 4; trial++ {
				for i := range s.occ {
					s.occ[i] = uint8(r.Intn(5)+3) / 4 // four cells in five hold a point
				}
				for d := 0; d < numDirs; d++ {
					for i := range s.used[d] {
						s.used[d][i] = uint8(r.Intn(8)) / 7
					}
				}
				for p := range s.occ {
					was := s.occ[p]
					s.occ[p] = 1
					var want []game.Move
					for d := Dir(0); d < numDirs; d++ {
						for k := 0; k < L; k++ {
							if m, ok := s.candidate(p%s.w-k*dirDX[d], p/s.w-k*dirDY[d], d); ok {
								want = append(want, m)
							}
						}
					}
					s.moves = s.moves[:0]
					if n := s.addMovesThrough(p); n != len(want) || !equalMoves(s.moves, want) {
						t.Fatalf("L=%d disjoint=%v, point %d,%d: got %v, want %v", L, disjoint, p%s.w, p/s.w, s.moves, want)
					}
					s.occ[p] = was
				}
			}
		}
	}
}

// TestLargeBoardHashesFromScratch checks the key table of a board larger
// than any default, at the upper bound of New.
func TestLargeBoardHashesFromScratch(t *testing.T) {
	s := New(Variant{Name: "5T/256", LineLen: 5, BoardSize: 256})
	r := rng.New(11)
	for i := 0; i < 40 && !s.Terminal(); i++ {
		buf := s.LegalMoves(nil)
		s.Play(buf[r.Intn(len(buf))])
		checkOracles(t, s, "after play")
	}
	s.Reset()
	checkOracles(t, s, "after reset")
}

// TestNewRejectsBoardBeyondMoveEncoding pins the packMove bound: a move
// keeps 16 bits of base cell, so a side above 256 would corrupt moves.
func TestNewRejectsBoardBeyondMoveEncoding(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a 257-wide board")
		}
	}()
	New(Variant{Name: "5D/257", LineLen: 5, Disjoint: true, BoardSize: 257})
}

// TestBoardsAreSafeToShare builds positions of fresh geometries from
// several goroutines at once: the board memo is the one piece of state
// positions share (run under -race).
func TestBoardsAreSafeToShare(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for w := 70; w < 76; w++ {
				s := New(Variant{Name: "5T/shared", LineLen: 5, BoardSize: w})
				s.Play(s.LegalMoves(nil)[0])
				if got, want := s.Hash(), s.hashFromScratch(); got != want {
					t.Errorf("side %d: incremental hash %x != from-scratch %x", w, got, want)
				}
			}
		}()
	}
	wg.Wait()
}
