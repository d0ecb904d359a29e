package samegame

// Oracles the table-driven kernels are checked against. They work from
// coordinates and rng.Mix alone, sharing neither the layout tables nor the
// flood with LegalMoves and Play.

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/game"
	"repro/internal/rng"
)

// hashFromScratch recomputes the position hash from the cells alone.
func (s *State) hashFromScratch() uint64 {
	h := rng.Mix(hashSalt, uint64(s.w)<<32|uint64(s.h))
	for i, c := range s.cells {
		if c != 0 {
			h ^= rng.Mix(hashSalt, uint64(i)<<8|uint64(uint8(c)))
		}
	}
	return h
}

// groupMoves lists one move per group of at least two blocks, named by its
// smallest cell index, in increasing order: it grows every group from each
// of its blocks by coordinates and keeps the block that is the smallest.
func (s *State) groupMoves() []game.Move {
	var moves []game.Move
	for i, c := range s.cells {
		if c == 0 {
			continue
		}
		seen := map[int]bool{i: true}
		todo := []int{i}
		smallest := true
		for len(todo) > 0 {
			cur := todo[len(todo)-1]
			todo = todo[:len(todo)-1]
			smallest = smallest && cur >= i
			x, y := cur/s.h, cur%s.h
			for _, n := range [4][2]int{{x - 1, y}, {x + 1, y}, {x, y - 1}, {x, y + 1}} {
				nb := n[0]*s.h + n[1]
				if n[0] >= 0 && n[0] < s.w && n[1] >= 0 && n[1] < s.h && s.cells[nb] == c && !seen[nb] {
					seen[nb] = true
					todo = append(todo, nb)
				}
			}
		}
		if smallest && len(seen) >= 2 {
			moves = append(moves, game.Move(i))
		}
	}
	return moves
}

// checkOracles asserts that LegalMoves, Terminal and Hash agree with the
// oracles on the current position.
func checkOracles(t *testing.T, s *State, when string) {
	t.Helper()
	got, want := s.LegalMoves(nil), s.groupMoves()
	if !slices.Equal(got, want) {
		t.Fatalf("%s: legal moves %v, oracle %v\n%s", when, got, want, s.Render())
	}
	if s.Terminal() != (len(want) == 0) {
		t.Fatalf("%s: Terminal() = %v with %d groups", when, s.Terminal(), len(want))
	}
	if got, want := s.Hash(), s.hashFromScratch(); got != want {
		t.Fatalf("%s: incremental hash %x != from-scratch %x", when, got, want)
	}
}

// TestKernelsMatchOracles plays random games with interleaved Undos on the
// shapes that stress the tables: one row, one column, the defaults, and a
// board larger than any default.
func TestKernelsMatchOracles(t *testing.T) {
	shapes := [][3]int{{12, 1, 3}, {1, 12, 3}, {2, 2, 1}, {8, 8, 4}, {15, 15, 5}, {20, 18, 6}}
	for _, sh := range shapes {
		for seed := uint64(1); seed <= 3; seed++ {
			r := rng.New(seed)
			s := NewRandom(sh[0], sh[1], sh[2], seed)
			checkOracles(t, s, "fresh board")
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

// TestCopyFromAcrossShapesSwapsLayout pins that a recycled state adopts
// the tables of the shape it copies, not only the cells.
func TestCopyFromAcrossShapesSwapsLayout(t *testing.T) {
	dst := NewRandom(3, 9, 2, 1)
	src := NewRandom(9, 3, 4, 2)
	dst.CopyFrom(src)
	checkOracles(t, dst, "after CopyFrom")
	r := rng.New(3)
	for !dst.Terminal() {
		moves := dst.LegalMoves(nil)
		dst.Play(moves[r.Intn(len(moves))])
		checkOracles(t, dst, "copy, after play")
	}
}

// TestLayoutsAreSafeToShare builds boards of fresh shapes from several
// goroutines at once: the layout memo and the growing key table behind it
// are the one piece of state positions share (run under -race).
func TestLayoutsAreSafeToShare(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 1; n <= 12; n++ {
				s := NewRandom(20+n, 21+g, 3, uint64(n))
				s.Play(s.LegalMoves(nil)[0])
				if got, want := s.Hash(), s.hashFromScratch(); got != want {
					t.Errorf("%dx%d: incremental hash %x != from-scratch %x", s.w, s.h, got, want)
				}
			}
		}(g)
	}
	wg.Wait()
}
