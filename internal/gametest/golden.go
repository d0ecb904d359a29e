// Package gametest holds test helpers shared by the domain packages.
package gametest

import (
	"math"
	"testing"

	"repro/internal/game"
	"repro/internal/rng"
)

// Domain is what the three bundled domains implement beyond game.State.
type Domain interface {
	game.Undoer
	game.Hasher
	game.Copier
}

// fold accumulates 64-bit words into one FNV-1a digest.
type fold uint64

func (f *fold) word(x uint64) {
	h := uint64(*f)
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= 1099511628211
		x >>= 8
	}
	*f = fold(h)
}

// position folds the ordered legal-move list and the hash of s, and
// returns the list.
func (f *fold) position(s Domain, buf []game.Move) []game.Move {
	buf = s.LegalMoves(buf[:0])
	f.word(uint64(len(buf)))
	for _, m := range buf {
		f.word(uint64(m))
	}
	f.word(s.Hash())
	return buf
}

// GoldenDigest plays one seeded game from s to the end and folds
// everything the search can observe of its positions into one digest: the
// ORDER of every legal-move list (sample plays moves[rng.Intn(n)], so
// order is semantics), every Hash() value and the final score. After every
// Play it draws one of: nothing, Undo (when a move is undoable), continue
// on a Clone, continue on a CopyFrom into the recycled spare (which should
// start with another geometry), continue on a wire round-trip (when wire
// is not nil).
//
// The domains' TestGoldenOrderAndHashes pin digests generated before their
// kernels became table-driven; a kernel change that moves one of them
// changes search results.
func GoldenDigest(t testing.TB, s, spare Domain, seed uint64, wire func(game.State) (game.State, error)) uint64 {
	t.Helper()
	f := fold(14695981039346656037)
	r := rng.New(seed)
	undoable := 0
	moves := f.position(s, nil)
	for len(moves) > 0 {
		s.Play(moves[r.Intn(len(moves))])
		undoable++
		moves = f.position(s, moves)
		switch r.Intn(8) {
		case 0:
			if undoable > 0 {
				s.Undo()
				undoable--
			}
		case 1:
			s, undoable = s.Clone().(Domain), 0
		case 2:
			spare.CopyFrom(s)
			s, spare, undoable = spare, s, 0
		case 3:
			if wire != nil {
				dec, err := wire(s)
				if err != nil {
					t.Fatalf("wire round-trip: %v", err)
				}
				s, undoable = dec.(Domain), 0
			}
		default:
			continue
		}
		moves = f.position(s, moves)
	}
	f.word(math.Float64bits(s.Score()))
	return uint64(f)
}
