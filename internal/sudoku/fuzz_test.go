package sudoku

// Native fuzz target extending the pinned Play/Undo round-trip property
// (undo_test.go, core/equivalence_test.go) to arbitrary move sequences:
// every Undo must restore the position bit-exactly — score, move count
// and the exact ORDER of the legal-move list, captured as a position
// hash. Sudoku's undo log rewinds (cell, previous-next) pairs, so the
// next-empty-cell cursor is the subtle state this hunts.

import (
	"math"
	"testing"

	"repro/internal/game"
)

// fuzzHash folds the observable position state — move count, score and
// the ordered legal-move list — into one position hash (FNV-1a).
func fuzzHash(st game.State, buf []game.Move) (uint64, []game.Move) {
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= 1099511628211
			x >>= 8
		}
	}
	mix(uint64(st.MovesPlayed()))
	mix(math.Float64bits(st.Score()))
	buf = st.LegalMoves(buf[:0])
	mix(uint64(len(buf)))
	for _, m := range buf {
		mix(uint64(m))
	}
	return h, buf
}

// FuzzPlayUndoRoundTrip also runs checkOracles (oracle_test.go) at every
// position: the legal-move list and the incremental game.Hasher hash — the
// property the transposition cache keys on — must equal a recomputation
// from the board that shares no table with the kernels.
func FuzzPlayUndoRoundTrip(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0, 255, 128, 64, 32, 16, 8, 4, 2, 1, 0, 3, 9, 27, 81})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// Box side 2 (4x4) or 3 (9x9); 16x16 is too slow for a fuzz body.
		st := New(2 + int(data[0])%2)
		picks := data[1:]
		if len(picks) > 128 {
			picks = picks[:128]
		}

		var buf []game.Move
		var hashes []uint64
		h, buf := fuzzHash(st, buf)
		hashes = append(hashes, h)
		checkOracles(t, st, "fresh position")

		var legal []game.Move
		for _, b := range picks {
			legal = st.LegalMoves(legal[:0])
			if len(legal) == 0 {
				break
			}
			st.Play(legal[int(b)%len(legal)])
			h, buf = fuzzHash(st, buf)
			hashes = append(hashes, h)
			checkOracles(t, st, "after play")
		}

		for depth := len(hashes) - 1; depth > 0; depth-- {
			st.Undo()
			h, buf = fuzzHash(st, buf)
			if h != hashes[depth-1] {
				t.Fatalf("undo to depth %d: position hash %x != %x (score/move-order not restored)",
					depth-1, h, hashes[depth-1])
			}
			checkOracles(t, st, "after undo")
		}
		if st.MovesPlayed() != 0 {
			t.Fatalf("fully rewound position still has %d moves", st.MovesPlayed())
		}
	})
}
