package sudoku

import (
	"testing"

	"repro/internal/game"
	"repro/internal/rng"
)

// midGame returns a 16×16 grid twenty cells in, where a level-1 search
// spends its time.
func midGame(b *testing.B) *State {
	b.Helper()
	r := rng.New(1)
	s := New(4)
	var buf []game.Move
	for i := 0; i < 20; i++ {
		buf = s.LegalMoves(buf[:0])
		if len(buf) == 0 {
			b.Fatal("mid-game position is terminal")
		}
		s.Play(buf[r.Intn(len(buf))])
	}
	return s
}

// The benchmarks below run as one named sub-benchmark each: BENCH_baseline.json
// keys its rows by name alone, and the other domains have a BenchmarkPlayUndo
// too.

func BenchmarkLegalMoves(b *testing.B) {
	b.Run("sudoku4", func(b *testing.B) {
		s := midGame(b)
		buf := s.LegalMoves(nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = s.LegalMoves(buf[:0])
		}
	})
}

func BenchmarkPlayUndo(b *testing.B) {
	b.Run("sudoku4", func(b *testing.B) {
		s := midGame(b)
		buf := s.LegalMoves(nil)
		if len(buf) == 0 {
			b.Fatal("mid-game position is terminal")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Play(buf[i%len(buf)])
			s.Undo()
		}
	})
}

// BenchmarkPlayout is one uniformly random game from the empty grid on a
// recycled state: the unit of cost of every search above it.
func BenchmarkPlayout(b *testing.B) {
	b.Run("sudoku4", func(b *testing.B) {
		r := rng.New(1)
		root, s := New(4), New(4)
		var buf []game.Move
		playout := func() {
			s.CopyFrom(root)
			for {
				buf = s.LegalMoves(buf[:0])
				if len(buf) == 0 {
					return
				}
				s.Play(buf[r.Intn(len(buf))])
			}
		}
		for i := 0; i < 8; i++ {
			playout() // grow the undo log and the move buffer
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			playout()
		}
	})
}
