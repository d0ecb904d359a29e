package core

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/game"
	"repro/internal/morpion"
	"repro/internal/rng"
	"repro/internal/samegame"
	"repro/internal/sudoku"
)

// equivalenceDomains are the searched positions of the undo-vs-clone
// determinism tests: one per domain, small enough for level-2 Morpion and
// level-1 elsewhere to run in test time.
func equivalenceDomains() map[string]func() game.State {
	return map[string]func() game.State{
		"morpion4D": func() game.State { return morpion.New(morpion.Var4D) },
		"samegame":  func() game.State { return samegame.NewRandom(8, 8, 4, 7) },
		"sudoku9":   func() game.State { return sudoku.New(3) },
	}
}

// TestNestedUndoMatchesClone pins the central equivalence of the
// allocation-free search core: for a fixed seed, the Play/Undo traversal
// and the clone-per-candidate traversal return bit-identical results —
// same score, same move sequence — on every domain.
func TestNestedUndoMatchesClone(t *testing.T) {
	for name, mk := range equivalenceDomains() {
		t.Run(name, func(t *testing.T) {
			levels := []int{1, 2}
			if name != "morpion4D" {
				levels = []int{1}
			}
			for _, level := range levels {
				for seed := uint64(1); seed <= 3; seed++ {
					undo := NewSearcher(rng.New(seed), DefaultOptions())
					ru := undo.Nested(mk(), level)
					if undo.Stats().Clones != 0 {
						t.Fatalf("level %d seed %d: undo traversal cloned %d times",
							level, seed, undo.Stats().Clones)
					}

					opts := DefaultOptions()
					opts.NoUndo = true
					clone := NewSearcher(rng.New(seed), opts)
					rc := clone.Nested(mk(), level)
					if clone.Stats().Undos != 0 {
						t.Fatalf("level %d seed %d: clone traversal undid %d moves",
							level, seed, clone.Stats().Undos)
					}

					if ru.Score != rc.Score {
						t.Fatalf("level %d seed %d: undo score %v != clone score %v",
							level, seed, ru.Score, rc.Score)
					}
					if len(ru.Sequence) != len(rc.Sequence) {
						t.Fatalf("level %d seed %d: sequence lengths differ: %d vs %d",
							level, seed, len(ru.Sequence), len(rc.Sequence))
					}
					for i := range ru.Sequence {
						if ru.Sequence[i] != rc.Sequence[i] {
							t.Fatalf("level %d seed %d: sequences differ at move %d",
								level, seed, i)
						}
					}
				}
			}
		})
	}
}

// TestNestedUndoMatchesCloneWithStop extends the equivalence to cancelled
// searches: both traversals must poll Stop in the same order and finish the
// game identically.
func TestNestedUndoMatchesCloneWithStop(t *testing.T) {
	for name, mk := range equivalenceDomains() {
		t.Run(name, func(t *testing.T) {
			for _, cutoff := range []int{1, 5, 50} {
				run := func(noUndo bool) Result {
					calls := 0
					opts := DefaultOptions()
					opts.NoUndo = noUndo
					opts.Stop = func() bool { calls++; return calls > cutoff }
					return NewSearcher(rng.New(11), opts).Nested(mk(), 1)
				}
				ru, rc := run(false), run(true)
				if ru.Score != rc.Score || len(ru.Sequence) != len(rc.Sequence) {
					t.Fatalf("cutoff %d: stopped searches diverge: %v/%d vs %v/%d",
						cutoff, ru.Score, len(ru.Sequence), rc.Score, len(rc.Sequence))
				}
				for i := range ru.Sequence {
					if ru.Sequence[i] != rc.Sequence[i] {
						t.Fatalf("cutoff %d: sequences differ at move %d", cutoff, i)
					}
				}
			}
		})
	}
}

// TestSearcherReuseAcrossConfigs pins a scratch-pool regression: a single
// Searcher (and its recycled clone-fallback states) must survive being
// reused across variants and board sizes of the same domain.
func TestSearcherReuseAcrossConfigs(t *testing.T) {
	opts := DefaultOptions()
	opts.NoUndo = true // force the clone fallback so the pool is exercised
	s := NewSearcher(rng.New(2), opts)
	if r := s.Nested(morpion.New(morpion.Var4D), 1); r.Score <= 0 {
		t.Fatal("4D search failed")
	}
	if r := s.Nested(morpion.New(morpion.Var5T), 1); r.Score <= 0 {
		t.Fatal("5T search after 4D reuse failed")
	}
	if r := s.Nested(samegame.NewRandom(6, 6, 3, 1), 1); r.Score < 0 {
		t.Fatal("cross-domain reuse failed")
	}
	if r := s.Nested(samegame.NewRandom(8, 8, 4, 1), 1); r.Score < 0 {
		t.Fatal("cross-size SameGame reuse failed")
	}
}

// TestNestedUndoLeavesStateAtTerminal checks the documented contract that
// Nested leaves the searched state at the terminal position of the played
// game on both traversals.
func TestNestedUndoLeavesStateAtTerminal(t *testing.T) {
	for name, mk := range equivalenceDomains() {
		t.Run(name, func(t *testing.T) {
			st := mk()
			res := NewSearcher(rng.New(3), DefaultOptions()).Nested(st, 1)
			if !st.Terminal() {
				t.Fatal("undo traversal left a non-terminal position")
			}
			if st.Score() != res.Score {
				t.Fatalf("terminal score %v != result score %v", st.Score(), res.Score)
			}
		})
	}
}

// TestScoreMatchesNested pins the score-only entry against the two calls
// it shares its set-up with: on every domain, cache off and on, Score
// returns the score Nested / NestedCached return and leaves the same
// Stats behind (same playouts, steps, undos, cache traffic — it is the
// same search), and once its buffers have grown it allocates nothing.
func TestScoreMatchesNested(t *testing.T) {
	for name, mk := range equivalenceDomains() {
		for _, cached := range []bool{false, true} {
			for _, level := range []int{0, 1} {
				t.Run(fmt.Sprintf("%s/cache=%v/level%d", name, cached, level), func(t *testing.T) {
					searcher := func() *Searcher {
						s := NewSearcher(rng.New(5), DefaultOptions())
						if cached {
							s.SetCache(cache.New(0), cache.Scope("", true, 0), false)
						}
						return s
					}
					full, only := searcher(), searcher()
					var want Result
					if cached {
						want = full.NestedCached(mk(), level)
					} else {
						want = full.Nested(mk(), level)
					}
					if got := only.Score(mk(), level, cached); got != want.Score {
						t.Fatalf("Score returned %v, the full search %v", got, want.Score)
					}
					if only.Stats() != full.Stats() {
						t.Fatalf("Score left stats %+v, the full search %+v", only.Stats(), full.Stats())
					}

					base, scratch := mk(), mk()
					run := func() {
						scratch.(game.Copier).CopyFrom(base)
						only.Reseed(5, 1)
						only.Score(scratch, level, cached)
					}
					run() // grow the move buffers to this stream's longest game
					if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
						t.Fatalf("Score allocated %v times per call after warm-up", allocs)
					}
				})
			}
		}
	}
}
