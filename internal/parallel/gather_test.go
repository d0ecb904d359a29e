package parallel

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/game"
	"repro/internal/mpi"
)

// workComm is the only part of a Comm the gather touches: the work meter.
type workComm struct {
	mpi.Comm
	units int64
}

func (w *workComm) Work(n int64) { w.units += n }

// coord is the logical address a candidate was offered under.
type coord struct{ step, cand, par int }

// gatherRig is a stepGather on a 3-arm tree with its offers and counted
// accounting recorded — no cluster, no medians.
type gatherRig struct {
	*stepGather
	offers  []coord
	counted rolloutAcct
	comm    *workComm
}

func newGatherRig(k int) *gatherRig {
	r := &gatherRig{comm: &workComm{}}
	r.stepGather = &stepGather{c: r.comm, pool: &core.StatePool{}, st: game.NewArmTree(3, 3, 5), k: k, par: -1,
		offer: func(step, cand, par int, _ game.State) { r.offers = append(r.offers, coord{step, cand, par}) },
		count: func(a rolloutAcct) { r.counted.add(a) },
	}
	return r
}

// one is the accounting of a score whose game ran one chunk of one rollout.
var one = rolloutAcct{rollouts: 1, units: 10, chunks: 1}

func TestStepGather(t *testing.T) {
	t.Run("lockstep", func(t *testing.T) {
		g := newGatherRig(0)
		if !g.next() {
			t.Fatal("fresh tree has no moves")
		}
		g.open()
		if want := []coord{{0, 0, -1}, {0, 1, -1}, {0, 2, -1}}; !slices.Equal(g.offers, want) {
			t.Fatalf("step 0 offers %v, want %v", g.offers, want)
		}
		if want := int64(3 * (core.CloneCost + 1)); g.comm.units != want {
			t.Fatalf("metered %d units for three clone-and-plays, want %d", g.comm.units, want)
		}
		// Scores arrive out of order; everything that is not a live
		// candidate's first score is shed without touching the table.
		for _, sc := range []struct {
			name            string
			step, par, cand int
			score           float64
			got             int
		}{
			{"last candidate first", 0, -1, 2, 5, 1},
			{"duplicate frame", 0, -1, 2, 9, 1},
			{"cand past the table", 0, -1, 3, 9, 1},
			{"negative cand", 0, -1, -1, 9, 1},
			{"wrong branch", 0, 1, 0, 9, 1},
			{"earlier step", -1, -1, 0, 9, 1},
			{"next step, nothing speculated", 1, 0, 0, 9, 1},
			{"first candidate", 0, -1, 0, 7, 2},
			{"middle candidate", 0, -1, 1, 7, 3},
		} {
			g.record(sc.step, sc.par, sc.cand, sc.score, one)
			if g.cur.got != sc.got {
				t.Fatalf("%s: got %d scores, want %d", sc.name, g.cur.got, sc.got)
			}
			if g.speculate() != 0 {
				t.Fatalf("%s: the lockstep gather speculated", sc.name)
			}
		}
		if !g.done() || !slices.Equal(g.cur.scores, []float64{7, 7, 5}) {
			t.Fatalf("table %v done=%v, want [7 7 5] done", g.cur.scores, g.done())
		}
		if g.counted != (rolloutAcct{3, 30, 3}) {
			t.Fatalf("counted %+v, want each live score once", g.counted)
		}
		best, score, wasted := g.resolve()
		if best != g.moves[0] || score != 7 || wasted != 0 {
			t.Fatalf("resolve = move %v score %v wasted %d, want the first of the tied leaders", best, score, wasted)
		}
		if g.step != 1 || g.par != 0 || g.st.MovesPlayed() != 1 {
			t.Fatalf("after resolve: step %d par %d, %d moves played", g.step, g.par, g.st.MovesPlayed())
		}
		if len(g.offers) != 3 || g.pending() != 0 {
			t.Fatalf("lockstep gather left speculation behind: offers %v", g.offers)
		}
	})

	// speculated opens step 0 at k = 1 and scores candidates 1 then 0, which
	// speculates under leader 0.
	speculated := func(t *testing.T) *gatherRig {
		g := newGatherRig(1)
		g.next()
		g.open()
		g.record(0, -1, 1, 5, one)
		if n := g.speculate(); n != 0 {
			t.Fatalf("speculated %d candidates with two scores missing at k=1", n)
		}
		g.record(0, -1, 0, 9, one)
		if n := g.speculate(); n != 3 {
			t.Fatalf("speculated %d candidates, want the leader's 3", n)
		}
		if want := []coord{{1, 0, 0}, {1, 1, 0}, {1, 2, 0}}; !slices.Equal(g.offers[3:], want) {
			t.Fatalf("speculative offers %v, want %v", g.offers[3:], want)
		}
		if n := g.speculate(); n != 0 {
			t.Fatalf("a step speculated twice (%d more candidates)", n)
		}
		return g
	}

	t.Run("adopted branch counts its buffered score once", func(t *testing.T) {
		g := speculated(t)
		ahead := rolloutAcct{rollouts: 2, units: 20, chunks: 1}
		g.record(1, 0, 2, 4, ahead) // finished before its step opened
		g.record(1, 0, 2, 8, ahead) // duplicate
		g.record(1, 1, 0, 8, ahead) // a branch nobody speculated
		if g.branches[0].got != 1 || g.cur.got != 2 || g.counted != (rolloutAcct{2, 20, 2}) {
			t.Fatalf("buffered-ahead score: branch got %d, step got %d, counted %+v", g.branches[0].got, g.cur.got, g.counted)
		}
		g.record(0, -1, 2, 1, one)
		if _, _, wasted := g.resolve(); wasted != 0 || g.adopt == nil {
			t.Fatalf("leader won but wasted %d, adopt %v", wasted, g.adopt)
		}
		g.next()
		g.open()
		if len(g.offers) != 6 {
			t.Fatalf("adopted step re-offered: %v", g.offers[6:])
		}
		if g.cur.got != 1 || g.want != 3 || g.cur.scores[2] != 4 {
			t.Fatalf("adopted table: got %d of %d, scores %v", g.cur.got, g.want, g.cur.scores)
		}
		if want := (rolloutAcct{3 + 2, 30 + 20, 3 + 1}); g.counted != want {
			t.Fatalf("counted %+v after adoption, want %+v", g.counted, want)
		}
		g.record(1, 0, 2, 8, ahead) // the buffered score's duplicate, now current
		g.record(0, -1, 0, 8, one)  // the resolved step's
		if g.cur.got != 1 || g.counted != (rolloutAcct{5, 50, 4}) {
			t.Fatalf("stale scores moved the adopted table: got %d, counted %+v", g.cur.got, g.counted)
		}
	})

	t.Run("losing branch is charged and its scores filed stale", func(t *testing.T) {
		g := speculated(t)
		g.record(1, 0, 1, 4, one)   // buffered against the leader's branch
		g.record(0, -1, 2, 10, one) // …which the straggler then beats
		best, _, wasted := g.resolve()
		if best != g.moves[2] || wasted != 3 || g.adopt != nil {
			t.Fatalf("resolve = move %v wasted %d adopt %v, want candidate 2 winning and 3 wasted", best, wasted, g.adopt)
		}
		g.next()
		g.open()
		if want := []coord{{1, 0, 2}, {1, 1, 2}, {1, 2, 2}}; !slices.Equal(g.offers[6:], want) {
			t.Fatalf("step 1 offers %v, want %v", g.offers[6:], want)
		}
		g.record(1, 0, 0, 9, one) // the loser's game coming home
		if g.cur.got != 0 || g.counted != (rolloutAcct{3, 30, 3}) {
			t.Fatalf("loser's score was filed: got %d, counted %+v", g.cur.got, g.counted)
		}
	})

	t.Run("pending", func(t *testing.T) {
		g := speculated(t)
		if w := g.pending(); w != 3 || len(g.branches) != 0 {
			t.Fatalf("unresolved speculation: pending %d, %d branches left", w, len(g.branches))
		}
		g = speculated(t)
		g.record(0, -1, 2, 1, one)
		g.resolve() // adopted, then a stop cuts the game off before the step opens
		if w := g.pending(); w != 3 || g.adopt != nil {
			t.Fatalf("adopted-but-cut-off branch: pending %d, adopt %v", w, g.adopt)
		}
		if w := g.pending(); w != 0 {
			t.Fatalf("pending charged the same speculation twice (%d)", w)
		}
	})
}
