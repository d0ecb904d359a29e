package parallel

import (
	"sort"

	"repro/internal/core"
	"repro/internal/game"
	"repro/internal/mpi"
)

// rolloutAcct is the rollout accounting that rides a pool score (svcScore):
// rollouts, their metered work and the steps a helper joined. The per-run
// protocol meters rollouts through its collector and files zeros.
type rolloutAcct struct {
	rollouts, units, chunks int64
}

func (a *rolloutAcct) add(b rolloutAcct) {
	a.rollouts += b.rollouts
	a.units += b.units
	a.chunks += b.chunks
}

// specBranch is the candidate table of one root step: the positions
// shipped, by move index, and the scores that have come back. The step
// being gathered has one, and so does every speculated next-step branch —
// the candidates of step+1 that would be offered if the leading move `par`
// (the branch's key in stepGather.branches) won the current argmax, issued
// before the argmax resolved. A branch buffers the rollout accounting of
// its scores until it is adopted, so Result.Jobs and Result.WorkUnits stay
// bit-identical to a non-speculating run.
type specBranch struct {
	shipped []game.State
	scores  []float64
	scored  []bool // per-candidate received flag, guards duplicate frames
	got     int    // scores already received
	acct    rolloutAcct
}

func (b *specBranch) add(child game.State) {
	b.shipped = append(b.shipped, child)
	b.scores = append(b.scores, 0)
	b.scored = append(b.scored, false)
}

// stepGather is the root's step loop, written once for the per-run root
// (runRoot) and the pool's job slots (Pool.playJob):
//
//	1 while not end of game
//	2   offer one child per possible move (unless already offered
//	    speculatively last step — then adopt the branch wholesale)
//	3   while scores missing
//	4     on score for this step: record it
//	5     on score for a speculated branch: buffer it against the branch
//	6     once ≤ k scores are missing: for each of the top-k leaders by
//	       partial score, speculatively offer the *next* step's candidates
//	       under that leader's branch
//	7   position = play(move with best score)
//	8   adopt the winner's branch; the losers are the driver's to cancel
//
// It is the root's ledger of initiated-but-unobserved samples (WU-UCT
// style) and nothing else: how a candidate reaches a median is the offer
// function, and receiving messages, deadlines and cancelling losers stay
// with the driver, which reads and adjusts want as candidates are
// abandoned. k = 0 is the paper's lockstep gather.
//
// Determinism: a speculative candidate carries the same logical
// coordinates (step, cand) — and therefore the same rng keys — that the
// lockstep root would issue after the argmax, and its state is
// content-equal (clone + Play(leader) + Play(move) vs. the in-place path),
// so an adopted branch's scores are bit-identical to the non-speculative
// ones. Losing branches cost work (Result.SpecWasted), never correctness.
type stepGather struct {
	c    mpi.Comm
	pool *core.StatePool
	st   game.State // the root game's position
	k    int        // speculation width; 0 = lockstep
	// keep leaves shipped positions to the garbage collector instead of
	// recycling them when their score arrives. A net pool's scheduler may
	// still hold a scored candidate and re-grant it after its median's
	// worker is lost, encoding the position again from another goroutine.
	keep bool
	// offer ships one candidate towards a median. par is the branch
	// discriminator: the move index played at step−1 (candidate.Par).
	offer func(step, cand, par int, child game.State)
	// count, when set, takes the accounting of every score that counts
	// towards the game: at once for the current step, at adoption for a
	// speculated one.
	count func(rolloutAcct)

	step, par  int         // the step being gathered, the move played before it
	moves      []game.Move // its legal moves
	cur        specBranch  // its table
	want       int         // scores the step still expects in total
	speculated bool        // this step has issued its speculation

	branches map[int]*specBranch // live speculation on step+1, by leader move
	adopt    *specBranch         // winning branch carried into the next step
	scratch  []game.Move
}

// child clones from and plays m on the copy, metered like the sequential
// search's clone-and-play.
func (g *stepGather) child(from game.State, m game.Move) game.State {
	child := g.pool.Get(from)
	g.c.Work(core.CloneCost)
	child.Play(m)
	g.c.Work(1)
	return child
}

// next enumerates the next step's moves (line 1). It reports false at the
// end of the game.
func (g *stepGather) next() bool {
	g.moves = g.st.LegalMoves(g.moves[:0])
	return len(g.moves) > 0
}

// open puts the step's candidates in flight (line 2).
func (g *stepGather) open() {
	g.want, g.speculated = len(g.moves), false
	if g.adopt != nil {
		// The winning branch was speculated: its candidates are already
		// offered (some granted, some even scored). LegalMoves is a
		// deterministic function of position content, so the branch's
		// enumeration is exactly the one just computed — adopt its table
		// wholesale instead of re-offering, and count its buffered rollout
		// accounting now that the work is real.
		g.cur, g.adopt = *g.adopt, nil
		if g.count != nil {
			g.count(g.cur.acct)
		}
		return
	}
	// Shipped positions recycle last step's states through the free list:
	// a median is done with a position once its score is back.
	g.cur = specBranch{shipped: g.cur.shipped[:0], scores: g.cur.scores[:0], scored: g.cur.scored[:0]}
	for i, m := range g.moves {
		child := g.child(g.st, m)
		g.cur.add(child)
		g.offer(g.step, i, g.par, child)
	}
}

// done reports whether every score the step still expects has arrived.
func (g *stepGather) done() bool { return g.cur.got >= g.want }

// record files one score by the coordinates its candidate was issued
// under (lines 4–5). Anything that matches neither the current step nor a
// live branch is shed: a cancelled branch's game coming home (its waste
// was charged when it lost), a re-granted duplicate of an earlier step
// whose original score survived a worker crash, or a frame whose candidate
// index is out of range or already scored — a duplicate must not
// double-free the shipped state or end the gather early, which would let a
// real score bleed into the next step.
func (g *stepGather) record(step, par, cand int, score float64, acct rolloutAcct) {
	var b *specBranch
	switch {
	case step == g.step && par == g.par:
		b = &g.cur
	case step == g.step+1:
		// A speculative game finished before its step started.
		b = g.branches[par]
	}
	if b == nil || cand < 0 || cand >= len(b.scores) || b.scored[cand] {
		return
	}
	b.scored[cand] = true
	b.scores[cand] = score
	b.got++
	if !g.keep {
		g.pool.Put(b.shipped[cand])
	}
	switch {
	case b != &g.cur:
		b.acct.add(acct)
	case g.count != nil:
		g.count(acct)
	}
}

// speculate issues the step's speculation once it is close enough to
// resolution (line 6), so idle medians start on step+1 while the
// stragglers finish, and returns the number of candidates offered.
func (g *stepGather) speculate() int64 {
	if g.k == 0 || g.speculated || g.cur.got < 1 || g.want-g.cur.got > g.k {
		return 0
	}
	g.speculated = true
	if g.branches == nil {
		g.branches = make(map[int]*specBranch)
	}
	var offered int64
	for _, lead := range topLeaders(g.cur.scores, g.cur.scored, g.k) {
		parent := g.child(g.st, g.moves[lead])
		g.scratch = parent.LegalMoves(g.scratch[:0])
		if len(g.scratch) > 0 { // a terminal child has nothing to pipeline
			b := &specBranch{}
			for j, mv := range g.scratch {
				child := g.child(parent, mv)
				b.add(child)
				g.offer(g.step+1, j, lead, child)
			}
			offered += int64(len(g.scratch))
			g.branches[lead] = b
		}
		g.pool.Put(parent)
	}
	return offered
}

// resolve plays the argmax move (line 7; ties go to the first-seen move,
// matching the sequential search) and settles the speculation (line 8):
// the winner's branch, if it was speculated, is carried into the next
// step, and the candidates wasted on the losers are returned. Cancelling
// the losers' queued and in-flight work is the driver's job; their shipped
// states are never recycled here — a median may still be playing them.
func (g *stepGather) resolve() (best game.Move, score float64, wasted int64) {
	i := argmax(g.cur.scores)
	winner := g.branches[i]
	delete(g.branches, i)
	wasted = g.pending() // every other branch lost
	g.adopt = winner
	g.st.Play(g.moves[i])
	g.c.Work(1)
	g.step, g.par = g.step+1, i
	return g.moves[i], g.cur.scores[i], wasted
}

// pending drops whatever speculation is still live when the game is over —
// the last gather's branches (their positions will never be played) or an
// adopted branch a stop cut off — and returns its candidate count.
func (g *stepGather) pending() (wasted int64) {
	for par, b := range g.branches {
		wasted += int64(len(b.scores))
		delete(g.branches, par)
	}
	if g.adopt != nil {
		wasted += int64(len(g.adopt.scores))
		g.adopt = nil
	}
	return wasted
}

// argmax returns the index of the highest score; ties go to the first-seen
// move, matching the sequential search's argmax.
func argmax(scores []float64) int {
	best := 0
	for i := 1; i < len(scores); i++ {
		if scores[i] > scores[best] {
			best = i
		}
	}
	return best
}

// topLeaders returns up to k candidate indices ordered best-score-first
// (ties to the lower index, matching argmax), considering only candidates
// whose scores have been observed.
func topLeaders(scores []float64, scored []bool, k int) []int {
	var lead []int
	for i, ok := range scored {
		if ok {
			lead = append(lead, i)
		}
	}
	sort.SliceStable(lead, func(a, b int) bool { return scores[lead[a]] > scores[lead[b]] })
	if len(lead) > k {
		lead = lead[:k]
	}
	return lead
}
