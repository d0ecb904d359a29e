package parallel

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/game"
	"repro/internal/mpi"
)

// runRoot is the paper's root process (§IV-A pseudocode):
//
//	1 while not end of game
//	2   node = first median node
//	3   for m in all possible moves
//	4     p = play(position, m)
//	5     send p to node
//	6     node = next median node
//	7   for m in all possible moves
//	8     receive score from node
//	9   position = play(position, move with best score)
//	10 return score
//
// The step loop itself is stepGather's; this driver owns how a candidate
// travels (lines 2–6) and what arrives (lines 7–8). There are three
// shipping policies, all playing the exact same game — client scores are
// keyed by logical job coordinates, not by executing rank — so the choice
// only affects timing:
//
//   - Config.Static, the paper's: candidates go to medians cyclically;
//     when there are more moves than medians a median receives several
//     positions and answers them in order (mailboxes are FIFO per sender,
//     like MPI message ordering), so pairing the bare scores to moves only
//     needs a per-median FIFO of move indices. Kept as the A/B baseline
//     for the paper's tables.
//   - pull, the default: candidates are offered to a work queue; idle
//     medians pull them with (q) work requests and are answered with (g)
//     grants. Grants self-balance: a 2×-slower median simply requests half
//     as often, instead of stalling the whole step as it does under the
//     cyclic order. Scores come back tagged with their coordinates.
//   - pull + speculate (Config.Speculate > 0): the same queue also carries
//     the next step's candidates for the leading moves, so it never drains
//     at a step boundary. When the argmax resolves the losers' queued
//     candidates are purged and their in-flight grants drain, shed by the
//     Par branch discriminator.
//
// A StopAfter budget cancels the pull policies mid-step: queued candidates
// are abandoned, already-granted ones are drained before returning.
func runRoot(c mpi.Comm, lay cluster.Layout, cfg *Config, res *Result) {
	var pool core.StatePool
	src := mpi.NewPullSource(c, tagPosition)
	src.Granted = func(to mpi.Rank) { cfg.trace("g", c.Rank(), to, c.Now()) }
	queues := make(map[mpi.Rank][]int, len(lay.Medians)) // static: unanswered move indices per median

	g := &stepGather{c: c, pool: &pool, st: cfg.Root.Clone(), k: cfg.speculate(), par: -1}
	g.offer = func(step, cand, par int, child game.State) {
		cd := candidate{Step: step, Cand: cand, Par: par, State: child}
		if !cfg.Static {
			src.Offer(cd)
			return
		}
		med := lay.Medians[cand%len(lay.Medians)]
		cfg.trace("a", c.Rank(), med, c.Now())
		c.Send(med, tagPosition, cd)
		queues[med] = append(queues[med], cand)
	}
	// purge drops the queued candidates that are not of the step being
	// gathered — speculation that lost or will never be played — and, with
	// all set, those too, whose count it returns. In-flight grants are not
	// recalled: they drain through the gather and the final drain below.
	purge := func(all bool) (current int) {
		src.AbandonFunc(func(it any) bool {
			cd := it.(candidate)
			if cd.Step == g.step && cd.Par == g.par {
				if !all {
					return false
				}
				current++
			}
			pool.Put(cd.State)
			return true
		})
		return current
	}
	for g.next() {
		stepStart := c.Now()
		if cfg.stopDue(c) {
			res.Stopped = true
			break
		}
		g.open()
		for !g.done() {
			msg := c.Recv(mpi.AnyRank, mpi.AnyTag)
			switch msg.Tag {
			case tagWorkReq:
				src.Request(msg.From)
			case tagScore:
				if sc, ok := msg.Payload.(stepScore); ok {
					src.Done()
					g.record(sc.Step, sc.Par, sc.Cand, sc.Score, rolloutAcct{})
					break
				}
				// A static median answers with bare scores, oldest position first.
				q := queues[msg.From]
				queues[msg.From] = q[1:]
				g.record(g.step, g.par, q[0], msg.Payload.(float64), rolloutAcct{})
			}
			// The static scheduler stops at step boundaries only: once the
			// fan-out of lines 3–6 has happened, every shipped position
			// must be answered anyway.
			if !res.Stopped && !cfg.Static && cfg.stopDue(c) {
				res.Stopped = true
				g.want -= purge(true)
			}
			if !res.Stopped {
				res.Speculated += g.speculate()
			}
		}
		if res.Stopped {
			break
		}

		best, score, wasted := g.resolve()
		if wasted > 0 {
			res.SpecWasted += wasted
			purge(false)
		}
		res.Steps++
		res.StepLatency = append(res.StepLatency, c.Now()-stepStart)
		res.Sequence = append(res.Sequence, best)
		if res.Steps == 1 {
			res.FirstMove = best
			if cfg.FirstMoveOnly {
				res.Score = score
				break
			}
		}
	}

	// Cancel whatever speculation is still pending, then drain every
	// outstanding grant so no median is parked with work the root never
	// collected.
	if wasted := g.pending(); wasted > 0 {
		res.SpecWasted += wasted
		purge(true)
	}
	for src.Outstanding() > 0 {
		msg := c.Recv(mpi.AnyRank, mpi.AnyTag)
		switch msg.Tag {
		case tagWorkReq:
			src.Request(msg.From)
		case tagScore:
			src.Done()
		}
	}
	if !cfg.FirstMoveOnly || res.Steps == 0 {
		res.Score = g.st.Score()
	}
	res.QueueDepthMax, res.QueueDepthMean = src.DepthStats()

	// Tear down every other process, as mpirun would at the end of a run.
	for r := 0; r < c.Size(); r++ {
		if mpi.Rank(r) != c.Rank() {
			c.Send(mpi.Rank(r), tagShutdown, nil)
		}
	}
}
