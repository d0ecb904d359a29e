package parallel

// The median rank: one level-(ℓ−1) game per granted candidate.

import (
	"time"

	"repro/internal/mpi"
	"repro/internal/rng"
)

// medianComm is runPoolMedian's mailbox, read only between games: every
// Recv is a wildcard, dispatched by tag. A grant that arrives while the
// median waits for another message is buffered.
type medianComm struct {
	c    mpi.Comm
	w    *poolWorld
	idle func(time.Duration)

	grants []svcCandidate // prefetched grants awaiting play
	shut   bool           // shutdown broadcast seen; unwind without new work
	// cancels holds the latest speculation cancel per slot (nil until the
	// first async job cancels a branch — lockstep pools never pay for the
	// map). Consulted before playing a buffered grant, so a losing
	// branch's grant is skipped instead of played for a score nobody
	// wants.
	cancels map[int]svcSpecCancel
}

// covered reports whether cand is mooted by its slot's latest cancel.
func (mc *medianComm) covered(cand svcCandidate) bool {
	if mc.cancels == nil {
		return false
	}
	return specCovered(mc.cancels[cand.P.Slot], cand)
}

// recv is the single blocking wait: it meters idle time and handles the
// messages a median reads.
func (mc *medianComm) recv() {
	t0 := mc.c.Now()
	msg := mc.c.Recv(mpi.AnyRank, mpi.AnyTag)
	mc.idle(mc.c.Now() - t0)
	switch msg.Tag {
	case tagShutdown:
		if msg.From == mpi.External {
			mc.shut = true
		}
	case tagGrant:
		if cand, ok := msg.Payload.(svcCandidate); ok && msg.From == mc.w.sched {
			mc.grants = append(mc.grants, cand)
		}
	case tagSpecCancel:
		// Only the scheduler cancels speculation; latest per slot wins (a
		// new cancel supersedes the old one's step).
		if cn, ok := msg.Payload.(svcSpecCancel); ok && msg.From == mc.w.sched {
			if mc.cancels == nil {
				mc.cancels = make(map[int]svcSpecCancel)
			}
			mc.cancels[cn.Slot] = cn
		}
	}
}

// runPoolMedian is the persistent form of the per-run median process:
// pull a candidate from the shared scheduler, play its full level-(ℓ−1)
// game with one level-(ℓ−2) rollout per candidate move, report the score
// to the owning slot, repeat. One work request is kept in flight while a
// game is being played (the PR 2 prefetch window at its default of 1), so
// the next grant travels during computation. The median's move buffers
// persist across jobs and domains.
//
// Each step's rollouts go through the process's executor: the median
// posts the step and claims its rollouts beside any helper that joins, so
// it never sleeps through its own step. The median reads its mailbox only
// between games: a speculation cancel or a shutdown that arrives mid-game
// takes effect when the game ends, and the slot sheds the cancelled game's
// score.
//
// The body is written against mpi.Comm and the poolWorld layout only, so
// the identical function runs as a coordinator goroutine (wall pool) or
// inside a pnmcs-worker process (net pool); idle receives each
// Recv-blocked interval. A worker loss takes the median and its process's
// helpers down together, and the scheduler re-grants its candidate
// (runScheduler).
func runPoolMedian(c mpi.Comm, w *poolWorld, ex *executor, idle func(time.Duration)) {
	ro := ex.rollouts()
	s := &execStep{wake: make(chan struct{}, 1)}
	mc := &medianComm{c: c, w: w, idle: idle}

	c.Send(w.sched, tagWorkReq, nil)
	for {
		// Take the next grant: buffered from a previous wait, or awaited.
		var cand svcCandidate
		for {
			if mc.shut {
				return
			}
			if len(mc.grants) > 0 {
				cand = mc.grants[0]
				mc.grants = mc.grants[:copy(mc.grants, mc.grants[1:])]
				break
			}
			mc.recv()
		}
		// Prefetch: ask for the next candidate before playing this one.
		// Sent at play start, never at frame arrival — the scheduler's
		// outstanding-grant retirement depends on that ordering.
		c.Send(w.sched, tagWorkReq, nil)
		if mc.covered(cand) {
			// A cancelled speculative grant: skip it without playing or
			// scoring. The work request above still retires the
			// scheduler's grant bookkeeping, exactly as if it were played.
			continue
		}

		st := cand.State
		var acct rolloutAcct
		ro.use(cand.P)
		s.base, s.p = st, cand.P
		for t := 0; ; t++ {
			s.moves = st.LegalMoves(s.moves[:0])
			if len(s.moves) == 0 {
				break
			}
			s.keys = s.keys[:0]
			for j := range s.moves {
				s.keys = append(s.keys, rng.Fold(uint64(cand.Step), uint64(cand.Cand), uint64(t), uint64(j)))
			}
			units, helped := ex.play(ro, s)
			acct.add(rolloutAcct{rollouts: int64(len(s.moves)), units: units})
			if helped {
				acct.chunks++
			}
			c.Work(units * cand.P.JobScale)
			st.Play(s.moves[argmax(s.scores)])
			c.Work(1)
		}
		ro.done()
		c.Send(cand.P.Root, tagStepScore, svcScore{
			Epoch: cand.P.Epoch, Step: cand.Step, Cand: cand.Cand, Par: cand.Par,
			Score: st.Score(), Rollouts: acct.rollouts, Units: acct.units, Chunks: acct.chunks,
		})
	}
}
