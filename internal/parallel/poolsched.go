package parallel

// The scheduler rank: the per-job candidate queues the medians pull from.

import (
	"repro/internal/mpi"
)

// specCovered reports whether cand is mooted by the cancel cn. The
// zero-value cancel covers nothing (job epochs start at 1).
func specCovered(cn svcSpecCancel, cand svcCandidate) bool {
	if cn.Slot != cand.P.Slot || cn.Epoch != cand.P.Epoch {
		return false
	}
	return cn.Step == -1 || (cand.Step == cn.Step && cand.Par != cn.Keep)
}

// runScheduler owns the per-job candidate queues: the multi-root form of
// PR 2's PullSource. Roots offer candidates on their slot's tag band;
// idle medians pull with flat work requests; grants walk the non-empty
// job queues round-robin, so every running job makes progress even while
// a wide job floods the pool. An abandon message drops a job's queued
// candidates and acks the exact count, which is what lets the root's
// drain arithmetic converge under cancellation.
//
// Fault tolerance: the scheduler tracks which grants are outstanding per
// median, so a worker-loss notice can re-queue the dead medians' unscored
// candidates at the head of their jobs' queues (the same logical
// coordinates are re-granted, so rng.Fold keying keeps every re-executed
// score bit-identical). The bookkeeping costs no extra messages — it
// exploits the pull protocol's own ordering. A median's lifecycle is
//
//	recv grant Gₖ → send work request → play Gₖ → send score(Gₖ) → recv Gₖ₊₁
//
// so a work request from median M proves M has started its latest grant,
// which it could only do after sending the score of the grant before it —
// and because the score and the work request ride the same FIFO stream
// (the score is delivered to the slot's mailbox before the scheduler ever
// sees the request), "score sent" is "score delivered". A request
// therefore retires all but the newest outstanding grant; at most the
// grant being played and one prefetched successor are ever at risk, and
// exactly those are re-queued when the worker dies. A re-queued candidate
// whose score did arrive (lost worker, surviving score) is replayed for
// nothing — the slot's duplicate guard sheds the second score — but never
// corrupts state.
func (p *Pool) runScheduler(c mpi.Comm) {
	queues := make([][]svcCandidate, p.cfg.Slots)
	granted := make(map[mpi.Rank][]svcCandidate) // outstanding grants per median
	// cancels holds the latest speculation cancel per slot: applied to the
	// queue when it arrives, and again to a dead worker's grants when they
	// are re-queued (a cancelled speculative grant that died with its
	// worker must not be resurrected — nobody is waiting for its score).
	cancels := make([]svcSpecCancel, p.cfg.Slots)
	var waiting []mpi.Rank
	next := 0
	total := 0

	pick := func() (svcCandidate, bool) {
		if total == 0 {
			return svcCandidate{}, false
		}
		for i := 0; i < p.cfg.Slots; i++ {
			s := (next + i) % p.cfg.Slots
			if len(queues[s]) > 0 {
				cand := queues[s][0]
				queues[s] = queues[s][1:]
				if len(queues[s]) == 0 {
					queues[s] = nil // release the drained backing array
				}
				total--
				next = (s + 1) % p.cfg.Slots
				return cand, true
			}
		}
		return svcCandidate{}, false
	}
	grant := func(to mpi.Rank, cand svcCandidate) {
		granted[to] = append(granted[to], cand)
		c.Send(to, tagGrant, cand)
	}

	for {
		msg := c.Recv(mpi.AnyRank, mpi.AnyTag)
		switch msg.Tag {
		case tagShutdown:
			if msg.From != mpi.External {
				continue // forged wire frame; see runSlot
			}
			return
		case tagWorkReq:
			// Only medians pull work. A forged request from any other
			// rank would swallow a granted candidate (nothing else plays
			// candidates or reports scores), wedging the owning job.
			if !isMedianRank(p.world, msg.From) {
				continue
			}
			// The request proves every outstanding grant but the newest
			// one has been scored (see the function comment).
			if g := granted[msg.From]; len(g) > 1 {
				granted[msg.From] = append(g[:0], g[len(g)-1])
			}
			if cand, ok := pick(); ok {
				grant(msg.From, cand)
			} else {
				waiting = append(waiting, msg.From)
			}
			p.coll.sampleDepth(total)
			continue
		case tagRanksLost, tagRanksDead:
			// A worker died (tagRanksLost) or was abandoned for good
			// (tagRanksDead). Re-queue its medians' outstanding grants at
			// the head of the owning jobs' queues, drop its medians from
			// the waiting list (a replacement announces itself with a
			// fresh work request), and tell the owning slots how much work
			// churned. For an abandonment the repair is usually a no-op —
			// the loss notice already ran when the worker first died, and
			// a dead median can send no new work requests — but replaying
			// it is free and keeps the invariant local: after either
			// notice, no grant is parked on a rank in [Lo, Hi).
			lost, ok := msg.Payload.(svcRanksLost)
			if !ok || msg.From != mpi.External {
				continue // forged wire frame: only the pool declares losses
			}
			type jobKey struct {
				root  mpi.Rank
				epoch uint64
			}
			regrants := map[jobKey]int{} // owning job -> re-queued count
			for m := lost.Lo; m < lost.Hi; m++ {
				g := granted[m]
				if len(g) == 0 {
					continue
				}
				delete(granted, m)
				// Head insertion, oldest grant first, so re-granted work
				// runs before anything queued behind it. Grants covered by
				// their slot's latest speculation cancel die with the
				// worker instead: their branch lost, no gather counts them.
				for i := len(g) - 1; i >= 0; i-- {
					cand := g[i]
					if specCovered(cancels[cand.P.Slot], cand) {
						continue
					}
					queues[cand.P.Slot] = append([]svcCandidate{cand}, queues[cand.P.Slot]...)
					total++
					regrants[jobKey{cand.P.Root, cand.P.Epoch}]++
				}
			}
			kept := waiting[:0]
			for _, m := range waiting {
				if m < lost.Lo || m >= lost.Hi {
					kept = append(kept, m)
				}
			}
			waiting = kept
			// Surviving waiting medians can take the re-queued work now.
			for len(waiting) > 0 && total > 0 {
				cand, _ := pick()
				grant(waiting[0], cand)
				waiting = waiting[:copy(waiting, waiting[1:])]
			}
			for k, n := range regrants {
				p.coll.addRegranted(n)
				c.Send(k.root, tagRegrant, svcRegrant{Epoch: k.epoch, Count: n})
			}
			p.coll.sampleDepth(total)
			continue
		}
		slot, off, ok := p.world.space.Split(msg.Tag)
		if !ok {
			continue
		}
		// Band messages only come from the band's own slot rank — a wire
		// frame claiming another job's band could abandon or pollute that
		// tenant's queue.
		if msg.From != mpi.Rank(slot) {
			continue
		}
		switch off {
		case offOffer:
			cand, ok := msg.Payload.(svcCandidate)
			if !ok {
				continue
			}
			if len(waiting) > 0 {
				to := waiting[0]
				waiting = waiting[:copy(waiting, waiting[1:])]
				grant(to, cand)
			} else {
				queues[slot] = append(queues[slot], cand)
				total++
			}
			p.coll.sampleDepth(total)
		case offAbandon:
			ab, ok := msg.Payload.(svcAbandon)
			if !ok {
				continue
			}
			// Drop everything the epoch still has queued, but ack only the
			// gathered step's count: speculative next-step candidates never
			// entered the slot's drain arithmetic.
			dropped, removed := 0, 0
			kept := queues[slot][:0]
			for _, cd := range queues[slot] {
				if cd.P.Epoch == ab.Epoch {
					removed++
					if cd.Step == ab.Step {
						dropped++
					}
					continue
				}
				kept = append(kept, cd)
			}
			queues[slot] = kept
			total -= removed
			c.Send(mpi.Rank(slot), tagAbandonAck, svcAbandonAck{Epoch: ab.Epoch, Dropped: dropped})
		case offSpecCancel:
			cn, ok := msg.Payload.(svcSpecCancel)
			if !ok || cn.Slot != slot {
				continue
			}
			cancels[slot] = cn
			removed := 0
			kept := queues[slot][:0]
			for _, cd := range queues[slot] {
				if specCovered(cn, cd) {
					removed++
					continue
				}
				kept = append(kept, cd)
			}
			queues[slot] = kept
			total -= removed
			p.coll.sampleDepth(total)
			// Re-broadcast so every median can skip covered buffered grants
			// (a median reads its mailbox only between games, so a covered
			// game already in play finishes). Sent to all medians: a lost
			// worker's copy queues for its replacement, an abandoned one's
			// is dropped by the transport. No ack — see svcSpecCancel.
			for _, m := range p.world.medians {
				c.Send(m, tagSpecCancel, cn)
			}
		}
	}
}
