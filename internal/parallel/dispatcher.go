package parallel

import (
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
)

// dispatchPolicy is the dispatcher's policy, as data.
type dispatchPolicy struct {
	// blind is the paper's Round-Robin (§IV-A): clients are handed out
	// cyclically whatever their load, and availability notices are ignored.
	// A busy client keeps receiving jobs (they queue in its mailbox) even
	// while other clients sit idle — the load imbalance Last-Minute fixes on
	// heterogeneous clusters.
	blind bool
	// longestFirst serves the pending request with the fewest moves played
	// first (§IV-B line 8): fewer moves played means a longer game ahead.
	// Otherwise requests are served in arrival order.
	longestFirst bool
	// faultAware is the pool's form: the dispatcher additionally tracks
	// which median each busy client serves, so the pool's worker-loss
	// notices can repair the free list. The per-run protocol never sees
	// losses and skips the bookkeeping, so its hot path is untouched.
	faultAware bool
	// near, when set, reports whether client b shares median a's process:
	// a median is granted the first free client near it, else the first
	// free client. Placement only — which client runs a rollout never
	// changes its score. Blind Round-Robin ignores it.
	near func(a, b mpi.Rank) bool
}

// lmJob is a pending request in the dispatcher's queue.
type lmJob struct {
	sender mpi.Rank // the median that asked
	moves  int      // moves already played in the position to analyze
}

// nextPending is the index of the pending request served next: the one
// with the fewest moves played (the longest expected job) when
// longestFirst, the earliest arrival otherwise or among equals.
func nextPending(jobs []lmJob, longestFirst bool) int {
	best := 0
	if longestFirst {
		for i := 1; i < len(jobs); i++ {
			if jobs[i].moves < jobs[best].moves {
				best = i
			}
		}
	}
	return best
}

// runDispatcher is the paper's dispatcher process — Last-Minute (§IV-B):
//
//	1 listFreeClients = all Clients
//	2 jobs = empty list
//	3 while true
//	4   receive node from any node
//	5   if node is a client node
//	6     add node to listFreeClients
//	7     if jobs is not empty
//	8       find j in jobs with the smallest number of moves
//	9       send j.sender to the node's... (assign the freed client to j)
//	10      remove j from jobs
//	11      remove node from listFreeClients
//	12  else if node is a median node
//	13    receive number of moves from node
//	14    if listFreeClients is empty: add {node, moves} to jobs
//	15    else: assign the first free client
//
// The first-in free client is used, so recently freed (likely fast) nodes
// keep cycling on a heterogeneous cluster — the first one in the
// requesting median's process, when dispatchPolicy.near says which.
// Round-Robin (§IV-A) is the same loop with lines 5–11 struck out and every
// client free again the moment it is assigned (dispatchPolicy.blind), so
// line 14 never applies. trace, when non-nil, records each assignment.
func runDispatcher(c mpi.Comm, lay cluster.Layout, pol dispatchPolicy, trace func(kind string, from, to mpi.Rank, at time.Duration)) {
	free := append([]mpi.Rank(nil), lay.Clients...) // line 1
	var jobs []lmJob                                // line 2
	var assigned map[mpi.Rank]mpi.Rank              // busy client -> median it serves
	var dead map[mpi.Rank]bool                      // clients abandoned with their worker
	if pol.faultAware {
		assigned = make(map[mpi.Rank]mpi.Rank, len(lay.Clients))
	}
	// assign hands the first free client (near the median, if any is) to
	// a median, recording the pair.
	assign := func(to mpi.Rank) {
		i := 0
		if pol.near != nil && !pol.blind {
			if j := slices.IndexFunc(free, func(cl mpi.Rank) bool { return pol.near(to, cl) }); j > 0 {
				i = j
			}
		}
		client := free[i]
		free = slices.Delete(free, i, i+1)
		if pol.blind {
			free = append(free, client) // straight back in line: the list is the cyclic order
		}
		if pol.faultAware {
			assigned[client] = to
		}
		if trace != nil {
			trace("b", c.Rank(), to, c.Now())
		}
		c.Send(to, tagAssign, client)
	}
	// serve matches available clients against the pending queue:
	// longest-expected-job-first or arrival order.
	serve := func() {
		for len(jobs) > 0 && len(free) > 0 {
			best := nextPending(jobs, pol.longestFirst)
			j := jobs[best]
			jobs = append(jobs[:best], jobs[best+1:]...)
			assign(j.sender)
		}
	}
	// refree returns a client to the free list unless it is already there.
	refree := func(client mpi.Rank) {
		if !slices.Contains(free, client) {
			free = append(free, client)
		}
	}

	for {
		msg := c.Recv(mpi.AnyRank, mpi.AnyTag)
		switch msg.Tag {
		case tagShutdown:
			// Teardown comes from the per-run root or from outside the
			// rank world (the pool's Inject) — never from a worker rank,
			// so a forged wire frame cannot dismantle the dispatcher.
			if msg.From != mpi.External && msg.From != lay.Root {
				break
			}
			return

		case tagFree: // lines 5–11: a client reports it is available
			// Role and duplication guards: only known clients enter the
			// free list, and never twice — a duplicated entry would let
			// the dispatcher assign one client two concurrent jobs while
			// others idle. Legit traffic never trips either check; wire
			// frames are remote-controlled and might (and after worker
			// churn a preemptively re-freed client's own notice does).
			// Blind Round-Robin ignores availability (clients only announce
			// under the other policies, but tolerate it for robustness).
			if pol.blind || !slices.Contains(lay.Clients, msg.From) || slices.Contains(free, msg.From) {
				break
			}
			if dead[msg.From] {
				break // a notice outliving its abandoned sender
			}
			if pol.faultAware {
				delete(assigned, msg.From)
			}
			free = append(free, msg.From)
			serve()

		case tagRequest: // lines 12–15: a median wants a client
			// Only medians request clients; a forged request would burn a
			// client on a rank that never runs the job (losing it from
			// the rotation). A real median's request is never wrong-typed,
			// but a corrupted one is still answered (as the longest
			// expected job) so the median's assignment wait stays live.
			if !slices.Contains(lay.Medians, msg.From) {
				break
			}
			moves, _ := msg.Payload.(int)
			if len(free) == 0 {
				jobs = append(jobs, lmJob{sender: msg.From, moves: moves})
				break
			}
			assign(msg.From)

		case tagRanksLost, tagRanksDead, tagRanksRevived:
			span, ok := msg.Payload.(svcRanksLost)
			if !ok || msg.From != mpi.External || !pol.faultAware {
				break // forged wire frame: only the pool declares losses
			}
			in := func(r mpi.Rank) bool { return r >= span.Lo && r < span.Hi }
			if msg.Tag == tagRanksRevived {
				// An abandoned worker rejoined after all. Its clients boot
				// idle in the fresh process, so they re-enter the free list
				// directly; their own availability notices arrive later and
				// are shed by the duplicate guard.
				for _, cl := range lay.Clients {
					if in(cl) && dead[cl] {
						delete(dead, cl)
						refree(cl)
					}
				}
				serve()
				break
			}
			// A worker died. Requests from its medians will never be
			// consumed (the replacement re-requests for itself), and
			// clients tied up by the lost ranks would otherwise be
			// reserved forever: a client assigned to a dead median got a
			// job that will never be collected, and a dead client's
			// replacement boots idle without knowing it owes a job. Both
			// are returned to the free list; if the obligation does
			// survive (the job reached a live client, or was queued for
			// the slot and flushes to the replacement), the eventual
			// free notice from the client is shed by the duplicate guard
			// above, and extra jobs queue at the client's mailbox — load
			// skew for a moment, never corruption.
			//
			// tagRanksDead says the worker was abandoned: no replacement is
			// coming, so its clients must instead leave the rotation
			// entirely — re-freeing them would hand medians assignments that
			// can never compute.
			if msg.Tag == tagRanksDead {
				if dead == nil {
					dead = make(map[mpi.Rank]bool, len(lay.Clients))
				}
				for _, cl := range lay.Clients {
					if in(cl) {
						dead[cl] = true
					}
				}
				free = slices.DeleteFunc(free, func(cl mpi.Rank) bool { return dead[cl] })
			}
			jobs = slices.DeleteFunc(jobs, func(j lmJob) bool { return in(j.sender) })
			for client, median := range assigned {
				switch {
				case dead[client]:
					delete(assigned, client)
				case in(client) || in(median):
					delete(assigned, client)
					refree(client)
				}
			}
			serve()
		}
	}
}
