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
// keep cycling on a heterogeneous cluster. Round-Robin (§IV-A) is the same
// loop with lines 5–11 struck out and every client free again the moment
// it is assigned (dispatchPolicy.blind), so line 14 never applies. trace,
// when non-nil, records each assignment.
func runDispatcher(c mpi.Comm, lay cluster.Layout, pol dispatchPolicy, trace func(kind string, from, to mpi.Rank, at time.Duration)) {
	free := append([]mpi.Rank(nil), lay.Clients...) // line 1
	var jobs []lmJob                                // line 2
	// assign hands the first free client to a median.
	assign := func(to mpi.Rank) {
		client := free[0]
		free = slices.Delete(free, 0, 1)
		if pol.blind {
			free = append(free, client) // straight back in line: the list is the cyclic order
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

	for {
		msg := c.Recv(mpi.AnyRank, mpi.AnyTag)
		switch msg.Tag {
		case tagShutdown: // the root's teardown at the end of the run
			return

		case tagFree: // lines 5–11: a client reports it is available
			// Role and duplication guards: only known clients enter the
			// free list, and never twice — a duplicated entry would let
			// the dispatcher assign one client two concurrent jobs while
			// others idle. Legit traffic never trips either check.
			// Blind Round-Robin ignores availability (clients only announce
			// under the other policies, but tolerate it for robustness).
			if pol.blind || !slices.Contains(lay.Clients, msg.From) || slices.Contains(free, msg.From) {
				break
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
		}
	}
}
