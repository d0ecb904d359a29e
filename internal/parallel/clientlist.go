package parallel

import (
	"slices"
	"sync"

	"repro/internal/mpi"
)

// clientList is the pool's dispatcher inside one process: the paper's
// Last-Minute free list (§IV-B) held in shared memory by the medians and
// clients the process hosts, instead of in a dispatcher rank they message.
// A median takes a free client with no message; a client that has answered
// its chunk puts itself back with no free notice. The only message left is
// the assignment of a freed client to a median that had to wait for one,
// and the rank that freed the client sends it (release).
//
// The list serves the contiguous worker ranks [lo, hi): every worker rank
// of an in-process pool, or one worker process's range of a net pool,
// which hosts both roles (newPoolWorld). Its clients never serve a median
// of another process, so a lost worker takes its medians, clients and list
// together and nothing else needs repair. A list with no more clients than
// medians is never used at all: its medians play their steps themselves
// (inline).
type clientList struct {
	w            *poolWorld
	lo, hi       mpi.Rank
	longestFirst bool // Last-Minute: serve the waiting median with the fewest moves played
	clients      int  // the list's client ranks, free or busy: all its medians can reach
	medians      int  // the list's median ranks

	mu      sync.Mutex
	free    []mpi.Rank // first in, first out (§IV-B line 15)
	waiting []lmJob    // medians that found no free client, in arrival order
}

// newClientList builds the list of w's worker ranks in [lo, hi), with
// every client in it free.
func newClientList(w *poolWorld, lo, hi mpi.Rank) *clientList {
	l := &clientList{w: w, lo: lo, hi: hi, longestFirst: w.cfg.Algo == LastMinute}
	for r := lo; r < hi; r++ {
		if isClientRank(w, r) {
			l.free = append(l.free, r)
		} else {
			l.medians++
		}
	}
	l.clients = len(l.free)
	return l
}

// inline reports whether the list's medians play every step of their
// games themselves. With no more clients than medians a client buys a
// median no width: the median would sleep while its one client played the
// step, at the cost of two hand-offs. The rule reads the layout only, and
// holds for every median of the process, so median and client compute
// never compete on one list.
func (l *clientList) inline() bool { return l.clients <= l.medians }

// hosts reports whether r is one of the list's ranks, median or client.
// Only those ranks send assignments: a frame from another process never
// carries one of their ranks as its sender.
func (l *clientList) hosts(r mpi.Rank) bool { return r >= l.lo && r < l.hi }

// take hands median a free client at once, or records the median as
// waiting with the moves played in its position, for release to answer.
func (l *clientList) take(median mpi.Rank, moves int) (mpi.Rank, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) == 0 {
		l.waiting = append(l.waiting, lmJob{sender: median, moves: moves})
		return 0, false
	}
	client := l.free[0]
	l.free = slices.Delete(l.free, 0, 1)
	return client, true
}

// put returns client to the list. When a median is waiting, the client
// goes to the one the policy serves first — the fewest moves played under
// Last-Minute, the earliest otherwise — and put returns that median, which
// the caller must send the assignment. A client already free, or not one
// of the list's clients, is left alone.
func (l *clientList) put(client mpi.Rank) (mpi.Rank, bool) {
	if !l.hosts(client) || !isClientRank(l.w, client) {
		return 0, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if slices.Contains(l.free, client) {
		return 0, false
	}
	if len(l.waiting) == 0 {
		l.free = append(l.free, client)
		return 0, false
	}
	best := nextPending(l.waiting, l.longestFirst)
	median := l.waiting[best].sender
	l.waiting = slices.Delete(l.waiting, best, best+1)
	return median, true
}

// release puts client back from the rank behind c, sending the assignment
// when a waiting median takes it.
func (l *clientList) release(c mpi.Comm, client mpi.Rank) {
	if median, ok := l.put(client); ok {
		c.Send(median, tagAssign, client)
	}
}
