package parallel

// The pool's rank topology: which process hosts which medians and how
// many clients, and which ranks a degraded pool has lost.

import (
	"sync"
	"sync/atomic"

	"repro/internal/mpi"
)

// poolWorld is the pool's rank topology, a pure function of PoolConfig and
// the number of processes hosting its medians: slots first, then the
// scheduler, then each worker process's contiguous range of medians
// (newPoolWorld). Clients are not ranks: each process runs its share of
// them as helper goroutines of its rollout executor (helpers). The
// coordinator derives the world when building the pool and a pnmcs-worker
// process derives the identical layout from the PoolConfig and worker
// count in its handshake blob, so both sides agree on every rank and tag
// without exchanging anything beyond the two.
type poolWorld struct {
	cfg     PoolConfig
	sched   mpi.Rank
	medians []mpi.Rank
	ranks   []int // median count of each worker process's range, in rank order
	clients []int // client count of each worker process, in the same order
	space   mpi.TagSpace

	// Degraded layout: which median ranks have been abandoned (their
	// process lost for good, no replacement). Only the coordinator's world
	// tracks it, for Result.Degraded. degEpoch counts dead-set
	// transitions; it stays zero for the whole life of a healthy pool (and
	// always for wall pools), so the healthy check is one atomic load, no
	// lock.
	degEpoch atomic.Uint64
	degMu    sync.Mutex
	degDead  []bool // indexed rank - firstWorker(); nil until first abandonment
}

// markDead records [lo, hi) as abandoned.
func (w *poolWorld) markDead(lo, hi mpi.Rank) {
	w.degMu.Lock()
	if w.degDead == nil {
		w.degDead = make([]bool, w.cfg.Medians)
	}
	for r := lo; r < hi; r++ {
		if i := int(r - w.firstWorker()); i >= 0 && i < len(w.degDead) {
			w.degDead[i] = true
		}
	}
	w.degMu.Unlock()
	w.degEpoch.Add(1)
}

// revive clears [lo, hi) after an abandoned worker rejoined after all.
func (w *poolWorld) revive(lo, hi mpi.Rank) {
	w.degMu.Lock()
	for r := lo; r < hi; r++ {
		if i := int(r - w.firstWorker()); i >= 0 && i < len(w.degDead) {
			w.degDead[i] = false
		}
	}
	w.degMu.Unlock()
	w.degEpoch.Add(1)
}

// anyDead reports whether the world is currently shrunken.
func (w *poolWorld) anyDead() bool {
	if w.degEpoch.Load() == 0 {
		return false
	}
	w.degMu.Lock()
	defer w.degMu.Unlock()
	for _, d := range w.degDead {
		if d {
			return true
		}
	}
	return false
}

// newPoolWorld lays out the world of a pool with the given (defaulted)
// config, whose medians are hosted by workers processes (1 for an
// in-process pool). Worker process i hosts splitRanks(M, workers)[i]
// medians in one contiguous range and splitRanks(C, workers)[i] clients.
func newPoolWorld(cfg PoolConfig, workers int) *poolWorld {
	w := &poolWorld{
		cfg:     cfg,
		sched:   mpi.Rank(cfg.Slots),
		ranks:   splitRanks(cfg.Medians, workers),
		clients: splitRanks(cfg.Clients, workers),
		space:   mpi.TagSpace{Base: tagBandBase, Width: numOffsets, Bands: cfg.Slots},
	}
	for i := range cfg.Medians {
		w.medians = append(w.medians, w.firstWorker()+mpi.Rank(i))
	}
	return w
}

// process returns the index of the worker process whose range starts at
// lo.
func (w *poolWorld) process(lo mpi.Rank) (int, bool) {
	r := w.firstWorker()
	for i, n := range w.ranks {
		if lo == r {
			return i, true
		}
		r += mpi.Rank(n)
	}
	return 0, false
}

// isRange reports whether [lo, hi) is one worker process's range.
func (w *poolWorld) isRange(lo, hi mpi.Rank) bool {
	i, ok := w.process(lo)
	return ok && hi == lo+mpi.Rank(w.ranks[i])
}

// helpers returns how many helper goroutines worker process i starts, and
// the client index of its first. A process with no more clients than
// medians starts none: a helper would buy its medians no width, so they
// claim every rollout of their steps themselves. The rule reads the layout
// only.
func (w *poolWorld) helpers(i int) (n, first int) {
	for _, c := range w.clients[:i] {
		first += c
	}
	if w.clients[i] > w.ranks[i] {
		n = w.clients[i]
	}
	return n, first
}

// idleIndex maps entry k of the idle telemetry of the worker process
// whose range starts at lo — its medians' idle, then its clients' (its
// helpers', when it runs them) — onto the pool's idle series: a median
// index, or Medians plus a client index. ok is false past the process's
// layout.
func (w *poolWorld) idleIndex(lo mpi.Rank, k int) (int, bool) {
	i, ok := w.process(lo)
	if !ok || k < 0 {
		return 0, false
	}
	if k < w.ranks[i] {
		return int(lo-w.firstWorker()) + k, true
	}
	if k -= w.ranks[i]; k < w.clients[i] {
		_, first := w.helpers(i)
		return w.cfg.Medians + first + k, true
	}
	return 0, false
}

// size returns the world size: slots + scheduler + medians.
func (w *poolWorld) size() int {
	return w.cfg.Slots + 1 + w.cfg.Medians
}

// firstWorker is the first median rank — every rank at or beyond it may
// be hosted by a remote worker process.
func (w *poolWorld) firstWorker() mpi.Rank { return mpi.Rank(w.cfg.Slots + 1) }

// splitRanks splits n ranks of one role over w worker processes, as
// evenly as possible: the first n%w processes get one rank more than the
// rest.
func splitRanks(n, w int) []int {
	ranks := make([]int, w)
	for i := range ranks {
		ranks[i] = n / w
		if i < n%w {
			ranks[i]++
		}
	}
	return ranks
}

// isMedianRank reports whether r is one of the world's median ranks.
func isMedianRank(w *poolWorld, r mpi.Rank) bool {
	return r >= w.firstWorker() && int(r) < w.size()
}
