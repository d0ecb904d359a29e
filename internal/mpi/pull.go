package mpi

// Demand-driven work distribution: the work-request / work-grant protocol.
//
// The paper's root process assigns candidate positions to median nodes in a
// fixed cyclic order, so on a heterogeneous cluster every step waits for
// the slowest node. The pull protocol inverts the direction of control:
// workers ask the process that owns the work for their next item, and the
// owner grants items in demand order, so faster workers automatically take
// a larger share. PullSource is the owner-side bookkeeping of that
// protocol; it is written against Comm only and therefore behaves
// identically on the deterministic VirtualCluster and on the goroutine
// WallCluster.
//
// Wire shape (tags are chosen by the caller):
//
//	worker -> owner: reqTag, payload ignored   "I am idle, give me work"
//	owner -> worker: grantTag, payload = item  "work on this"
//
// The owner must feed every incoming reqTag message into Request and every
// new unit of work into Offer; both sides of the queue (idle workers,
// ready items) are matched FIFO. Completion is tracked with Done so the
// owner can drain outstanding grants before tearing the world down (e.g.
// on a mid-game stop).
type PullSource struct {
	c        Comm
	grantTag Tag

	// Granted, when non-nil, is invoked just before each grant message is
	// sent, for protocol tracing.
	Granted func(to Rank)

	waiting []Rank // idle workers with no item to grant yet, FIFO
	ready   []any  // items with no idle worker yet, FIFO
	granted int    // grants not yet marked Done

	// depth accounting for the scheduler instrumentation: samples of
	// len(ready) taken at every Offer/Request transition.
	depthSamples int
	depthSum     int
	depthMax     int
}

// NewPullSource returns the owner-side state of a pull protocol whose
// grants are sent on grantTag through c.
func NewPullSource(c Comm, grantTag Tag) *PullSource {
	return &PullSource{c: c, grantTag: grantTag}
}

// Request records a work request from rank `from` and grants it the oldest
// ready item immediately when one is queued. The caller routes reqTag
// messages here.
func (s *PullSource) Request(from Rank) {
	if len(s.ready) > 0 {
		item := s.ready[0]
		s.ready = s.ready[:copy(s.ready, s.ready[1:])]
		s.grant(from, item)
	} else {
		s.waiting = append(s.waiting, from)
	}
	s.sample()
}

// Offer adds one item of work and grants it to the oldest idle worker
// immediately when one is waiting.
func (s *PullSource) Offer(item any) {
	if len(s.waiting) > 0 {
		to := s.waiting[0]
		s.waiting = s.waiting[:copy(s.waiting, s.waiting[1:])]
		s.grant(to, item)
	} else {
		s.ready = append(s.ready, item)
	}
	s.sample()
}

// grant ships an item to a worker.
func (s *PullSource) grant(to Rank, item any) {
	s.granted++
	if s.Granted != nil {
		s.Granted(to)
	}
	s.c.Send(to, s.grantTag, item)
}

// Done records the completion of one granted item.
func (s *PullSource) Done() {
	if s.granted <= 0 {
		panic("mpi: PullSource.Done without an outstanding grant")
	}
	s.granted--
}

// Outstanding returns the number of granted items not yet completed.
func (s *PullSource) Outstanding() int { return s.granted }

// Ready returns the number of items queued with no idle worker.
func (s *PullSource) Ready() int { return len(s.ready) }

// AbandonFunc drops every queued item for which drop returns true without
// granting it (a mid-run stop, or a selective purge — e.g. cancelling one
// speculative branch while keeping another) and returns how many were
// dropped. Kept items preserve their FIFO order; outstanding grants are
// unaffected, and the owner still drains them with Done.
func (s *PullSource) AbandonFunc(drop func(item any) bool) int {
	kept := s.ready[:0]
	n := 0
	for _, it := range s.ready {
		if drop(it) {
			n++
		} else {
			kept = append(kept, it)
		}
	}
	for i := len(kept); i < len(s.ready); i++ {
		s.ready[i] = nil
	}
	s.ready = kept
	s.sample()
	return n
}

// sample records the current ready-queue depth for DepthStats.
func (s *PullSource) sample() {
	d := len(s.ready)
	s.depthSamples++
	s.depthSum += d
	if d > s.depthMax {
		s.depthMax = d
	}
}

// DepthStats reports the ready-queue depth profile: the maximum depth and
// the mean depth over all Offer/Request transitions. A persistently deep
// queue means workers are the bottleneck; a persistently empty one means
// the owner is.
func (s *PullSource) DepthStats() (max int, mean float64) {
	if s.depthSamples == 0 {
		return 0, 0
	}
	return s.depthMax, float64(s.depthSum) / float64(s.depthSamples)
}
