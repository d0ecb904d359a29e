package parallel

// The worker-process side of a distributed pool: cmd/pnmcs-worker dials
// the coordinator and hands the connection to ServeWorker, which rebuilds
// the pool topology from the handshake blob and runs the median and
// client bodies for the rank range the coordinator assigned. The bodies
// are the very same functions the in-process pool runs as goroutines
// (runPoolMedian, runPoolClient); only the transport underneath differs.

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/mpi"
)

// WorkerStats summarizes one worker process's service, for logging.
type WorkerStats struct {
	// Medians / Clients are the counts of hosted ranks by role.
	Medians, Clients int
	// Idle is the cumulative Recv-blocked time across hosted ranks.
	Idle time.Duration
	// Net is the worker-side transport counter snapshot.
	Net mpi.NetStats
	// Lost is true when service ended because the coordinator link died
	// (read error or silence timeout) rather than by an orderly shutdown
	// broadcast — the signal cmd/pnmcs-worker's redial loop keys on.
	Lost bool
}

// ServeWorker runs the pool ranks assigned to a dialed worker connection
// until the coordinator broadcasts shutdown, and returns the worker's
// service statistics. It fails fast when the handshake blob does not
// decode or the assigned range contains coordinator-only ranks (slots,
// scheduler, dispatcher always live with the coordinator).
func ServeWorker(w *mpi.NetWorker) (WorkerStats, error) {
	var stats WorkerStats
	// Validation failures close the dialed connection: the handshake
	// already claimed a coordinator worker slot, and a long-lived
	// embedder that merely drops the NetWorker would occupy it forever
	// (the coordinator frees the slot when the connection dies).
	cfg, err := decodeWorkerBlob(w.Blob())
	if n := cfg.Slots + 2 + cfg.Medians + cfg.Clients; err == nil && n != w.Size() {
		err = fmt.Errorf("parallel: worker blob lays out %d ranks, handshake world has %d", n, w.Size())
	}
	if err != nil {
		w.Close() //nolint:errcheck // already failing
		return stats, err
	}
	world := newPoolWorld(cfg.withDefaults())
	lo, hi := w.RankRange()
	if lo < world.firstWorker() {
		w.Close() //nolint:errcheck // already failing
		return stats, fmt.Errorf("parallel: assigned range [%d, %d) includes coordinator rank %d",
			lo, hi, lo)
	}
	if int(hi) > world.size() {
		w.Close() //nolint:errcheck // already failing
		return stats, fmt.Errorf("parallel: assigned range [%d, %d) beyond world of %d ranks",
			lo, hi, world.size())
	}

	for r := lo; r < hi; r++ {
		if int(r-world.firstWorker()) < cfg.Medians {
			stats.Medians++
		} else {
			stats.Clients++
		}
	}
	// Idle is metered per hosted rank so the coordinator's /metrics can
	// expose the same per-rank series a co-resident pool has: the sampler
	// snapshot rides every pong and the goodbye frame (mpi.SetTelemetry).
	perRank := make([]atomic.Int64, hi-lo)
	medianIdle := func(i int, d time.Duration) { perRank[world.medians[i]-lo].Add(int64(d)) }
	clientIdle := func(i int, d time.Duration) { perRank[world.clients[i]-lo].Add(int64(d)) }
	w.SetTelemetry(func() []float64 {
		out := make([]float64, len(perRank))
		for i := range perRank {
			out[i] = time.Duration(perRank[i].Load()).Seconds()
		}
		return out
	})
	// The worker's transposition cache, sized by the handshake blob: hosted
	// client ranks share it across every job the coordinator routes here.
	// Each process caches independently — results are pure functions of
	// position content, so worker caches need no coherence protocol, they
	// just overlap.
	tc := cache.New(int64(world.cfg.CacheMB) << 20)
	startPoolWorkers(w, world, tc, world.cfg.CacheVerify, medianIdle, clientIdle)

	w.Run()
	var total int64
	for i := range perRank {
		total += perRank[i].Load()
	}
	stats.Idle = time.Duration(total)
	stats.Net = w.Stats()
	stats.Lost = w.Lost()
	return stats, nil
}
