package parallel

// The worker-process side of a distributed pool: cmd/pnmcs-worker dials
// the coordinator and hands the connection to ServeWorker, which rebuilds
// the pool topology from the handshake blob and runs the median bodies for
// the rank range the coordinator assigned, with the worker's share of the
// clients as helpers of its rollout executor. The bodies are the very same
// functions the in-process pool runs as goroutines (runPoolMedian,
// executor.runHelper); only the transport underneath differs.

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/mpi"
)

// WorkerStats summarizes one worker process's service, for logging.
type WorkerStats struct {
	// Medians is the count of hosted median ranks; Clients the count of
	// helper goroutines the worker's rollout executor ran (zero when the
	// worker hosts no more clients than medians).
	Medians, Clients int
	// Idle is the cumulative idle time across the medians (Recv-blocked,
	// waiting for a grant) and the helpers (waiting for a posted step).
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
// service statistics. The hosted medians share one rollout executor with
// the worker's share of the clients as its helpers, so no rollout leaves
// the process; a worker that hosts no more clients than medians starts no
// helper and its medians play every rollout themselves. The helpers stop
// when service ends, by shutdown or by a lost coordinator link. It fails
// fast when the handshake blob does not decode, or the assigned range is
// not one of the worker ranges of the layout the blob describes (the
// slots and scheduler always live with the coordinator).
func ServeWorker(w *mpi.NetWorker) (WorkerStats, error) {
	var stats WorkerStats
	// Validation failures close the dialed connection: the handshake
	// already claimed a coordinator worker slot, and a long-lived
	// embedder that merely drops the NetWorker would occupy it forever
	// (the coordinator frees the slot when the connection dies).
	cfg, workers, err := decodeWorkerBlob(w.Blob())
	if n := cfg.Slots + 1 + cfg.Medians; err == nil && n != w.Size() {
		err = fmt.Errorf("parallel: worker blob lays out %d ranks, handshake world has %d", n, w.Size())
	}
	if err != nil {
		w.Close() //nolint:errcheck // already failing
		return stats, err
	}
	world := newPoolWorld(cfg.withDefaults(), workers)
	lo, hi := w.RankRange()
	if !world.isRange(lo, hi) {
		w.Close() //nolint:errcheck // already failing
		return stats, fmt.Errorf("parallel: assigned range [%d, %d) is not one of the %d worker ranges of the layout",
			lo, hi, workers)
	}
	process, _ := world.process(lo)
	stats.Medians = int(hi - lo)
	stats.Clients, _ = world.helpers(process)

	// Idle is metered per hosted median and helper so the coordinator's
	// /metrics can expose the same series a co-resident pool has: the
	// sampler snapshot, the medians' then the helpers', rides every pong
	// and the goodbye frame (mpi.SetTelemetry).
	idle := make([]atomic.Int64, stats.Medians+stats.Clients)
	medianIdle := func(i int, d time.Duration) { idle[world.medians[i]-lo].Add(int64(d)) }
	helperIdle := func(i int, d time.Duration) { idle[stats.Medians+i].Add(int64(d)) }
	w.SetTelemetry(func() []float64 {
		out := make([]float64, len(idle))
		for i := range idle {
			out[i] = time.Duration(idle[i].Load()).Seconds()
		}
		return out
	})
	// The worker's transposition cache, sized by the handshake blob: the
	// hosted medians and helpers share it across every job the coordinator
	// routes here. Each process caches independently — results are pure
	// functions of position content, so worker caches need no coherence
	// protocol, they just overlap.
	ex := newExecutor(world.cfg, cache.New(int64(world.cfg.CacheMB)<<20))
	ex.start(stats.Clients, helperIdle)
	startPoolWorkers(w, world, ex, medianIdle)

	w.Run()
	if w.Lost() {
		// The coordinator is gone and the hosted bodies wait in Recv for
		// frames that will never come: release them as its shutdown
		// broadcast would have, so a redialing process does not keep a
		// stranded set of ranks per lost link.
		for r := lo; r < hi; r++ {
			w.Inject(r, tagShutdown, nil)
		}
	}
	// A median still finishing its game after a lost link needs no helper:
	// it claims what the helpers leave.
	ex.close()
	var total int64
	for i := range idle {
		total += idle[i].Load()
	}
	stats.Idle = time.Duration(total)
	stats.Net = w.Stats()
	stats.Lost = w.Lost()
	return stats, nil
}
