package parallel

import (
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/game"
	"repro/internal/mpi"
	"repro/internal/rng"
)

// collector aggregates per-rank statistics. Guarded by a mutex because
// the wall transport runs processes concurrently (the virtual transport is
// single-stepped, where the mutex is uncontended).
type collector struct {
	mu         sync.Mutex
	jobs       int64
	units      int64
	busy       []time.Duration
	clientIdle []time.Duration
	medianIdle []time.Duration
}

func (co *collector) add(client int, units int64, busy time.Duration) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.jobs++
	co.units += units
	co.busy[client] += busy
}

func (co *collector) setClientIdle(client int, idle time.Duration) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.clientIdle[client] = idle
}

func (co *collector) setMedianIdle(median int, idle time.Duration) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.medianIdle[median] = idle
}

// unitMeter accumulates the work units of one job.
type unitMeter struct{ units int64 }

func (u *unitMeter) Add(n int64) { u.units += n }

// runClient is the paper's client process (§IV-A pseudocode):
//
//	1 while true
//	2   receive position from median node
//	3   score = nestedRollout(position, level)
//	4   if LastMinute: send self node to dispatcher
//	5   send score to median node
//
// The client performs the real computation: a nested rollout at level ℓ−2.
// Work units metered by the search are charged to the transport, which is
// what makes a slow (oversubscribed or low-GHz) node take proportionally
// longer on the virtual cluster. The availability notice (line 4) is sent
// before the score, exactly as in the paper, so the dispatcher learns of
// the free client as early as possible; under the pull scheduler every
// client announces (the dispatcher is availability-driven for both
// policies), under Config.Static only Last-Minute clients do.
//
// The rollout's random stream is reseeded per job from the job's logical
// coordinates (job.Key), so the score of a given candidate is identical no
// matter which client executes it or in which order — the property the
// static-vs-pull equivalence tests pin down.
// tc is the run's shared transposition cache, nil when Config.Cache is
// off (the cache-off path must stay bit-identical to before the cache
// existed).
func runClient(c mpi.Comm, lay cluster.Layout, cfg *Config, index int, coll *collector, tc *cache.Cache) {
	meter := &unitMeter{}
	r := rng.New(cfg.Seed) // reseeded per job via SeedStream
	// The per-run evaluator is called directly, as on pool clients.
	// Execute validated the name; an unknown one (impossible there) would
	// fall back to uniform playouts.
	var eval game.Evaluator
	if cfg.Evaluator != "" {
		eval, _ = game.NewEvaluator(cfg.Evaluator)
	}
	searcher := core.NewSearcher(r, core.Options{Meter: meter, Memorize: cfg.Memorize, Evaluator: eval})
	if tc != nil {
		searcher.SetCache(tc, cache.Scope(cfg.Evaluator, cfg.Memorize, 0), cfg.CacheVerify)
	}
	level := cfg.Level - 2
	announce := !cfg.Static || cfg.Algo == LastMinute
	var idle time.Duration
	defer func() { coll.setClientIdle(index, idle) }()

	for {
		t0 := c.Now()
		msg := c.Recv(mpi.AnyRank, mpi.AnyTag)
		idle += c.Now() - t0
		switch msg.Tag {
		case tagShutdown:
			return
		case tagJob:
			jb := msg.Payload.(job)
			median := msg.From

			start := c.Now()
			meter.units = 0
			r.SeedStream(cfg.Seed, jb.Key)
			score := searcher.Score(jb.State, level, tc != nil)
			c.Work(meter.units * cfg.jobScale()) // charge the rollout's CPU to this node
			busy := c.Now() - start
			coll.add(index, meter.units, busy)

			if announce {
				cfg.trace("c'", c.Rank(), lay.Dispatcher, c.Now())
				c.Send(lay.Dispatcher, tagFree, nil)
			}
			cfg.trace("c", c.Rank(), median, c.Now())
			c.Send(median, tagResult, jobScore{Seq: jb.Seq, Score: score})
		}
	}
}
