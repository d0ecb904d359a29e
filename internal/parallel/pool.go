package parallel

// Shared worker-pool engine: the long-lived, multi-job form of the paper's
// cluster.
//
// Execute builds a goroutine cluster per run and tears it down with the
// result — the right shape for reproducing the paper's tables, and the
// wrong one for a service: nothing can run two searches at once, and the
// warm state PR 1 and PR 2 built up (StatePool free lists, searcher
// scratch buffers, rng streams) dies with every run. Pool keeps one
// mpi.WallCluster alive for its whole lifetime and multiplexes any number
// of jobs onto it:
//
//   - S job-slot ranks each play the top-level game of at most one job at
//     a time (job-scoped roots). A slot is driven from outside the rank
//     world through mpi.Inject: job starts, cancellations and the
//     shutdown broadcast arrive as External messages.
//   - One scheduler rank owns the per-job candidate queues — the pull
//     protocol of PR 2 lifted to many simultaneous roots. Roots offer
//     candidates on their slot's tag band (mpi.TagSpace), idle medians
//     pull with work requests, and grants are served round-robin across
//     jobs so one wide job cannot starve the others.
//   - Each process that hosts medians runs one rollout executor
//     (executor): a median posts each step of its game — position, moves,
//     rollout keys — and claims the step's rollouts from one atomic
//     counter together with the process's helper goroutines, one per
//     client the process hosts. A free helper joins the posted step with
//     the fewest moves played (Last-Minute). In a process with no more
//     clients than medians a helper would buy its medians no width, so the
//     process starts none and its medians claim every rollout themselves.
//   - M median ranks and the C clients' helpers are built once and reused
//     across every job: their StatePools, searchers and move buffers stay
//     warm, and per-job parameters (level, seed, memorization) travel with
//     the candidates instead of living in a per-run Config.
//
// The pool is transport-blind: NewPool hosts every rank as a goroutine of
// this process (mpi.WallCluster), NewNetPool hosts only the control ranks
// here and serves the medians, with their helpers, from external
// pnmcs-worker processes over TCP (mpi.NetCluster) — the deployment shape
// of the paper's MPI cluster, with the coordinator in the server role. The
// rank bodies are identical either way; everything a worker needs (job
// parameters, positions, scores, rollout accounting) travels in the
// protocol messages. Only a step's rollouts are shared through memory, and
// only inside the median's own process.
//
// Determinism: rollouts are keyed by their logical job coordinates
// (rng.Fold over root step, root candidate, median step, median
// candidate) and the job's own seed, exactly as in Reference — so a job's
// score, sequence and rollout accounting are bit-identical to Reference's
// answer for the same Config, no matter how many other jobs share the
// pool or where its rollouts execute. The equivalence tests pin this.

import (
	"sync"
	"time"

	"repro/internal/mpi"
)

// Service protocol tags, kept clear of the per-run protocol's flat tags.
// Messages addressed to a specific slot or median rank use these;
// messages multiplexed onto the shared scheduler use the per-slot tag
// bands of Pool.space.
const (
	tagJobStart   mpi.Tag = 64 + iota // External -> slot: start this job
	tagJobCancel                      // External -> slot: cancel epoch
	tagGrant                          // scheduler -> median: candidate to play
	tagStepScore                      // median -> slot: finished game score
	tagAbandonAck                     // scheduler -> slot: dropped-candidate count
	tagRanksLost                      // External -> scheduler: worker ranks died
	tagRegrant                        // scheduler -> slot: lost candidates re-queued
	tagRanksDead                      // External -> scheduler: ranks abandoned, no replacement coming
	_                                 // retired (revived-ranks notice); left blank so later tags keep their values
	tagJobFail                        // External -> slot: pool degraded below its floor, fail the job
	tagSpecCancel                     // scheduler -> median: speculative branch cancelled
)

// Per-slot tag-band offsets (see mpi.TagSpace): the scheduler tells jobs
// apart by the band their messages arrive on.
const (
	offOffer      mpi.Tag = iota // slot -> scheduler: candidate offered
	offAbandon                   // slot -> scheduler: drop my queued candidates
	offSpecCancel                // slot -> scheduler: purge + broadcast a speculation cancel
	numOffsets
)

// tagBandBase is the first tag of slot 0's band.
const tagBandBase mpi.Tag = 128

// jobParams are the per-job knobs that travel with every candidate and
// every posted step, replacing the per-run Config the workers can no
// longer close over.
type jobParams struct {
	Slot     int
	Epoch    uint64
	Level    int
	Seed     uint64
	Memorize bool
	JobScale int64
	Root     mpi.Rank // the slot rank that owns the job
	Eval     string   // registered evaluator name; "" = uniform playouts
	Cache    bool     // consult the pool's shared transposition cache
}

// PoolConfig sizes a Pool.
type PoolConfig struct {
	// Slots is the number of jobs the pool can run concurrently (job-slot
	// root ranks). Default 4.
	Slots int
	// Medians is the number of shared median workers. Default 4. With one
	// median and one client, NewPool's slots play their jobs themselves.
	Medians int
	// Clients is the number of shared rollout workers. Default 8. A
	// client is a helper goroutine of its process's rollout executor, which
	// claims rollouts of the steps the process's medians post. Clients add
	// width only in a process that hosts more of them than medians:
	// elsewhere the process starts no helper and the medians play their
	// steps' rollouts themselves.
	Clients int
	// CacheMB bounds the process's shared transposition cache in
	// megabytes. One cache serves every slot, job, median and helper the
	// process hosts (a remote pnmcs-worker builds its own from the same
	// figure, carried by the handshake blob); jobs opt in per job via
	// Config.Cache. Default 64.
	CacheMB int
	// CacheVerify recomputes every cache hit and panics on mismatch
	// (core.Options.CacheVerify) on every searcher of the process,
	// including remote workers. Test/debug mode.
	CacheVerify bool
}

func (c *PoolConfig) withDefaults() PoolConfig {
	out := *c
	if out.Slots <= 0 {
		out.Slots = 4
	}
	if out.Medians <= 0 {
		out.Medians = 4
	}
	if out.Clients <= 0 {
		out.Clients = 8
	}
	if out.CacheMB <= 0 {
		out.CacheMB = 64
	}
	return out
}

// PoolMetrics aggregates the pool's lifetime counters: the idle and
// queue-depth instrumentation PR 2 added to Result, accumulated across
// every job the pool has served.
type PoolMetrics struct {
	// Jobs is the number of rollouts executed.
	Jobs int64
	// WorkUnits is the total metered CPU work across those rollouts.
	WorkUnits int64
	// Chunks is the number of median steps whose rollouts a helper joined
	// (played at least one of). Zero where no process hosts more clients
	// than medians: there no helper runs, and the medians (or, on a NewPool
	// of one median and one client, the slots) play every rollout
	// themselves.
	Chunks int64
	// MedianIdle maps each median to its cumulative Recv-blocked time,
	// waiting for a grant. ClientIdle maps each client to its helper's
	// cumulative time blocked waiting for a posted step, metered once per
	// wait; a client whose process starts no helper stays zero. Medians and
	// helpers of a remote pnmcs-worker report through its pong telemetry.
	MedianIdle []time.Duration
	ClientIdle []time.Duration
	// QueueDepthMax / QueueDepthMean profile the scheduler's ready queue
	// (candidates offered but not yet granted) across all jobs, sampled
	// at every offer/request transition.
	QueueDepthMax  int
	QueueDepthMean float64
	// WorkersLost / WorkersRejoined count worker-process churn on a
	// distributed pool: connections lost before teardown (crash, reset,
	// missed heartbeat) and replacements that reclaimed a lost slot.
	WorkersLost     int64
	WorkersRejoined int64
	// Regranted counts candidate grants that were outstanding on a lost
	// worker and re-queued for another median. Re-granted work never
	// changes a score (rollout streams are keyed by logical coordinates);
	// this meters how much compute churn cost.
	Regranted int64
	// Speculated / SpecWasted aggregate the async jobs' speculative
	// candidate accounting (Result.Speculated / Result.SpecWasted) across
	// the pool's lifetime; zero on pools that never ran a Speculate>0 job.
	Speculated int64
	SpecWasted int64
	// StepCount / StepLatencySum / StepLatencyMax aggregate per-root-step
	// latency across every job the pool has served (Result.StepLatency):
	// how many root steps completed, their summed duration, and the single
	// worst step — the production-observable form of the latency the async
	// scheduler attacks.
	StepCount      int64
	StepLatencySum time.Duration
	StepLatencyMax time.Duration
	// WorkersAbandoned counts lost workers given up on for good: their
	// grace window (NetPoolConfig.ReplaceGrace) expired or their pending
	// queue overflowed with no replacement in sight, and their rank range
	// was re-mapped onto the survivors.
	WorkersAbandoned int64
	// Degraded reports whether the pool is currently running on a shrunken
	// world (at least one worker abandoned and not yet revived). Failed
	// reports the harder condition: the surviving world is below the
	// pool's floor (MinWorkers, or any loss when Degrade is off) and jobs
	// are refused / failed fast instead of run.
	Degraded bool
	Failed   bool
	// Net carries the transport counters of a distributed pool
	// (frames/bytes sent and received, codec nanoseconds); nil when the
	// pool runs in-process on a WallCluster.
	Net *mpi.NetStats
	// Transposition-cache counters of the coordinator-resident cache
	// (internal/cache.Stats). Like the idle counters, a remote
	// pnmcs-worker's cache accumulates in its own process and does not
	// report here.
	CacheHits      int64
	CacheMisses    int64
	CacheEvictions int64
	CacheEntries   int64
	CacheBytes     int64
}

// poolCollector is the coordinator-side store of the pool's lifetime
// instrumentation. Rollout counts arrive through the protocol (svcScore)
// and are recorded by the slot ranks, which always live in the
// coordinator process; only the idle times of co-resident medians and
// helpers are written directly (a remote worker's arrive with its
// telemetry — see PoolMetrics).
type poolCollector struct {
	mu           sync.Mutex
	jobs         int64
	units        int64
	chunks       int64
	medianIdle   []time.Duration
	clientIdle   []time.Duration
	depthSamples int64
	depthSum     int64
	depthMax     int

	// Worker-churn accounting (distributed pools only).
	workersLost      int64
	workersRejoined  int64
	workersAbandoned int64
	regranted        int64

	// Async-scheduler accounting: speculative candidates issued/wasted and
	// the per-root-step latency profile (count, sum, max) across all jobs.
	speculated int64
	specWasted int64
	stepCount  int64
	stepSum    time.Duration
	stepMax    time.Duration

	// Remote workers push cumulative idle counters with every pong and
	// goodbye (piggybacked telemetry); each connection reports from zero,
	// so on a loss the connection's last report folds into the base and
	// the exported series stays monotonic across replacements. Indexed as
	// poolWorld.idleIndex: the medians, then the clients.
	remoteBase, remoteCur []time.Duration
}

func (co *poolCollector) addRollouts(jobs, units, chunks int64) {
	co.mu.Lock()
	co.jobs += jobs
	co.units += units
	co.chunks += chunks
	co.mu.Unlock()
}

func (co *poolCollector) addMedianIdle(i int, d time.Duration) {
	co.mu.Lock()
	co.medianIdle[i] += d
	co.mu.Unlock()
}

func (co *poolCollector) addClientIdle(i int, d time.Duration) {
	co.mu.Lock()
	co.clientIdle[i] += d
	co.mu.Unlock()
}

func (co *poolCollector) sampleDepth(d int) {
	co.mu.Lock()
	co.depthSamples++
	co.depthSum += int64(d)
	if d > co.depthMax {
		co.depthMax = d
	}
	co.mu.Unlock()
}

func (co *poolCollector) addWorkerLost() {
	co.mu.Lock()
	co.workersLost++
	co.mu.Unlock()
}

func (co *poolCollector) addWorkerRejoined() {
	co.mu.Lock()
	co.workersRejoined++
	co.mu.Unlock()
}

func (co *poolCollector) addWorkerAbandoned() {
	co.mu.Lock()
	co.workersAbandoned++
	co.mu.Unlock()
}

func (co *poolCollector) addRegranted(n int) {
	co.mu.Lock()
	co.regranted += int64(n)
	co.mu.Unlock()
}

func (co *poolCollector) addSpec(speculated, wasted int64) {
	co.mu.Lock()
	co.speculated += speculated
	co.specWasted += wasted
	co.mu.Unlock()
}

func (co *poolCollector) addStepLatency(d time.Duration) {
	co.mu.Lock()
	co.stepCount++
	co.stepSum += d
	if d > co.stepMax {
		co.stepMax = d
	}
	co.mu.Unlock()
}

// setRemoteIdle records one worker's telemetry snapshot: cumulative idle
// since that worker connected, of its medians and then its helpers. w maps
// the entries onto the pool's series; entries past the worker's layout are
// dropped.
func (co *poolCollector) setRemoteIdle(w *poolWorld, lo mpi.Rank, idleSeconds []float64) {
	co.mu.Lock()
	for k, sec := range idleSeconds {
		if i, ok := w.idleIndex(lo, k); ok {
			co.remoteCur[i] = time.Duration(sec * float64(time.Second))
		}
	}
	co.mu.Unlock()
}

// foldRemoteIdle retires a lost worker's connection: its last-reported
// idle folds into the base so the replacement's from-zero reports don't
// rewind the exported counters.
func (co *poolCollector) foldRemoteIdle(w *poolWorld, lo mpi.Rank) {
	co.mu.Lock()
	for k := 0; ; k++ {
		i, ok := w.idleIndex(lo, k)
		if !ok {
			break
		}
		co.remoteBase[i] += co.remoteCur[i]
		co.remoteCur[i] = 0
	}
	co.mu.Unlock()
}

// newPoolCollector sizes the pool's lifetime-instrumentation store.
func newPoolCollector(cfg PoolConfig) *poolCollector {
	return &poolCollector{
		medianIdle: make([]time.Duration, cfg.Medians),
		clientIdle: make([]time.Duration, cfg.Clients),
		remoteBase: make([]time.Duration, cfg.Medians+cfg.Clients),
		remoteCur:  make([]time.Duration, cfg.Medians+cfg.Clients),
	}
}

// Metrics snapshots the pool's lifetime instrumentation. Each idle entry
// merges the co-resident median's or helper's direct accounting with the
// telemetry a remote worker pushes on its pong/goodbye frames (an entry is
// only ever fed by one of the two).
func (p *Pool) Metrics() PoolMetrics {
	co := p.coll
	co.mu.Lock()
	m := PoolMetrics{
		Jobs:             co.jobs,
		WorkUnits:        co.units,
		Chunks:           co.chunks,
		MedianIdle:       append([]time.Duration(nil), co.medianIdle...),
		ClientIdle:       append([]time.Duration(nil), co.clientIdle...),
		QueueDepthMax:    co.depthMax,
		WorkersLost:      co.workersLost,
		WorkersRejoined:  co.workersRejoined,
		WorkersAbandoned: co.workersAbandoned,
		Regranted:        co.regranted,
		Speculated:       co.speculated,
		SpecWasted:       co.specWasted,
		StepCount:        co.stepCount,
		StepLatencySum:   co.stepSum,
		StepLatencyMax:   co.stepMax,
	}
	for i := range m.MedianIdle {
		m.MedianIdle[i] += co.remoteBase[i] + co.remoteCur[i]
	}
	for i := range m.ClientIdle {
		j := len(m.MedianIdle) + i
		m.ClientIdle[i] += co.remoteBase[j] + co.remoteCur[j]
	}
	if co.depthSamples > 0 {
		m.QueueDepthMean = float64(co.depthSum) / float64(co.depthSamples)
	}
	co.mu.Unlock()
	cs := p.cache.Stats()
	m.CacheHits = cs.Hits
	m.CacheMisses = cs.Misses
	m.CacheEvictions = cs.Evictions
	m.CacheEntries = cs.Entries
	m.CacheBytes = cs.Bytes
	if p.net != nil {
		st := p.net.Stats()
		m.Net = &st
	}
	p.deg.mu.Lock()
	m.Degraded = len(p.deg.abandoned) > 0
	m.Failed = p.deg.failed
	p.deg.mu.Unlock()
	return m
}
