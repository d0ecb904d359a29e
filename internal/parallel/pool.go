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
//   - One dispatcher rank assigns clients to median requests, reusing the
//     demand-driven dispatcher (availability-tracked clients, pending
//     jobs served longest-expected-first under LastMinute).
//   - M median ranks and C client ranks are built once and reused across
//     every job: their StatePools, searchers and move buffers stay warm,
//     and per-job parameters (level, seed, memorization) travel with the
//     candidates instead of living in a per-run Config.
//
// The pool is transport-blind: NewPool hosts every rank as a goroutine of
// this process (mpi.WallCluster), NewNetPool hosts only the control ranks
// here and serves the medians and clients from external pnmcs-worker
// processes over TCP (mpi.NetCluster) — the deployment shape of the
// paper's MPI cluster, with the coordinator in the server role. The rank
// bodies are identical either way; everything a worker needs (job
// parameters, positions, scores, rollout accounting) travels in the
// protocol messages, never through shared memory.
//
// Determinism: client rollouts are keyed by their logical job coordinates
// (rng.Fold over root step, root candidate, median step, median
// candidate) and the job's own seed, exactly as in RunWall — so a job's
// score and sequence are bit-identical to the same Config run solo
// through RunWall, no matter how many other jobs share the pool or where
// its rollouts execute. The service-level equivalence tests pin this.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/game"
	"repro/internal/mpi"
	"repro/internal/rng"
)

// Service protocol tags, kept clear of the per-run protocol's flat tags.
// Messages addressed to a specific slot, median or client rank use these;
// messages multiplexed onto the shared scheduler use the per-slot tag
// bands of Pool.space.
const (
	tagJobStart     mpi.Tag = 64 + iota // External -> slot: start this job
	tagJobCancel                        // External -> slot: cancel epoch
	tagGrant                            // scheduler -> median: candidate to play
	tagStepScore                        // median -> slot: finished game score
	tagAbandonAck                       // scheduler -> slot: dropped-candidate count
	tagRanksLost                        // External -> scheduler/dispatcher/median: worker ranks died
	tagRegrant                          // scheduler -> slot: lost candidates re-queued
	tagRanksDead                        // External -> scheduler/dispatcher/median: ranks abandoned, no replacement coming
	tagRanksRevived                     // External -> dispatcher/median: abandoned ranks rejoined after all
	tagJobFail                          // External -> slot: pool degraded below its floor, fail the job
	tagSpecCancel                       // scheduler -> median: speculative branch cancelled
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
// every client job, replacing the per-run Config the workers can no
// longer close over.
type jobParams struct {
	Slot      int
	Epoch     uint64
	Level     int
	Seed      uint64
	Memorize  bool
	JobScale  int64
	Root      mpi.Rank // the slot rank that owns the job
	Eval      string   // registered evaluator name; "" = uniform playouts
	Cache     bool     // consult the pool's shared transposition cache
	Speculate int      // effective async speculation width of the job (0 = off)
}

// svcCandidate is the slot→scheduler→median payload: one candidate
// position of a root step, tagged with its logical coordinates and the
// owning job. Par is the async scheduler's branch discriminator — the
// parent move index the candidate's step assumes was played at the
// previous step (see candidate.Par); the median echoes it in svcScore so
// the slot can shed scores of speculative branches that lost the argmax.
type svcCandidate struct {
	Step  int
	Cand  int
	Par   int // parent move index at the previous root step (−1 = none)
	P     jobParams
	State game.State
}

// svcChunk is the median→client payload: up to chunkLimit rollouts of one
// median step in one message. Item i is Base after Moves[i], rolled out
// under rng key Keys[i] and answered as candidate Seqs[i]. On an
// in-process transport Base and the slices are the median's own step
// state, read by the client while the median blocks on the results.
type svcChunk struct {
	Par   int // branch discriminator of the owning game (see resultKey)
	P     jobParams
	Base  game.State
	Moves []game.Move
	Keys  []uint64
	Seqs  []int
}

// svcScore is the median→slot result: the final score of the Cand-th
// candidate of the root step Step, plus the rollout accounting of the
// candidate's whole level-(ℓ−1) game. Rollout counts ride the protocol
// instead of a shared-memory collector so they survive process
// boundaries: on the net transport the median that played the game lives
// in another OS process. Step exists for worker churn: when a lost
// median's score turns out to have survived the crash, the re-granted
// duplicate finishes during some later root step, and without the step
// echo its score — Epoch valid, Cand in range — would be accepted as that
// later step's answer. Undisturbed runs never produce a cross-step score;
// churn does. Par echoes the granted candidate's branch discriminator:
// the async slot accepts a score only when both Step and Par match its
// current gather, which is what sheds a losing speculative branch's
// in-flight games without any per-score bookkeeping.
type svcScore struct {
	Epoch    uint64
	Step     int
	Cand     int
	Par      int // branch discriminator echo (svcCandidate.Par)
	Score    float64
	Rollouts int64 // client rollouts executed for this candidate's game
	Units    int64 // metered work units across those rollouts
	Chunks   int64 // median→client messages that carried those rollouts
}

// svcChunkResult is the client→median answer to one svcChunk: per item,
// the score of the Seqs[i]-th candidate of the median's current step and
// the rollout's metered work. Keys[i] is the item's identity echo
// (resultKey: the rng key folded with the owning job's slot, epoch and
// branch discriminator) — the median uses it to reject stale items: under
// worker churn a lost chunk may be both re-issued and (via the rejoin
// pending-queue flush) computed by the dead client's replacement, and the
// duplicate — or an item surviving from an earlier step, from another job
// at the same logical coordinates, or from a cancelled speculative
// branch's aborted game — must never be mistaken for a live one.
type svcChunkResult struct {
	Keys   []uint64
	Seqs   []int
	Scores []float64
	Units  []int64
}

// chunkLimit is the number of rollouts a median packs into one svcChunk:
// a step's moves spread evenly over the pool's clients. Read from the
// layout so that no grain has to be tuned — one client takes a whole step
// in one message, and with at least as many clients as moves every
// rollout travels alone, which is the paper's protocol.
func chunkLimit(moves, clients int) int {
	return (moves + clients - 1) / clients
}

// resultKey folds a rollout's rng key with its job's identity. The rng
// key alone is unique only within one job's coordinate grid (step,
// candidate, median step, median candidate); folding slot and epoch in
// distinguishes same-coordinate rollouts of different jobs, and folding
// the branch discriminator par distinguishes a speculative branch's game
// from the real game at the same coordinates — a cancelled loser branch
// (same Step and Cand, different Par) aborts mid-play with rollouts still
// on clients, and a stale result must not be mistaken for the real game's
// rollout under the identical rng key (it was computed from a different
// position, so accepting it corrupts the score and the work accounting).
// Par is NOT part of the rng key itself: the winning branch must draw the
// exact rollout streams the synchronous root would, so only the identity
// echo discriminates. Computed independently by the issuing median and
// the executing client from fields that travel in svcChunk.
func resultKey(p jobParams, par int, rngKey uint64) uint64 {
	return rng.Fold(uint64(p.Slot), p.Epoch, rngKey, uint64(par+1))
}

// svcRanksLost is the worker-loss notice the pool injects at the
// scheduler, the dispatcher and every median when a worker process dies:
// the contiguous rank range [Lo, Hi) the worker hosted. Each recipient
// repairs its own bookkeeping — the scheduler re-queues the medians'
// outstanding candidate grants, the dispatcher re-frees dead or
// dead-assigned clients, and each median re-issues rollout jobs it had in
// flight on dead clients.
type svcRanksLost struct {
	Lo, Hi mpi.Rank
}

// svcRegrant is the scheduler→slot notice that Count of the job's granted
// candidates were lost with a worker and re-queued; the slot accumulates
// it into Result.Regranted. Informational only: the re-granted candidates
// re-enter the normal grant/score flow and change no score.
type svcRegrant struct {
	Epoch uint64
	Count int
}

// svcAbandonAck is the scheduler→slot answer to an abandon: how many of
// the abandoning step's candidates were still queued (and are now
// dropped). Every queued candidate of the epoch is dropped — speculative
// next-step ones included — but only the gathered step's count rides the
// ack, because only those candidates figure in the slot's drain
// arithmetic. The epoch lets a slot discard an ack that outlived its job.
type svcAbandonAck struct {
	Epoch   uint64
	Dropped int
}

// svcAbandon is the slot→scheduler abandon order (offAbandon): drop every
// queued candidate of the epoch, ack the count belonging to root step
// Step. Slots and the scheduler are both coordinator ranks, so this never
// crosses the wire and needs no codec kind.
type svcAbandon struct {
	Epoch uint64
	Step  int
}

// svcSpecCancel is the speculation cancel order of the async scheduler.
// The slot sends it on its offSpecCancel band when an argmax resolves
// (Step = the speculated root step, Keep = the winning move index) or
// when the job ends with speculation still in flight (Step = −1: every
// speculative grant of the epoch is moot). The scheduler purges covered
// queued candidates, remembers the latest cancel per slot — applied again
// when a dead worker's grants are re-queued — and re-broadcasts the order
// to the medians (tagSpecCancel), which skip covered buffered grants and
// abort covered games mid-play without reporting a score. Fire-and-forget,
// like tagJobFail: no ack, because a cancel that loses a race is harmless
// — covered scores are shed by the slot's epoch/step/Par guards anyway.
type svcSpecCancel struct {
	Slot  int
	Epoch uint64
	Step  int // speculated root step the cancel covers; −1 = all steps
	Keep  int // branch (parent move) to keep: the argmax winner; −1 = none
}

// specCovered reports whether cand is mooted by the cancel cn. The
// zero-value cancel covers nothing (job epochs start at 1).
func specCovered(cn svcSpecCancel, cand svcCandidate) bool {
	if cn.Slot != cand.P.Slot || cn.Epoch != cand.P.Epoch {
		return false
	}
	return cn.Step == -1 || (cand.Step == cn.Step && cand.Par != cn.Keep)
}

// Progress is a streaming snapshot of a running job, delivered to the
// RunJob progress callback after every completed root step.
type Progress struct {
	// Steps is the number of root moves played so far.
	Steps int
	// BestScore is the lower-level evaluation backing the move just
	// played — the best score the search has seen for the current line.
	BestScore float64
	// Sequence is a copy of the root's game so far.
	Sequence []game.Move
	// Elapsed is wall time since the job started.
	Elapsed time.Duration
}

// PoolConfig sizes a Pool.
type PoolConfig struct {
	// Slots is the number of jobs the pool can run concurrently (job-slot
	// root ranks). Default 4.
	Slots int
	// Medians is the number of shared median workers. Default 4. With one
	// median and one client, NewPool's slots play their jobs themselves.
	Medians int
	// Clients is the number of shared rollout workers. Default 8. See Medians.
	Clients int
	// Algo orders the dispatcher's pending-job queue (LastMinute serves
	// the longest-expected job first). A pool-level policy: jobs share one
	// dispatcher, and scheduling never changes scores (see package doc).
	Algo Algorithm
	// CacheMB bounds the process's shared transposition cache in
	// megabytes. One cache serves every slot, job and client the process
	// hosts (a remote pnmcs-worker builds its own from the same figure,
	// carried by the handshake blob); jobs opt in per job via
	// Config.Cache. Default 64.
	CacheMB int
	// CacheVerify recomputes every cache hit and panics on mismatch
	// (core.Options.CacheVerify) on every searcher of the process,
	// including remote workers. Test/debug mode.
	CacheVerify bool
	// Speculate is the pool-level default for Config.Speculate: a job
	// submitted with Speculate == 0 inherits it (a negative job value
	// forces speculation off). It rides the worker handshake blob (v4)
	// like every other pool-shape knob, so remote workers can see the
	// pool's default even though the effective per-job width always
	// travels with the job's candidates (jobParams.Speculate). Default 0:
	// jobs run the lockstep gather unless they opt in.
	Speculate int
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

// check rejects a PoolConfig NewPool and NewNetPool cannot serve. A
// Speculate past MaxSpeculate would make every remote worker refuse the
// handshake blob, so no worker could ever join.
func (c *PoolConfig) check() error {
	if c.Algo != RoundRobin && c.Algo != LastMinute {
		return fmt.Errorf("parallel: unknown algorithm %v", c.Algo)
	}
	if c.Speculate > MaxSpeculate {
		return fmt.Errorf("parallel: pool speculate %d exceeds limit %d", c.Speculate, MaxSpeculate)
	}
	return nil
}

// PoolMetrics aggregates the pool's lifetime counters: the idle and
// queue-depth instrumentation PR 2 added to Result, accumulated across
// every job the pool has served.
type PoolMetrics struct {
	// Jobs is the number of client rollouts executed.
	Jobs int64
	// WorkUnits is the total metered CPU work across client rollouts.
	WorkUnits int64
	// Chunks is the number of median→client messages that carried those
	// rollouts; Jobs / Chunks is the mean chunk size. Zero on a NewPool of
	// one median and one client: its slots play their jobs without messages.
	Chunks int64
	// MedianIdle / ClientIdle map each worker to its cumulative
	// Recv-blocked time — waiting for a grant, an assignment or a result.
	// Only workers co-resident with the coordinator report here; a worker
	// hosted by a remote pnmcs-worker process keeps its idle counters in
	// its own process (its entry stays zero).
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
// coordinator process; only the idle times of co-resident workers are
// written directly (a remote worker's idle time stays in its own
// process — see PoolMetrics).
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
	// the exported series stays monotonic across replacements.
	remoteMedianBase, remoteMedianCur []time.Duration
	remoteClientBase, remoteClientCur []time.Duration
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
// per hosted rank since that worker connected. w maps ranks onto
// median/client indexes.
func (co *poolCollector) setRemoteIdle(w *poolWorld, lo mpi.Rank, idleSeconds []float64) {
	co.mu.Lock()
	for i, sec := range idleSeconds {
		r := lo + mpi.Rank(i)
		d := time.Duration(sec * float64(time.Second))
		switch {
		case isMedianRank(w, r):
			co.remoteMedianCur[r-w.firstWorker()] = d
		case isClientRank(w, r):
			co.remoteClientCur[int(r-w.firstWorker())-w.cfg.Medians] = d
		}
	}
	co.mu.Unlock()
}

// foldRemoteIdle retires a lost worker's connection: its last-reported
// idle folds into the base so the replacement's from-zero reports don't
// rewind the exported counters.
func (co *poolCollector) foldRemoteIdle(w *poolWorld, lo, hi mpi.Rank) {
	co.mu.Lock()
	for r := lo; r < hi; r++ {
		switch {
		case isMedianRank(w, r):
			i := r - w.firstWorker()
			co.remoteMedianBase[i] += co.remoteMedianCur[i]
			co.remoteMedianCur[i] = 0
		case isClientRank(w, r):
			i := int(r-w.firstWorker()) - w.cfg.Medians
			co.remoteClientBase[i] += co.remoteClientCur[i]
			co.remoteClientCur[i] = 0
		}
	}
	co.mu.Unlock()
}

// poolWorld is the pool's rank topology, a pure function of PoolConfig:
// slots first, then scheduler, dispatcher, medians, clients. The
// coordinator derives it when building the pool and a pnmcs-worker
// process derives the identical layout from the PoolConfig in its
// handshake blob, so both sides agree on every rank and tag without
// exchanging anything beyond the config.
type poolWorld struct {
	cfg     PoolConfig
	sched   mpi.Rank
	disp    mpi.Rank
	medians []mpi.Rank
	clients []mpi.Rank
	space   mpi.TagSpace

	// Degraded layout: which worker ranks have been abandoned (their
	// process lost for good, no replacement). Every participant that
	// routes work — the coordinator's dispatcher/scheduler and each
	// median, including medians in remote worker processes with their own
	// poolWorld instance — learns of abandonment through
	// tagRanksDead/tagRanksRevived notices and updates the dead set it can
	// see. degEpoch counts dead-set transitions; it stays zero for the
	// whole life of a healthy pool (and always for wall pools), so the
	// healthy hot path is one atomic load, no lock, no allocation.
	degEpoch atomic.Uint64
	degMu    sync.Mutex
	degDead  []bool // indexed rank - firstWorker(); nil until first abandonment
}

// markDead records [lo, hi) as abandoned.
func (w *poolWorld) markDead(lo, hi mpi.Rank) {
	w.degMu.Lock()
	if w.degDead == nil {
		w.degDead = make([]bool, w.cfg.Medians+w.cfg.Clients)
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

// isDead reports whether rank r belongs to an abandoned worker. The
// epoch==0 fast path keeps the per-rollout check free on pools that have
// never degraded.
func (w *poolWorld) isDead(r mpi.Rank) bool {
	if w.degEpoch.Load() == 0 {
		return false
	}
	w.degMu.Lock()
	defer w.degMu.Unlock()
	i := int(r - w.firstWorker())
	return i >= 0 && i < len(w.degDead) && w.degDead[i]
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
// config.
func newPoolWorld(cfg PoolConfig) *poolWorld {
	w := &poolWorld{
		cfg:   cfg,
		sched: mpi.Rank(cfg.Slots),
		disp:  mpi.Rank(cfg.Slots + 1),
		space: mpi.TagSpace{Base: tagBandBase, Width: numOffsets, Bands: cfg.Slots},
	}
	next := mpi.Rank(cfg.Slots + 2)
	for i := 0; i < cfg.Medians; i++ {
		w.medians = append(w.medians, next)
		next++
	}
	for i := 0; i < cfg.Clients; i++ {
		w.clients = append(w.clients, next)
		next++
	}
	return w
}

// size returns the world size: slots + scheduler + dispatcher + workers.
func (w *poolWorld) size() int {
	return w.cfg.Slots + 2 + w.cfg.Medians + w.cfg.Clients
}

// firstWorker is the first median rank — every rank at or beyond it may
// be hosted by a remote worker process.
func (w *poolWorld) firstWorker() mpi.Rank { return mpi.Rank(w.cfg.Slots + 2) }

// poolCluster is what a Pool needs from its transport: the Cluster
// life-cycle plus out-of-world injection. WallCluster and NetCluster both
// satisfy it, which is the whole point — the pool wiring and the search
// protocol are transport-blind.
type poolCluster interface {
	mpi.Cluster
	Inject(to mpi.Rank, tag mpi.Tag, payload any)
}

// Pool is a persistent worker pool serving many search jobs. Construct
// with NewPool (in-process goroutine workers) or NewNetPool (workers in
// separate OS processes over TCP), run jobs with RunJob (one per slot at
// a time), and tear down with Shutdown. All methods are safe for
// concurrent use.
type Pool struct {
	cfg     PoolConfig
	world   *poolWorld
	cluster poolCluster
	net     *mpi.NetCluster // nil for in-process pools
	netCfg  NetPoolConfig   // normalized; zero value for in-process pools
	coll    *poolCollector
	cache   *cache.Cache // coordinator-resident clients' transposition cache
	inline  bool         // in process, 1 median × 1 client: slots play their jobs (playInline)

	runDone chan struct{}

	mu        sync.Mutex
	idle      *sync.Cond // signalled when a slot goes idle
	closed    bool
	slotBusy  []bool
	slotEpoch []uint64
	slotStop  []atomic.Uint64 // epoch of the slot's last stop order, polled by inline jobs

	// deg tracks permanent worker loss (distributed pools only): which
	// worker indexes have been abandoned and whether the surviving world
	// has fallen below the pool's floor. Guarded by its own mutex — the
	// transport hooks that write it must not contend with the job-slot
	// path; never held while p.mu is held by the same goroutine in the
	// deg→p.mu direction (failBusySlots acquires p.mu only after deg.mu is
	// released).
	deg struct {
		mu        sync.Mutex
		abandoned map[int]svcRanksLost // worker index -> its rank range
		failed    bool
	}
}

// jobStart is the payload injected at a slot rank to begin a job. done
// and progress are ordinary Go callbacks: slot ranks always live in the
// coordinator process (only medians and clients are ever remote), so the
// boundary between the rank world and the caller is a function call, not
// a wire format — jobStart never crosses the wire and has no codec kind.
type jobStart struct {
	epoch    uint64
	cfg      Config
	progress func(Progress)
	done     func(Result, error)
}

// ErrPoolClosed is returned by RunJob once Shutdown has begun.
var ErrPoolClosed = fmt.Errorf("parallel: pool is shut down")

// ErrDegraded is returned by RunJob — immediately on submission, or as a
// fail-fast mid-job — when permanent worker loss has shrunk the pool
// below its floor: any abandonment with NetPoolConfig.Degrade off, or
// fewer than MinWorkers surviving workers (or no live median / no live
// client) with it on. The failure is deterministic and prompt: queued
// frames for the dead worker are dropped, nothing stalls, and a re-run of
// the same Config under the same seed (see service-level retry) produces
// the same answer once capacity returns.
var ErrDegraded = fmt.Errorf("parallel: pool degraded below its worker floor")

// NewPool builds the worker cluster — slots, scheduler, dispatcher,
// medians, clients — as goroutines of this process and starts it running.
// The pool idles until jobs are submitted with RunJob.
func NewPool(cfg PoolConfig) (*Pool, error) {
	cfg = cfg.withDefaults()
	if err := cfg.check(); err != nil {
		return nil, err
	}
	world := newPoolWorld(cfg)
	return newPoolOn(world, mpi.NewWallCluster(world.size()), nil, newPoolCollector(cfg))
}

// NetPoolConfig describes the distributed deployment of a NewNetPool.
type NetPoolConfig struct {
	// Listen is the TCP address worker processes dial; "127.0.0.1:0"
	// binds an ephemeral port (read it back with Pool.WorkerAddr).
	Listen string
	// Workers is the number of pnmcs-worker processes expected. The
	// pool's medians and clients are split across them as contiguous rank
	// ranges, as evenly as possible.
	Workers int
	// Token, when non-empty, is the shared secret every worker must
	// present at handshake (constant-time compared by the coordinator).
	Token string
	// Heartbeat / HeartbeatTimeout tune worker liveness probing: the
	// coordinator pings each worker every Heartbeat and declares a worker
	// lost after HeartbeatTimeout of silence. Zero selects the transport
	// defaults (2s / 8s); negative Heartbeat disables probing (losses are
	// then detected by read errors only). See mpi.NetConfig.
	Heartbeat        time.Duration
	HeartbeatTimeout time.Duration

	// ReplaceGrace bounds how long a lost worker's slot waits for a
	// replacement before the pool gives up on it: after the grace window
	// the worker is abandoned, its queued frames are dropped, and its rank
	// range is re-mapped onto the survivors (Degrade on) or running jobs
	// fail fast (Degrade off). Zero keeps the PR 5 behavior — wait
	// forever, queue forever.
	ReplaceGrace time.Duration
	// PendingLimit caps the per-worker pending-frame queue that buffers
	// traffic while a lost slot awaits a replacement; overflowing it
	// abandons the worker immediately (memory stays bounded even inside
	// the grace window). Zero selects 8192 frames when ReplaceGrace is
	// set and unbounded otherwise; negative forces unbounded.
	PendingLimit int
	// Degrade, when true, lets the pool finish jobs on a shrunken world
	// after an abandonment: the dead ranks are re-mapped onto surviving
	// workers and results stay bit-identical to solo runs (rollout rng is
	// keyed by logical job coordinates, never by rank). When false, any
	// abandonment fails running jobs deterministically with ErrDegraded.
	Degrade bool
	// MinWorkers is the degraded floor: with Degrade on, jobs keep
	// running while at least MinWorkers workers (and at least one median
	// and one client rank) survive; below it the pool fails fast. Zero
	// means 1.
	MinWorkers int
}

// NewNetPool builds a distributed pool: the control ranks — job slots,
// scheduler, dispatcher — run in this process (the coordinator), and the
// median and client ranks are hosted by Workers external processes
// running cmd/pnmcs-worker (or parallel.ServeWorker). The pool accepts
// jobs immediately; until workers dial in, candidates simply wait in the
// scheduler's queues. Scores are bit-identical to the same jobs on an
// in-process pool or solo RunWall: rollout streams are keyed by logical
// job coordinates, never by where a rollout runs.
//
// The pool survives worker churn (DESIGN.md §8): when a worker's stream
// dies — crash, reset, or missed heartbeat — the candidates granted to
// its medians are re-queued at the head of their jobs' queues and
// re-granted to surviving medians, medians re-issue rollout jobs they had
// in flight on the dead worker's clients, and the dispatcher returns the
// stranded clients to its free list. A replacement worker dialing in
// reclaims the lost slot's rank range mid-job and starts serving
// immediately, receiving everything queued for the slot while it was
// down. Results stay bit-identical through all of it: re-executed work
// replays the same coordinate-keyed rollout streams and duplicates are
// shed by key/epoch guards at every consumer.
func NewNetPool(cfg PoolConfig, net NetPoolConfig) (*Pool, error) {
	cfg = cfg.withDefaults()
	if err := cfg.check(); err != nil {
		return nil, err
	}
	if net.Workers < 1 {
		return nil, fmt.Errorf("parallel: net pool needs at least one worker process")
	}
	world := newPoolWorld(cfg)
	remote := cfg.Medians + cfg.Clients
	if net.Workers > remote {
		return nil, fmt.Errorf("parallel: %d workers for %d median+client ranks", net.Workers, remote)
	}
	ranks := make([]int, net.Workers)
	for i := range ranks {
		ranks[i] = remote / net.Workers
		if i < remote%net.Workers {
			ranks[i]++
		}
	}
	coll := newPoolCollector(cfg)

	if net.MinWorkers <= 0 {
		net.MinWorkers = 1
	}
	pendingLimit := net.PendingLimit
	if pendingLimit == 0 && net.ReplaceGrace > 0 {
		pendingLimit = 8192
	}
	if pendingLimit < 0 {
		pendingLimit = 0
	}

	// The transport hooks fire from the coordinator's connection
	// goroutines, potentially before ListenNet (and NewNetPool itself)
	// has returned; they spin on the pointers for that (microsecond)
	// window so no loss, join or abandonment event is ever dropped.
	var ncp atomic.Pointer[mpi.NetCluster]
	cluster := func() *mpi.NetCluster {
		for {
			if nc := ncp.Load(); nc != nil {
				return nc
			}
			runtime.Gosched()
		}
	}
	var pp atomic.Pointer[Pool]
	pool := func() *Pool {
		for {
			if p := pp.Load(); p != nil {
				return p
			}
			runtime.Gosched()
		}
	}
	nc, err := mpi.ListenNet(mpi.NetConfig{
		Listen:           net.Listen,
		LocalRanks:       cfg.Slots + 2,
		WorkerRanks:      ranks,
		Blob:             appendWorkerBlob(nil, cfg),
		Token:            net.Token,
		Heartbeat:        net.Heartbeat,
		HeartbeatTimeout: net.HeartbeatTimeout,
		ReplaceGrace:     net.ReplaceGrace,
		PendingLimit:     pendingLimit,
		OnWorkerLost: func(_ int, lo, hi mpi.Rank) {
			coll.addWorkerLost()
			coll.foldRemoteIdle(world, lo, hi)
			// Repair order does not matter — each recipient only fixes its
			// own bookkeeping — but all notices are injected before the
			// transport reopens the slot, so they are ordered ahead of
			// anything a replacement worker says.
			c := cluster()
			c.Inject(world.sched, tagRanksLost, svcRanksLost{Lo: lo, Hi: hi})
			c.Inject(world.disp, tagRanksLost, svcRanksLost{Lo: lo, Hi: hi})
			for _, m := range world.medians {
				if m >= lo && m < hi {
					continue // the dead worker's own medians
				}
				c.Inject(m, tagRanksLost, svcRanksLost{Lo: lo, Hi: hi})
			}
		},
		OnWorkerJoined: func(worker int, lo, hi mpi.Rank, rejoin bool) {
			if rejoin {
				coll.addWorkerRejoined()
			}
			pool().handleJoined(worker, lo, hi)
		},
		OnWorkerAbandoned: func(worker int, lo, hi mpi.Rank) {
			pool().handleAbandoned(worker, lo, hi)
		},
		OnWorkerStats: func(_ int, lo mpi.Rank, idleSeconds []float64) {
			coll.setRemoteIdle(world, lo, idleSeconds)
		},
	})
	if err != nil {
		return nil, err
	}
	ncp.Store(nc)
	p, err := newPoolOn(world, nc, nc, coll)
	if err != nil {
		return nil, err
	}
	p.netCfg = net
	pp.Store(p)
	return p, nil
}

// handleAbandoned runs when the transport gives up on a lost worker for
// good (grace expired or pending queue overflowed, see OnWorkerAbandoned):
// the pool re-maps the dead rank range onto the survivors, or fails
// running jobs fast when the shrunken world is below its floor.
func (p *Pool) handleAbandoned(worker int, lo, hi mpi.Rank) {
	p.coll.addWorkerAbandoned()
	p.world.markDead(lo, hi)
	// Dead notices first — scheduler, dispatcher, surviving medians — so
	// that by the time a slot's fail-fast abandon reaches the scheduler,
	// the scheduler has already repaired its grant bookkeeping. Inject is
	// a synchronous mailbox push, so this ordering is a guarantee, not a
	// hope.
	p.cluster.Inject(p.world.sched, tagRanksDead, svcRanksLost{Lo: lo, Hi: hi})
	p.cluster.Inject(p.world.disp, tagRanksDead, svcRanksLost{Lo: lo, Hi: hi})
	for _, m := range p.world.medians {
		if m >= lo && m < hi {
			continue // the abandoned worker's own medians
		}
		p.cluster.Inject(m, tagRanksDead, svcRanksLost{Lo: lo, Hi: hi})
	}
	p.deg.mu.Lock()
	if p.deg.abandoned == nil {
		p.deg.abandoned = make(map[int]svcRanksLost)
	}
	p.deg.abandoned[worker] = svcRanksLost{Lo: lo, Hi: hi}
	p.recomputeFailedLocked()
	failed := p.deg.failed
	p.deg.mu.Unlock()
	if failed {
		p.failBusySlots()
	}
}

// handleJoined reverses an abandonment when a replacement turns up after
// all: the revived ranks rejoin the routable world and a failed pool may
// recover its floor.
func (p *Pool) handleJoined(worker int, lo, hi mpi.Rank) {
	p.deg.mu.Lock()
	_, wasAbandoned := p.deg.abandoned[worker]
	if wasAbandoned {
		delete(p.deg.abandoned, worker)
		p.recomputeFailedLocked()
	}
	p.deg.mu.Unlock()
	if !wasAbandoned {
		return
	}
	p.world.revive(lo, hi)
	p.cluster.Inject(p.world.disp, tagRanksRevived, svcRanksLost{Lo: lo, Hi: hi})
	for _, m := range p.world.medians {
		if m >= lo && m < hi {
			continue // the revived worker's own medians announce themselves
		}
		p.cluster.Inject(m, tagRanksRevived, svcRanksLost{Lo: lo, Hi: hi})
	}
}

// recomputeFailedLocked re-derives the fail-fast condition from the
// abandoned set. Caller holds p.deg.mu.
func (p *Pool) recomputeFailedLocked() {
	surviving := p.netCfg.Workers - len(p.deg.abandoned)
	liveMedians, liveClients := p.cfg.Medians, p.cfg.Clients
	for _, rg := range p.deg.abandoned {
		for r := rg.Lo; r < rg.Hi; r++ {
			switch {
			case isMedianRank(p.world, r):
				liveMedians--
			case isClientRank(p.world, r):
				liveClients--
			}
		}
	}
	floor := p.netCfg.MinWorkers
	if !p.netCfg.Degrade {
		floor = p.netCfg.Workers // any abandonment at all fails the pool
	}
	p.deg.failed = surviving < floor || liveMedians == 0 || liveClients == 0
}

// failBusySlots injects a fail-fast order at every slot with a running
// job. The epoch ride-along makes a late fail order for an already-
// finished job harmless.
func (p *Pool) failBusySlots() {
	p.mu.Lock()
	for slot := 0; slot < p.cfg.Slots; slot++ {
		if p.slotBusy[slot] {
			p.cluster.Inject(mpi.Rank(slot), tagJobFail, p.slotEpoch[slot])
		}
	}
	p.mu.Unlock()
}

// failedNow reports the pool's current fail-fast state.
func (p *Pool) failedNow() bool {
	p.deg.mu.Lock()
	defer p.deg.mu.Unlock()
	return p.deg.failed
}

// newPoolCollector sizes the pool's lifetime-instrumentation store.
func newPoolCollector(cfg PoolConfig) *poolCollector {
	return &poolCollector{
		medianIdle:       make([]time.Duration, cfg.Medians),
		clientIdle:       make([]time.Duration, cfg.Clients),
		remoteMedianBase: make([]time.Duration, cfg.Medians),
		remoteMedianCur:  make([]time.Duration, cfg.Medians),
		remoteClientBase: make([]time.Duration, cfg.Clients),
		remoteClientCur:  make([]time.Duration, cfg.Clients),
	}
}

// newPoolOn wires the pool's ranks onto a transport and starts it. The
// same wiring runs for every transport: a cluster hosting only a subset
// of the ranks (the net coordinator) ignores Start calls for the ranks
// other processes host.
func newPoolOn(world *poolWorld, cl poolCluster, nc *mpi.NetCluster, coll *poolCollector) (*Pool, error) {
	cfg := world.cfg
	p := &Pool{
		cfg:       cfg,
		world:     world,
		cluster:   cl,
		net:       nc,
		coll:      coll,
		runDone:   make(chan struct{}),
		slotBusy:  make([]bool, cfg.Slots),
		slotEpoch: make([]uint64, cfg.Slots),
		slotStop:  make([]atomic.Uint64, cfg.Slots),
		inline:    nc == nil && cfg.Medians == 1 && cfg.Clients == 1,
		// One cache shared by every client rank this process hosts; a net
		// coordinator hosts none, so its cache sits empty and each
		// pnmcs-worker builds its own from the handshake blob.
		cache: cache.New(int64(cfg.CacheMB) << 20),
	}
	p.idle = sync.NewCond(&p.mu)

	for slot := 0; slot < cfg.Slots; slot++ {
		slot := slot
		p.cluster.Start(mpi.Rank(slot), func(c mpi.Comm) { p.runSlot(c, slot) })
	}
	p.cluster.Start(world.sched, func(c mpi.Comm) { p.runScheduler(c) })
	// The per-run dispatcher is reused verbatim: it only needs the worker
	// rank lists (medians for request validation, clients for the free
	// list) and the policy — fault-aware, so worker-loss notices can return
	// stranded clients to the free list.
	dispLay := cluster.Layout{
		Medians: append([]mpi.Rank(nil), world.medians...),
		Clients: append([]mpi.Rank(nil), world.clients...),
	}
	pol := dispatchPolicy{longestFirst: cfg.Algo == LastMinute, faultAware: true}
	p.cluster.Start(world.disp, func(c mpi.Comm) { runDispatcher(c, dispLay, pol, nil) })
	startPoolWorkers(p.cluster, world, p.cache, cfg.CacheVerify, p.coll.addMedianIdle, p.coll.addClientIdle)

	go func() {
		p.cluster.Run()
		close(p.runDone)
	}()
	return p, nil
}

// startPoolWorkers starts the median and client bodies on cl, reporting
// each worker's Recv-blocked intervals to the given sinks. Used by the
// pool itself (collector-backed sinks) and by ServeWorker in a remote
// worker process (worker-local sinks) — the bodies are identical on both
// sides of the wire, and a cluster hosting only some of the ranks ignores
// the Start calls for the others. tc is the hosted client ranks' shared
// transposition cache (consulted only on jobs whose params ask for it)
// and cacheVerify turns every hit into a recompute-and-compare assertion.
func startPoolWorkers(cl mpi.Cluster, world *poolWorld, tc *cache.Cache, cacheVerify bool, medianIdle, clientIdle func(i int, d time.Duration)) {
	for i := 0; i < world.cfg.Medians; i++ {
		i := i
		cl.Start(world.medians[i], func(c mpi.Comm) {
			runPoolMedian(c, world, func(d time.Duration) { medianIdle(i, d) })
		})
	}
	for i := 0; i < world.cfg.Clients; i++ {
		i := i
		cl.Start(world.clients[i], func(c mpi.Comm) {
			runPoolClient(c, world, tc, cacheVerify, func(d time.Duration) { clientIdle(i, d) })
		})
	}
}

// isMedianRank reports whether r is one of the world's median ranks
// (medians occupy a contiguous range after the control ranks).
func isMedianRank(w *poolWorld, r mpi.Rank) bool {
	return r >= w.firstWorker() && r < w.firstWorker()+mpi.Rank(w.cfg.Medians)
}

// isClientRank reports whether r is one of the world's client ranks
// (clients occupy the contiguous range after the medians).
func isClientRank(w *poolWorld, r mpi.Rank) bool {
	first := w.firstWorker() + mpi.Rank(w.cfg.Medians)
	return r >= first && r < first+mpi.Rank(w.cfg.Clients)
}

// WorkerAddr returns the address worker processes dial, or "" for an
// in-process pool.
func (p *Pool) WorkerAddr() string {
	if p.net == nil {
		return ""
	}
	return p.net.Addr()
}

// Slots returns the number of concurrent job slots.
func (p *Pool) Slots() int { return p.cfg.Slots }

// Metrics snapshots the pool's lifetime instrumentation. Each per-rank
// idle entry merges the co-resident worker's direct accounting with the
// telemetry a remote worker pushes on its pong/goodbye frames (a rank is
// only ever one of the two).
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
		m.MedianIdle[i] += co.remoteMedianBase[i] + co.remoteMedianCur[i]
	}
	for i := range m.ClientIdle {
		m.ClientIdle[i] += co.remoteClientBase[i] + co.remoteClientCur[i]
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

// JobHandle tracks one started job; Wait blocks for its result.
type JobHandle struct {
	p     *Pool
	slot  int
	timer *time.Timer
	ch    chan jobOutcome
}

type jobOutcome struct {
	res Result
	err error
}

// StartJob launches cfg on the given slot without blocking: once it
// returns, the job is cancellable through CancelJob. The caller owns slot
// scheduling — a slot runs one job at a time, and starting a second job
// on a busy slot is an error. progress, when non-nil, is invoked from the
// job's root goroutine after every completed step. The caller must Wait
// on the returned handle.
func (p *Pool) StartJob(slot int, cfg Config, progress func(Progress)) (*JobHandle, error) {
	if slot < 0 || slot >= p.cfg.Slots {
		return nil, fmt.Errorf("parallel: slot %d outside pool of %d", slot, p.cfg.Slots)
	}
	if err := cfg.check(); err != nil {
		return nil, err
	}

	h := &JobHandle{p: p, slot: slot, ch: make(chan jobOutcome, 1)}

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	if p.slotBusy[slot] {
		p.mu.Unlock()
		return nil, fmt.Errorf("parallel: slot %d already running a job", slot)
	}
	if p.failedNow() {
		// Refuse outright rather than inject a job the degradation hook
		// would immediately fail: deterministic, and no protocol traffic.
		// (deg.mu nests inside p.mu here; nothing acquires them in the
		// other order while holding either.)
		p.mu.Unlock()
		return nil, ErrDegraded
	}
	p.slotBusy[slot] = true
	p.slotEpoch[slot]++
	epoch := p.slotEpoch[slot]
	js := jobStart{
		epoch:    epoch,
		cfg:      cfg,
		progress: progress,
		done:     func(r Result, err error) { h.ch <- jobOutcome{r, err} },
	}
	// Injected while holding the mutex: any cancellation for this epoch
	// (CancelJob, the deadline timer, Shutdown's drain) observes the busy
	// flag under the same mutex and therefore lands after the start
	// message in the slot's FIFO mailbox.
	p.cluster.Inject(mpi.Rank(slot), tagJobStart, js)
	p.mu.Unlock()

	// StopAfter liveness: a queued job whose candidates no median has
	// picked up receives no messages, so the deadline is enforced by an
	// injected cancellation, not only by in-loop clock checks.
	if cfg.StopAfter > 0 {
		h.timer = time.AfterFunc(cfg.StopAfter, func() {
			p.cluster.Inject(mpi.Rank(slot), tagJobCancel, epoch)
		})
	}
	return h, nil
}

// Wait blocks until the job completes (or is cancelled — Result.Stopped
// true) and frees its slot. Must be called exactly once.
func (h *JobHandle) Wait() (Result, error) {
	out := <-h.ch
	if h.timer != nil {
		h.timer.Stop()
	}
	h.p.mu.Lock()
	h.p.slotBusy[h.slot] = false
	h.p.idle.Broadcast()
	h.p.mu.Unlock()
	return out.res, out.err
}

// RunJob is StartJob followed by Wait: it blocks until the job completes,
// is cancelled, or the pool shuts down.
func (p *Pool) RunJob(slot int, cfg Config, progress func(Progress)) (Result, error) {
	h, err := p.StartJob(slot, cfg, progress)
	if err != nil {
		return Result{}, err
	}
	return h.Wait()
}

// CancelJob cancels the job currently running on slot, if any. The job
// drains its in-flight work and RunJob returns with Result.Stopped true.
// Cancelling an idle slot is a no-op; a cancellation racing a completing
// job is discarded by the epoch check.
func (p *Pool) CancelJob(slot int) {
	if slot < 0 || slot >= p.cfg.Slots {
		return
	}
	p.mu.Lock()
	if p.slotBusy[slot] {
		p.slotStop[slot].Store(p.slotEpoch[slot])
		p.cluster.Inject(mpi.Rank(slot), tagJobCancel, p.slotEpoch[slot])
	}
	p.mu.Unlock()
}

// Shutdown drains and tears down the pool: new RunJob calls are refused,
// still-running jobs are cancelled and waited for (they complete with
// Result.Stopped true), and only then is the teardown broadcast to the
// idle ranks — the pool is never dismantled with work in flight, exactly
// like the per-run protocol's end-of-run shutdown. Blocks until the
// cluster exits; safe to call more than once.
func (p *Pool) Shutdown() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.runDone
		return
	}
	p.closed = true
	for slot := 0; slot < p.cfg.Slots; slot++ {
		if p.slotBusy[slot] {
			p.slotStop[slot].Store(p.slotEpoch[slot])
			p.cluster.Inject(mpi.Rank(slot), tagJobCancel, p.slotEpoch[slot])
		}
	}
	for {
		busy := false
		for _, b := range p.slotBusy {
			busy = busy || b
		}
		if !busy {
			break
		}
		p.idle.Wait()
	}
	p.mu.Unlock()
	// From here on a worker connection ending is the drain, not a crash:
	// without this, a fast worker's goodbye can race the local bodies'
	// unwind and be misclassified as a loss (spurious churn counters, a
	// slot reopened for a replacement that would never hear the shutdown).
	if p.net != nil {
		p.net.Drain()
	}
	for r := 0; r < p.cluster.Size(); r++ {
		p.cluster.Inject(mpi.Rank(r), tagShutdown, nil)
	}
	<-p.runDone
}

// runSlot is a job-slot root rank: it idles until a job is injected, plays
// that job's top-level game against the shared pool, reports the result
// through the job's done callback, and goes back to idling. Its StatePool
// persists across jobs, so consecutive jobs of the same domain ship
// recycled candidate states.
func (p *Pool) runSlot(c mpi.Comm, slot int) {
	var pool core.StatePool
	var moves []game.Move
	env := refEnv{pool: &pool, cache: p.cache, verify: p.cfg.CacheVerify}
	for {
		msg := c.Recv(mpi.AnyRank, mpi.AnyTag)
		switch msg.Tag {
		case tagShutdown:
			// Teardown only ever arrives from outside the rank world
			// (Pool.Shutdown's Inject); a forged wire frame must not
			// dismantle a rank.
			if msg.From != mpi.External {
				break
			}
			return
		case tagJobStart:
			// jobStart has no codec kind, so only a local Inject can carry
			// one; a wire frame that lands on this tag is dropped.
			js, ok := msg.Payload.(jobStart)
			if !ok {
				break
			}
			if p.inline {
				js.done(p.playInline(c, slot, js, env), nil)
			} else {
				js.done(p.playJob(c, slot, js, &pool, &moves))
			}
		default:
			// A stale cancellation for a job that already completed (the
			// deadline timer racing the job's last score): drop it.
		}
	}
}

// playInline plays a width-one pool's job on its slot with the reference
// loop: no messages and no speculation, as nothing would run beside it. It
// stops within one median step of a stop order or its deadline, and reports
// step latency, rollouts and progress after every root step.
func (p *Pool) playInline(c mpi.Comm, slot int, js jobStart, env refEnv) Result {
	start, last := c.Now(), c.Now()
	var jobs, units int64 // rollouts already in the pool's counters
	env.stopped = func() bool { return p.slotStop[slot].Load() == js.epoch || deadlineDue(c, start, js.cfg.StopAfter) }
	env.stepped = func(res *Result, score float64) {
		now := c.Now()
		res.StepLatency = append(res.StepLatency, now-last)
		p.coll.addStepLatency(now - last)
		last = now
		p.coll.addRollouts(res.Jobs-jobs, res.WorkUnits-units, 0)
		jobs, units = res.Jobs, res.WorkUnits
		if js.progress != nil && !js.cfg.FirstMoveOnly {
			js.progress(Progress{Steps: res.Steps, BestScore: score,
				Sequence: append([]game.Move(nil), res.Sequence...), Elapsed: now - start})
		}
	}
	res := reference(js.cfg, env)
	p.coll.addRollouts(res.Jobs-jobs, res.WorkUnits-units, 0)
	res.Elapsed = c.Now() - start
	return res
}

// playJob plays one job's top-level game. It drives the same stepGather as
// the per-run root, with the work queue moved to the shared scheduler
// rank: candidates are offered on the slot's tag band, scores come back
// tagged with the job epoch, and cancellation (explicit, deadline or
// shutdown) abandons the queued candidates at the scheduler and drains the
// granted ones before returning, so the pool is never torn down with work
// in flight.
//
// With an effective Speculate width k > 0 the gather pipelines step
// boundaries; at resolution the winner's branch is adopted wholesale and
// the losers are cancelled — queued candidates purged at the scheduler,
// in-flight games aborted at the medians via svcSpecCancel, stray scores
// shed by the gather's step/Par guards.
func (p *Pool) playJob(c mpi.Comm, slot int, js jobStart, pool *core.StatePool, movebuf *[]game.Move) (Result, error) {
	cfg := js.cfg
	res := Result{}
	start := c.Now()
	// Effective speculation width: the job's own ask, defaulted from the
	// pool. FirstMoveOnly jobs never speculate — speculation pipelines
	// step boundaries, and a one-step job has none.
	k := cfg.Speculate
	if k == 0 {
		k = p.cfg.Speculate
	}
	if k < 0 || cfg.FirstMoveOnly {
		k = 0
	}
	params := jobParams{
		Slot:      slot,
		Epoch:     js.epoch,
		Level:     cfg.Level,
		Seed:      cfg.Seed,
		Memorize:  cfg.Memorize,
		JobScale:  cfg.jobScale(),
		Root:      c.Rank(),
		Eval:      cfg.Evaluator,
		Cache:     cfg.Cache,
		Speculate: k,
	}
	deadline := deadlineFunc(c, start, cfg.StopAfter)
	toSched := func(off mpi.Tag, payload any) {
		c.Send(p.world.sched, p.world.space.For(slot, off), payload)
	}
	specCancel := func(step, keep int) {
		toSched(offSpecCancel, svcSpecCancel{Slot: slot, Epoch: js.epoch, Step: step, Keep: keep})
	}

	g := &stepGather{c: c, pool: pool, st: cfg.Root.Clone(), k: k, par: -1, moves: *movebuf,
		offer: func(step, cand, par int, child game.State) {
			toSched(offOffer, svcCandidate{Step: step, Cand: cand, Par: par, P: params, State: child})
		},
		count: func(a rolloutAcct) {
			res.Jobs += a.rollouts
			res.WorkUnits += a.units
			p.coll.addRollouts(a.rollouts, a.units, a.chunks)
		},
	}
	defer func() { *movebuf = g.moves }()
	if k > 0 {
		defer func() { p.coll.addSpec(res.Speculated, res.SpecWasted) }()
	}
	cancelled := false
	var failErr error

	for !cancelled && g.next() {
		stepStart := c.Now()
		if deadline() {
			res.Stopped = true
			break
		}
		g.open()

		// Gather scores; a cancellation mid-step abandons what is still
		// queued at the scheduler and keeps draining what was granted.
		abandon := func() {
			if !cancelled {
				cancelled = true
				res.Stopped = true
				toSched(offAbandon, svcAbandon{Epoch: js.epoch, Step: g.step})
			}
		}
		// Payload type checks throughout the gather loop: frames arriving
		// over the wire carry remote-controlled payloads, and a
		// wrong-typed one must be dropped, not allowed to panic the
		// coordinator.
		for !g.done() && failErr == nil {
			msg := c.Recv(mpi.AnyRank, mpi.AnyTag)
			switch msg.Tag {
			case tagStepScore:
				// Scores come from medians only; cancellations only from
				// outside the rank world (Inject); abandon acks only from
				// the scheduler. Anything else is a forged wire frame, and
				// a score of another epoch a stray from a previous job.
				if sc, ok := msg.Payload.(svcScore); ok && isMedianRank(p.world, msg.From) && sc.Epoch == js.epoch {
					g.record(sc.Step, sc.Par, sc.Cand, sc.Score, rolloutAcct{sc.Rollouts, sc.Units, sc.Chunks})
				}
			case tagJobCancel:
				if epoch, ok := msg.Payload.(uint64); ok && msg.From == mpi.External && epoch == js.epoch {
					abandon()
				}
			case tagJobFail:
				// The pool degraded below its floor mid-job: fail fast. The
				// abandon is fire-and-forget — no ack wait, no drain — so
				// the failure is prompt even with zero live workers; the
				// scheduler's ack and any straggling scores are shed by the
				// next job's epoch/step guards, and this step's shipped
				// states are left to the garbage collector.
				if epoch, ok := msg.Payload.(uint64); ok && msg.From == mpi.External && epoch == js.epoch {
					failErr = ErrDegraded
					toSched(offAbandon, svcAbandon{Epoch: js.epoch, Step: g.step})
				}
			case tagAbandonAck:
				if ack, ok := msg.Payload.(svcAbandonAck); ok && msg.From == p.world.sched && ack.Epoch == js.epoch {
					g.want -= ack.Dropped
				}
			case tagRegrant:
				// The scheduler re-queued candidates of this job that were
				// lost with a dead worker. Purely informational: the
				// re-granted candidates come back through tagStepScore like
				// any others, so the gather arithmetic is untouched.
				if rg, ok := msg.Payload.(svcRegrant); ok && msg.From == p.world.sched && rg.Epoch == js.epoch {
					res.Regranted += int64(rg.Count)
				}
			}
			if !cancelled && deadline() {
				abandon()
			}
			if !cancelled && failErr == nil {
				res.Speculated += g.speculate()
			}
		}
		if failErr != nil {
			if res.Speculated > 0 {
				specCancel(-1, -1)
			}
			res.Degraded = true
			res.Elapsed = c.Now() - start
			return res, failErr
		}
		if cancelled {
			break
		}

		best, score, wasted := g.resolve()
		if wasted > 0 {
			// Cancel the losers' queued and in-flight work.
			res.SpecWasted += wasted
			specCancel(g.step, g.par)
		}
		res.Steps++
		stepD := c.Now() - stepStart
		res.StepLatency = append(res.StepLatency, stepD)
		p.coll.addStepLatency(stepD)
		res.Sequence = append(res.Sequence, best)
		if res.Steps == 1 {
			res.FirstMove = best
			if cfg.FirstMoveOnly {
				res.Score = score
				res.Elapsed = c.Now() - start
				res.Degraded = p.world.anyDead()
				return res, nil
			}
		}
		if js.progress != nil {
			js.progress(Progress{
				Steps:     res.Steps,
				BestScore: score,
				Sequence:  append([]game.Move(nil), res.Sequence...),
				Elapsed:   c.Now() - start,
			})
		}
	}

	// Whatever speculation is still pending is moot: charge it and tell the
	// scheduler and medians to drop and abort it. The slot never waits for
	// speculative scores, so nothing here blocks; strays are shed by the
	// next job's epoch guard.
	if wasted := g.pending(); wasted > 0 {
		res.SpecWasted += wasted
		specCancel(-1, -1)
	}

	res.Score = g.st.Score()
	res.Elapsed = c.Now() - start
	res.Degraded = p.world.anyDead()
	return res, nil
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
			// and abort covered games mid-play. Sent to all medians: a lost
			// worker's copy queues for its replacement, an abandoned one's
			// is dropped by the transport. No ack — see svcSpecCancel.
			for _, m := range p.world.medians {
				c.Send(m, tagSpecCancel, cn)
			}
		}
	}
}

// medianComm is the event-driven heart of runPoolMedian: every Recv is a
// wildcard, dispatched by tag, so a worker-loss notice can never be
// starved behind a selective wait — the flaw that would wedge a median
// waiting on a result from a client that no longer exists. Messages that
// belong to a later phase (a prefetched grant mid-game) are buffered;
// stale ones (an assign answering a dead predecessor's request, a result
// from a superseded step) are absorbed without corrupting state.
type medianComm struct {
	c    mpi.Comm
	w    *poolWorld
	idle func(time.Duration)

	grants []svcCandidate // prefetched/stale grants awaiting play
	// clients holds dispatcher assigns received but not yet spent on a
	// chunk, in arrival order. Normally at most one (one request in flight
	// at a time); a stale assign flushed to a replacement median (whose
	// dead predecessor requested it) adds a surplus, which is spent on
	// the next outgoing chunks — or handed back when the median goes idle
	// — so the reserved client is never stranded.
	clients []mpi.Rank
	// reqs counts our own unanswered client requests.
	reqs int
	shut bool // shutdown broadcast seen; unwind without new work
	// cancels holds the latest speculation cancel per slot (nil until the
	// first async job cancels a branch — lockstep pools never pay for the
	// map). Consulted before playing a buffered grant and after every recv
	// during a game, so a losing branch's grant is skipped or its game
	// aborted instead of played to completion for a score nobody wants.
	cancels map[int]svcSpecCancel
}

// covered reports whether cand is mooted by its slot's latest cancel.
func (mc *medianComm) covered(cand svcCandidate) bool {
	if mc.cancels == nil {
		return false
	}
	return specCovered(mc.cancels[cand.P.Slot], cand)
}

// recv is the single blocking wait: it meters idle time and handles the
// messages every phase treats identically.
func (mc *medianComm) recv() mpi.Msg {
	t0 := mc.c.Now()
	msg := mc.c.Recv(mpi.AnyRank, mpi.AnyTag)
	mc.idle(mc.c.Now() - t0)
	switch msg.Tag {
	case tagShutdown:
		if msg.From == mpi.External {
			mc.shut = true
		}
	case tagGrant:
		if cand, ok := msg.Payload.(svcCandidate); ok && msg.From == mc.w.sched {
			mc.grants = append(mc.grants, cand)
		}
	case tagAssign:
		if client, ok := msg.Payload.(mpi.Rank); ok && msg.From == mc.w.disp {
			mc.clients = append(mc.clients, client)
			if mc.reqs > 0 {
				mc.reqs--
			}
		}
	case tagRanksDead:
		// Abandonment notice: record the dead range in this process's own
		// poolWorld (a remote worker's world is a separate instance from
		// the coordinator's, so the knowledge must arrive by message, not
		// by shared memory). The spend path consults it before handing a
		// rollout to a client.
		if lost, ok := msg.Payload.(svcRanksLost); ok && msg.From == mpi.External {
			mc.w.markDead(lost.Lo, lost.Hi)
		}
	case tagRanksRevived:
		if lost, ok := msg.Payload.(svcRanksLost); ok && msg.From == mpi.External {
			mc.w.revive(lost.Lo, lost.Hi)
		}
	case tagSpecCancel:
		// Only the scheduler cancels speculation; latest per slot wins (a
		// new cancel supersedes the old one's step).
		if cn, ok := msg.Payload.(svcSpecCancel); ok && msg.From == mc.w.sched {
			if mc.cancels == nil {
				mc.cancels = make(map[int]svcSpecCancel)
			}
			mc.cancels[cn.Slot] = cn
		}
	}
	return msg
}

// runPoolMedian is the persistent form of the per-run median process:
// pull a candidate from the shared scheduler, play its full level-(ℓ−1)
// game with one client rollout per candidate move, report the score to
// the owning slot, repeat. One work request is kept in flight while a
// game is being played (the PR 2 prefetch window at its default of 1), so
// the next grant travels during computation. The median's move buffers
// persist across jobs and domains.
//
// Rollouts travel in chunks (svcChunk): every client the dispatcher
// assigns takes up to chunkLimit of the step's unsent moves together with
// the step position, and plays the moves itself — the median no longer
// clones a child per move, and a step costs one request/assign/chunk/
// free/result exchange per client instead of one per rollout.
//
// The body is written against mpi.Comm and the poolWorld layout only, so
// the identical function runs as a coordinator goroutine (wall pool) or
// inside a pnmcs-worker process (net pool). idle receives each
// Recv-blocked interval; a remote worker passes its own sink.
//
// Fault tolerance: each in-flight rollout remembers which client it went
// to; a worker-loss notice (tagRanksLost) re-enqueues the rollouts lost
// with dead clients, and they are re-requested and re-sent with the same
// coordinate-derived key — so the replayed score is bit-identical and a
// late duplicate (the original chunk flushed to the dead client's
// replacement) is shed item by item by the key/seq guard. The rollout's
// rng key also disambiguates steps: only an item echoing the exact key
// issued for a seq in the current step is accepted, so churn can never
// smuggle a stale step's score into a later one.
func runPoolMedian(c mpi.Comm, w *poolWorld, idle func(time.Duration)) {
	var moves []game.Move
	var scores []float64
	var scored []bool    // per-candidate received flag, guards duplicate items
	var keys []uint64    // per-candidate rollout rng key
	var owner []mpi.Rank // per-candidate client the rollout was sent to (-1 = none)
	// sendq[head:] are the candidate seqs awaiting a client. Sent chunks
	// alias sendq, cmoves and ckeys, which clients of this process read
	// until their results are in: within a step the three only grow, and an
	// aborted game drops them instead of rewinding.
	var sendq []int
	var cmoves []game.Move
	var ckeys []uint64
	mc := &medianComm{c: c, w: w, idle: idle}

	c.Send(w.sched, tagWorkReq, nil)
	for {
		// Take the next grant: buffered from a previous phase, or awaited.
		var cand svcCandidate
		for {
			if mc.shut {
				return
			}
			if len(mc.grants) > 0 {
				cand = mc.grants[0]
				mc.grants = mc.grants[:copy(mc.grants, mc.grants[1:])]
				break
			}
			// Idle with clients in hand — the answer to a request an aborted
			// game left behind: a client held here is reserved at the
			// dispatcher while other medians may be waiting for one. An
			// empty job makes it announce itself free again.
			for _, client := range mc.clients {
				c.Send(client, tagJob, nil)
			}
			mc.clients = mc.clients[:0]
			mc.recv()
		}
		// Prefetch: ask for the next candidate before playing this one.
		// Sent at play start, never at frame arrival — the scheduler's
		// outstanding-grant retirement depends on that ordering.
		c.Send(w.sched, tagWorkReq, nil)
		if mc.covered(cand) {
			// A cancelled speculative grant: skip it without playing or
			// scoring. The work request above still retires the
			// scheduler's grant bookkeeping, exactly as if it were played.
			continue
		}

		st := cand.State
		rollouts, units, chunks := int64(0), int64(0), int64(0)
		aborted := false
	game:
		for t := 0; ; t++ {
			moves = st.LegalMoves(moves[:0])
			if len(moves) == 0 {
				break
			}
			limit := chunkLimit(len(moves), w.cfg.Clients)
			scores, scored, keys, owner = scores[:0], scored[:0], keys[:0], owner[:0]
			sendq, cmoves, ckeys = sendq[:0], cmoves[:0], ckeys[:0]
			head := 0
			for j := range moves {
				scores = append(scores, 0)
				scored = append(scored, false)
				keys = append(keys, rng.Fold(uint64(cand.Step), uint64(cand.Cand), uint64(t), uint64(j)))
				owner = append(owner, -1)
				sendq = append(sendq, j)
			}

			for got := 0; got < len(moves); {
				// Spend assigned clients on queued rollouts, then keep one
				// client request in flight while anything remains unsent.
				for len(mc.clients) > 0 && head < len(sendq) {
					client := mc.clients[0]
					mc.clients = mc.clients[:copy(mc.clients, mc.clients[1:])]
					if mc.w.isDead(client) {
						// An assign that was in flight when its client's
						// worker was abandoned: a chunk sent there would
						// vanish. Discard the assign; the request counter
						// is already settled, so the re-request below
						// fetches a live replacement.
						continue
					}
					seqs := sendq[head:min(head+limit, len(sendq))]
					head += len(seqs)
					off := len(cmoves)
					for _, j := range seqs {
						owner[j] = client
						cmoves = append(cmoves, moves[j])
						ckeys = append(ckeys, keys[j])
					}
					c.Send(client, tagJob, svcChunk{Par: cand.Par, P: cand.P, Base: st,
						Moves: cmoves[off:], Keys: ckeys[off:], Seqs: seqs})
					chunks++
				}
				if head < len(sendq) && mc.reqs == 0 {
					c.Send(w.disp, tagRequest, st.MovesPlayed()+1)
					mc.reqs++
				}

				msg := mc.recv()
				if mc.shut {
					return
				}
				if mc.covered(cand) {
					// The branch this game belongs to just lost its argmax
					// (or its job ended): abort without scoring. In-flight
					// chunks on clients resolve harmlessly — their results
					// are shed by the next game's key guard — and the step
					// buffers they alias are left to the garbage collector
					// (a client may still be reading them).
					aborted = true
					sendq, cmoves, ckeys = nil, nil, nil
					break game
				}
				switch msg.Tag {
				case tagResult:
					res, ok := msg.Payload.(svcChunkResult)
					if !ok || !isClientRank(w, msg.From) || len(res.Keys) != len(res.Seqs) ||
						len(res.Scores) != len(res.Seqs) || len(res.Units) != len(res.Seqs) {
						continue // wrong-typed or forged wire frame
					}
					for i, seq := range res.Seqs {
						if seq < 0 || seq >= len(scores) || scored[seq] ||
							res.Keys[i] != resultKey(cand.P, cand.Par, keys[seq]) {
							continue // forged, stale or duplicated item
						}
						scored[seq] = true
						scores[seq] = res.Scores[i]
						owner[seq] = -1
						rollouts++
						units += res.Units[i]
						got++
					}
				case tagRanksLost, tagRanksDead:
					lost, ok := msg.Payload.(svcRanksLost)
					if !ok || msg.From != mpi.External {
						continue // forged wire frame: only the pool declares losses
					}
					// Re-enqueue every unscored rollout that was sent to a
					// now-dead (or now-abandoned) client; the loop head
					// re-requests and re-sends them under their original
					// keys, so the replayed scores stay bit-identical.
					for j, cl := range owner {
						if cl >= lost.Lo && cl < lost.Hi && !scored[j] {
							owner[j] = -1
							sendq = append(sendq, j)
						}
					}
				}
			}
			st.Play(moves[argmax(scores)])
			c.Work(1)
		}
		if aborted {
			continue
		}
		c.Send(cand.P.Root, tagStepScore, svcScore{
			Epoch: cand.P.Epoch, Step: cand.Step, Cand: cand.Cand, Par: cand.Par,
			Score: st.Score(), Rollouts: rollouts, Units: units, Chunks: chunks,
		})
	}
}

// runPoolClient is the persistent rollout worker. Chunks of any domain,
// level and memorization mix arrive interleaved; each item's random
// stream is reseeded from (job seed, logical coordinates), so a given
// candidate's score is identical no matter which client executes it, in
// which chunk or order, or what ran on this client before — the property
// the equivalence tests pin against solo RunWall runs on both the wall
// and net transports. Searchers (one per memorization mode, sharing
// nothing), their scratch StatePools and the pool the chunk positions are
// copied into persist across jobs. Like runPoolMedian, the body is
// transport-blind and runs unchanged in the coordinator or in a
// pnmcs-worker process. tc is the process-shared transposition cache;
// jobs opt in per job (P.Cache), and because a cached job's sub-searches
// draw from position-derived rng streams the cache is shared across jobs
// and clients without coupling their results to each other's hit
// patterns.
func runPoolClient(c mpi.Comm, w *poolWorld, tc *cache.Cache, cacheVerify bool, idle func(time.Duration)) {
	meter := &unitMeter{}
	var pool core.StatePool
	searchers := map[bool]*core.Searcher{}
	searcherFor := func(memorize bool) *core.Searcher {
		s, ok := searchers[memorize]
		if !ok {
			s = core.NewSearcher(rng.New(0), core.Options{Meter: meter, Memorize: memorize})
			searchers[memorize] = s
		}
		return s
	}

	for {
		t0 := c.Now()
		msg := c.Recv(mpi.AnyRank, mpi.AnyTag)
		idle(c.Now() - t0)
		switch msg.Tag {
		case tagShutdown:
			if msg.From != mpi.External {
				continue // forged wire frame; see runSlot
			}
			return
		case tagJob:
			ck, ok := msg.Payload.(svcChunk)
			if !ok || !isMedianRank(w, msg.From) || ck.Base == nil || ck.P.Level < 2 ||
				len(ck.Keys) != len(ck.Moves) || len(ck.Seqs) != len(ck.Moves) {
				// An idle median handing this client back (nil payload), or a
				// wrong-typed or degenerate wire frame. Announce availability
				// either way: the dispatcher must not lose this client from
				// its free list over a frame the client did not run.
				c.Send(w.disp, tagFree, nil)
				continue
			}

			s := searcherFor(ck.P.Memorize)
			// Per-job evaluator wiring: jobs of differing evaluator
			// configurations interleave on one persistent searcher, so the
			// evaluator is swapped per chunk like the rng stream is reseeded
			// per item. A name this process has not registered (a
			// version-skewed worker) resolves to nil: uniform playouts.
			var eval game.Evaluator
			if ck.P.Eval != "" {
				eval, _ = game.NewEvaluator(ck.P.Eval)
			}
			s.SetEvaluator(eval)
			if ck.P.Cache {
				s.SetCache(tc, cache.Scope(ck.P.Eval, ck.P.Memorize, 0), cacheVerify)
			}
			// The answer is allocated per chunk, never reused: on an
			// in-process transport the median reads it after this client
			// has moved on. Seqs is the median's own slice, echoed.
			res := svcChunkResult{
				Keys: make([]uint64, len(ck.Moves)), Seqs: ck.Seqs,
				Scores: make([]float64, len(ck.Moves)), Units: make([]int64, len(ck.Moves)),
			}
			total := int64(0)
			for i, mv := range ck.Moves {
				meter.units = 0
				st := pool.Get(ck.Base)
				st.Play(mv)
				s.Reseed(ck.P.Seed, ck.Keys[i])
				res.Scores[i] = s.Score(st, ck.P.Level-2, ck.P.Cache)
				pool.Put(st)
				res.Keys[i] = resultKey(ck.P, ck.Par, ck.Keys[i])
				res.Units[i] = meter.units
				total += meter.units
			}
			s.SetCache(nil, 0, false)
			c.Work(total * ck.P.JobScale)

			c.Send(w.disp, tagFree, nil)
			c.Send(msg.From, tagResult, res)
		}
	}
}
