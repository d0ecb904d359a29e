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
//   - Medians take clients from a free list shared in memory by the
//     medians and clients of their process (clientList): the demand-driven
//     dispatcher without its rank, pending requests served
//     longest-expected-first under LastMinute. Every process that hosts
//     worker ranks hosts both roles (newPoolWorld), so a chunk never leaves
//     its median's process. In a process with no more clients than
//     medians, a client would buy its median no width, so the medians play
//     their steps' rollouts themselves and take no client at all.
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
// Determinism: rollouts are keyed by their logical job coordinates
// (rng.Fold over root step, root candidate, median step, median
// candidate) and the job's own seed, exactly as in Reference — so a job's
// score, sequence and rollout accounting are bit-identical to Reference's
// answer for the same Config, no matter how many other jobs share the
// pool or where its rollouts execute. The equivalence tests pin this.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
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
// under rng key Keys[i] and answered as candidate First+i: a step's moves
// go out in contiguous runs. Base and the slices are the median's own step
// state, read by a client of its process while the median blocks on the
// results; a chunk never leaves its median's process and has no codec kind.
type svcChunk struct {
	Par   int // branch discriminator of the owning game (see resultKey)
	P     jobParams
	Base  game.State
	Moves []game.Move
	Keys  []uint64
	First int
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
// the score of candidate First+i of the median's current step and the
// rollout's metered work. Keys[i] is the item's identity echo (resultKey:
// the rng key folded with the owning job's slot, epoch and branch
// discriminator) — the median uses it to reject stale items: a duplicate,
// or an item surviving from an earlier step, from another job at the same
// logical coordinates, or from a cancelled speculative branch's aborted
// game, must never be mistaken for a live one.
type svcChunkResult struct {
	First  int
	Keys   []uint64
	Scores []float64
	Units  []int64
}

// chunkLimit is the number of rollouts a median packs into one svcChunk:
// a step's moves spread evenly over the clients the median can reach
// (poolWorld.reach). Read from the layout so that no grain has to be
// tuned — one client takes a whole step in one message, and with at least
// as many clients as moves every rollout travels alone, which is the
// paper's protocol.
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

// svcRanksLost is the worker-loss notice the pool injects at its scheduler
// when a worker process dies or is abandoned: the contiguous rank range
// [Lo, Hi) the worker hosted. The scheduler re-queues the medians'
// outstanding candidate grants. Nothing else needs telling: the worker's
// medians took their clients with them, and no surviving median ever sent
// the range a chunk. The scheduler is a coordinator rank and the notice an
// Inject, so it never crosses the wire and has no codec kind.
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
	// Clients is the number of shared rollout workers. Default 8. Clients
	// add width only in a process that hosts more of them than medians:
	// elsewhere the medians play their steps' rollouts themselves and the
	// clients stand idle.
	Clients int
	// Algo orders the medians waiting for a client (LastMinute serves the
	// longest-expected job first). A pool-level policy: jobs share the
	// pool's clients, and scheduling never changes scores (see package doc).
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
	// rollouts; Jobs / Chunks is the mean chunk size. Zero where no process
	// hosts more clients than medians: there the medians (or, on a NewPool
	// of one median and one client, the slots) play every rollout
	// themselves.
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
		if ro, ok := w.role(lo + mpi.Rank(i)); ok {
			_, cur := co.remoteIdle(ro)
			*cur = time.Duration(sec * float64(time.Second))
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
		if ro, ok := w.role(r); ok {
			base, cur := co.remoteIdle(ro)
			*base += *cur
			*cur = 0
		}
	}
	co.mu.Unlock()
}

// remoteIdle returns the base and current remote idle counters of a
// worker rank's role. Caller holds co.mu.
func (co *poolCollector) remoteIdle(ro rankRole) (base, cur *time.Duration) {
	if ro.median {
		return &co.remoteMedianBase[ro.index], &co.remoteMedianCur[ro.index]
	}
	return &co.remoteClientBase[ro.index], &co.remoteClientCur[ro.index]
}

// poolWorld is the pool's rank topology, a pure function of PoolConfig and
// the number of processes hosting its worker ranks: slots first, then the
// scheduler, then each worker process's contiguous range of medians and
// clients (newPoolWorld). The coordinator derives it when building the
// pool and a pnmcs-worker process derives the identical layout from the
// PoolConfig and worker count in its handshake blob, so both sides agree
// on every rank and tag without exchanging anything beyond the two.
type poolWorld struct {
	cfg     PoolConfig
	sched   mpi.Rank
	medians []mpi.Rank
	clients []mpi.Rank
	roles   []rankRole // indexed rank - firstWorker()
	ranks   []int      // rank count of each worker process's range, in rank order
	space   mpi.TagSpace
	// list is the free list the medians and clients of this process share
	// (clientList): every worker rank of an in-process pool, or a worker
	// process's own range. nil in a net pool's coordinator, which hosts no
	// median or client.
	list *clientList

	// Degraded layout: which worker ranks have been abandoned (their
	// process lost for good, no replacement). Only the coordinator's world
	// tracks it, for Result.Degraded: a median only ever hands work to the
	// clients of its own process. degEpoch counts dead-set
	// transitions; it stays zero for the whole life of a healthy pool (and
	// always for wall pools), so the healthy check is one atomic load, no
	// lock.
	degEpoch atomic.Uint64
	degMu    sync.Mutex
	degDead  []bool // indexed rank - firstWorker(); nil until first abandonment
}

// reach is the number of clients a median of this process can be given:
// its clientList's.
func (w *poolWorld) reach() int { return w.list.clients }

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

// rankRole is a worker rank's role and its index in poolWorld.medians
// (median) or poolWorld.clients (otherwise).
type rankRole struct {
	median bool
	index  int
}

// newPoolWorld lays out the world of a pool with the given (defaulted)
// config, whose worker ranks are hosted by workers processes (1 for an
// in-process pool). Worker process i hosts splitRanks(M, workers)[i]
// medians and splitRanks(C, workers)[i] clients in one contiguous range,
// so whenever workers ≤ min(M, C) every process hosts both roles and a
// median's clients live in its process. Inside a range of n ranks holding
// m medians, its rank k (0-based) is a median iff ⌊(k+1)·m/n⌋ > ⌊k·m/n⌋,
// a client otherwise: the roles interleave evenly.
func newPoolWorld(cfg PoolConfig, workers int) *poolWorld {
	w := &poolWorld{
		cfg:   cfg,
		sched: mpi.Rank(cfg.Slots),
		roles: make([]rankRole, 0, cfg.Medians+cfg.Clients),
		space: mpi.TagSpace{Base: tagBandBase, Width: numOffsets, Bands: cfg.Slots},
	}
	clients := splitRanks(cfg.Clients, workers)
	for i, m := range splitRanks(cfg.Medians, workers) {
		n := m + clients[i]
		w.ranks = append(w.ranks, n)
		for k := range n {
			r := w.firstWorker() + mpi.Rank(len(w.roles))
			if (k+1)*m/n > k*m/n {
				w.roles = append(w.roles, rankRole{median: true, index: len(w.medians)})
				w.medians = append(w.medians, r)
			} else {
				w.roles = append(w.roles, rankRole{index: len(w.clients)})
				w.clients = append(w.clients, r)
			}
		}
	}
	return w
}

// isRange reports whether [lo, hi) is one worker process's range.
func (w *poolWorld) isRange(lo, hi mpi.Rank) bool {
	r := w.firstWorker()
	for _, n := range w.ranks {
		if lo == r && hi == r+mpi.Rank(n) {
			return true
		}
		r += mpi.Rank(n)
	}
	return false
}

// role returns worker rank r's role; ok is false for control ranks and
// ranks outside the world.
func (w *poolWorld) role(r mpi.Rank) (ro rankRole, ok bool) {
	i := int(r - w.firstWorker())
	if i < 0 || i >= len(w.roles) {
		return rankRole{}, false
	}
	return w.roles[i], true
}

// size returns the world size: slots + scheduler + workers.
func (w *poolWorld) size() int {
	return w.cfg.Slots + 1 + w.cfg.Medians + w.cfg.Clients
}

// firstWorker is the first worker (median or client) rank — every rank
// at or beyond it may be hosted by a remote worker process.
func (w *poolWorld) firstWorker() mpi.Rank { return mpi.Rank(w.cfg.Slots + 1) }

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
// fewer than MinWorkers surviving workers with it on. The failure is
// deterministic and prompt: queued frames for the dead worker are
// dropped, nothing stalls, and a re-run of the same Config under the same
// seed (see service-level retry) produces the same answer once capacity
// returns.
var ErrDegraded = fmt.Errorf("parallel: pool degraded below its worker floor")

// NewPool builds the worker cluster — slots, scheduler, medians, clients
// — as goroutines of this process and starts it running. One clientList
// holds every client. The pool idles until jobs are submitted with RunJob.
func NewPool(cfg PoolConfig) (*Pool, error) {
	cfg = cfg.withDefaults()
	if err := cfg.check(); err != nil {
		return nil, err
	}
	world := newPoolWorld(cfg, 1)
	world.list = newClientList(world, world.firstWorker(), mpi.Rank(world.size()))
	return newPoolOn(world, mpi.NewWallCluster(world.size()), nil, newPoolCollector(cfg))
}

// NetPoolConfig describes the distributed deployment of a NewNetPool.
type NetPoolConfig struct {
	// Listen is the TCP address worker processes dial; "127.0.0.1:0"
	// binds an ephemeral port (read it back with Pool.WorkerAddr).
	Listen string
	// Workers is the number of pnmcs-worker processes expected, at most
	// min(Medians, Clients). Each hosts one contiguous range of worker
	// ranks holding an even share of the medians and of the clients
	// (newPoolWorld), so every worker hosts both roles and its medians
	// take clients from the worker's own free list.
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
	// running while at least MinWorkers workers survive; below it the pool
	// fails fast. Zero means 1.
	MinWorkers int
}

// NewNetPool builds a distributed pool: the control ranks — job slots
// and scheduler — run in this process (the coordinator), and the median
// and client ranks are hosted by Workers external processes running
// cmd/pnmcs-worker (or parallel.ServeWorker), each with a share of both
// roles. Workers must not exceed min(Medians, Clients): past it some
// worker would host medians with no client to take, or clients no median
// can reach. The pool accepts jobs immediately; until workers
// dial in, candidates simply wait in the scheduler's queues. Results are
// bit-identical to Reference's answer for the same Config: rollout
// streams are keyed by logical job coordinates, never by where a rollout
// runs.
//
// The pool survives worker churn (DESIGN.md §8): when a worker's stream
// dies — crash, reset, or missed heartbeat — the candidates granted to
// its medians are re-queued at the head of their jobs' queues and
// re-granted to surviving medians. The worker took its clients, and every
// chunk its medians had in flight, with it, so there is nothing more to
// repair. A replacement worker dialing in reclaims the lost slot's rank
// range mid-job and starts serving immediately, receiving everything
// queued for the slot while it was down. Results stay bit-identical through all of it: re-executed work
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
	if bound := min(cfg.Medians, cfg.Clients); net.Workers > bound {
		return nil, fmt.Errorf("parallel: %d workers for %d medians and %d clients: every worker must host both, so at most min(medians, clients) = %d",
			net.Workers, cfg.Medians, cfg.Clients, bound)
	}
	world := newPoolWorld(cfg, net.Workers)
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
		LocalRanks:       cfg.Slots + 1,
		WorkerRanks:      world.ranks,
		Blob:             appendWorkerBlob(nil, cfg, net.Workers),
		Token:            net.Token,
		Heartbeat:        net.Heartbeat,
		HeartbeatTimeout: net.HeartbeatTimeout,
		ReplaceGrace:     net.ReplaceGrace,
		PendingLimit:     pendingLimit,
		OnWorkerLost: func(_ int, lo, hi mpi.Rank) {
			coll.addWorkerLost()
			coll.foldRemoteIdle(world, lo, hi)
			// Injected before the transport reopens the slot, so the
			// scheduler's repair is ordered ahead of anything a
			// replacement worker says.
			cluster().Inject(world.sched, tagRanksLost, svcRanksLost{Lo: lo, Hi: hi})
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

// handleAbandoned runs when the transport gives up on a lost worker for
// good (grace expired or pending queue overflowed, see OnWorkerAbandoned):
// the pool re-maps the dead rank range onto the survivors, or fails
// running jobs fast when the shrunken world is below its floor.
func (p *Pool) handleAbandoned(worker int, lo, hi mpi.Rank) {
	p.coll.addWorkerAbandoned()
	p.world.markDead(lo, hi)
	// The dead notice first, so that by the time a slot's fail-fast
	// abandon reaches the scheduler, the scheduler has already repaired
	// its grant bookkeeping. Inject is a synchronous mailbox push, so this
	// ordering is a guarantee, not a hope.
	p.cluster.Inject(p.world.sched, tagRanksDead, svcRanksLost{Lo: lo, Hi: hi})
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
// all: the revived ranks rejoin the world and a failed pool may recover
// its floor. The replacement's medians and clients boot idle with their
// own free list, so no rank needs telling.
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
}

// recomputeFailedLocked re-derives the fail-fast condition from the
// abandoned set. Caller holds p.deg.mu. Every worker hosts a median and a
// client (NewNetPool), so a surviving worker is a live median with a
// client to take, and a floor of at least one surviving worker is also
// the floor a job needs to finish.
func (p *Pool) recomputeFailedLocked() {
	surviving := p.netCfg.Workers - len(p.deg.abandoned)
	floor := p.netCfg.MinWorkers
	if !p.netCfg.Degrade {
		floor = p.netCfg.Workers // any abandonment at all fails the pool
	}
	p.deg.failed = surviving < floor
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
// the Start calls for the others. tc is the hosted ranks' shared
// transposition cache (consulted only on jobs whose params ask for it)
// and cacheVerify turns every hit into a recompute-and-compare assertion.
func startPoolWorkers(cl mpi.Cluster, world *poolWorld, tc *cache.Cache, cacheVerify bool, medianIdle, clientIdle func(i int, d time.Duration)) {
	for i := 0; i < world.cfg.Medians; i++ {
		i := i
		cl.Start(world.medians[i], func(c mpi.Comm) {
			runPoolMedian(c, world, tc, cacheVerify, func(d time.Duration) { medianIdle(i, d) })
		})
	}
	for i := 0; i < world.cfg.Clients; i++ {
		i := i
		cl.Start(world.clients[i], func(c mpi.Comm) {
			runPoolClient(c, world, tc, cacheVerify, func(d time.Duration) { clientIdle(i, d) })
		})
	}
}

// isMedianRank reports whether r is one of the world's median ranks.
func isMedianRank(w *poolWorld, r mpi.Rank) bool {
	ro, ok := w.role(r)
	return ok && ro.median
}

// isClientRank reports whether r is one of the world's client ranks.
func isClientRank(w *poolWorld, r mpi.Rank) bool {
	ro, ok := w.role(r)
	return ok && !ro.median
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

	g := &stepGather{c: c, pool: pool, st: cfg.Root.Clone(), k: k, keep: p.net != nil, par: -1, moves: *movebuf,
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
// wildcard, dispatched by tag. Messages that belong to a later phase (a
// prefetched grant mid-game) are buffered; stale ones (an assign answering
// an aborted game's request, a result from a superseded step) are
// absorbed without corrupting state.
type medianComm struct {
	c    mpi.Comm
	w    *poolWorld
	idle func(time.Duration)

	grants []svcCandidate // prefetched/stale grants awaiting play
	// clients holds the clients taken or assigned but not yet spent on a
	// chunk, in arrival order. An assign answering a request an aborted
	// game left behind adds a surplus, which is spent on the next outgoing
	// chunks — or handed back when the median goes idle — so the reserved
	// client is never stranded.
	clients []mpi.Rank
	// reqs counts our own unanswered client requests: at most one, waiting
	// at the process's clientList.
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
		// From the rank of this process that freed the client — never
		// across the wire.
		if client, ok := msg.Payload.(mpi.Rank); ok && mc.w.list.hosts(msg.From) && mc.w.list.hosts(client) {
			mc.clients = append(mc.clients, client)
			if mc.reqs > 0 {
				mc.reqs--
			}
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

// ask requests a client for a position with moves played from the
// process's clientList, which hands one over at once when one is free. It
// reports whether a client is now in hand; otherwise an assign answers
// later.
func (mc *medianComm) ask(moves int) bool {
	if client, ok := mc.w.list.take(mc.c.Rank(), moves); ok {
		mc.clients = append(mc.clients, client)
		return true
	}
	mc.reqs++
	return false
}

// handBack returns the clients an idle median holds — the answer to a
// request an aborted game left behind — to the list. A client held here
// is reserved while other medians may be waiting for one, and with few
// clients the grant this median waits for can depend on it.
func (mc *medianComm) handBack() {
	for _, client := range mc.clients {
		mc.w.list.release(mc.c, client)
	}
	mc.clients = mc.clients[:0]
}

// runPoolMedian is the persistent form of the per-run median process:
// pull a candidate from the shared scheduler, play its full level-(ℓ−1)
// game with one level-(ℓ−2) rollout per candidate move, report the score
// to the owning slot, repeat. One work request is kept in flight while a
// game is being played (the PR 2 prefetch window at its default of 1), so
// the next grant travels during computation. The median's move buffers
// persist across jobs and domains.
//
// Who plays a step's rollouts is the layout's call (clientList.inline).
// In a process with no more clients than medians the median plays every
// step itself, with the client's rollout body (poolRollouts), and reads its
// mailbox only between games: a speculation cancel or a shutdown that
// arrives mid-game takes effect when the game ends, and the slot sheds the
// cancelled game's score. Otherwise rollouts travel in chunks (svcChunk):
// every client the median takes from its process's clientList takes up to
// chunkLimit of the step's unsent moves together with the step position,
// so a step costs one chunk/result exchange per client (plus an
// assignment when the median had to wait for a client).
//
// The body is written against mpi.Comm and the poolWorld layout only, so
// the identical function runs as a coordinator goroutine (wall pool) or
// inside a pnmcs-worker process (net pool). tc and cacheVerify are the
// process's transposition cache and its verify mode, for inline rollouts;
// idle receives each Recv-blocked interval; a remote worker passes its
// own sink.
//
// Fault tolerance: a median's clients live in its process, so a worker
// loss takes a median's in-flight chunks down with the median, and the
// scheduler re-grants its candidate (runScheduler). Each result item is
// checked against the key issued for its candidate in the current step: a
// duplicate, a stale step's or game's item, or a forged one is shed item
// by item.
func runPoolMedian(c mpi.Comm, w *poolWorld, tc *cache.Cache, cacheVerify bool, idle func(time.Duration)) {
	// Sent chunks alias moves and keys, which clients of this process read
	// until their results are in: an aborted game drops both instead of
	// reusing them.
	var moves []game.Move
	var keys []uint64 // per-candidate rollout rng key
	var scores []float64
	var scored []bool // per-candidate received flag, guards duplicate items
	var ro *poolRollouts
	if w.list.inline() {
		ro = &poolRollouts{tc: tc, verify: cacheVerify}
	}
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
			mc.handBack()
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
		var acct rolloutAcct
		if ro != nil {
			ro.use(cand.P)
		}
		aborted := false
	game:
		for t := 0; ; t++ {
			moves = st.LegalMoves(moves[:0])
			if len(moves) == 0 {
				break
			}
			scores, scored, keys = scores[:0], scored[:0], keys[:0]
			for j := range moves {
				scores = append(scores, 0)
				scored = append(scored, false)
				keys = append(keys, rng.Fold(uint64(cand.Step), uint64(cand.Cand), uint64(t), uint64(j)))
			}

			if ro != nil {
				units := int64(0)
				for j, mv := range moves {
					var u int64
					scores[j], u = ro.play(st, mv, keys[j])
					units += u
				}
				acct.add(rolloutAcct{rollouts: int64(len(moves)), units: units})
				c.Work(units * cand.P.JobScale)
			} else {
				limit := chunkLimit(len(moves), w.reach())
				for head, got := 0, 0; got < len(moves); {
					// Spend clients in hand on unsent rollouts and ask for more
					// while any remain; when none is free, one request stays in
					// flight until an assign answers it.
					for head < len(moves) && (len(mc.clients) > 0 || mc.reqs == 0 && mc.ask(st.MovesPlayed()+1)) {
						client := mc.clients[0]
						mc.clients = mc.clients[:copy(mc.clients, mc.clients[1:])]
						end := min(head+limit, len(moves))
						c.Send(client, tagJob, svcChunk{Par: cand.Par, P: cand.P, Base: st,
							Moves: moves[head:end], Keys: keys[head:end], First: head})
						head = end
						acct.chunks++
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
						moves, keys = nil, nil
						break game
					}
					if msg.Tag == tagResult {
						res, ok := msg.Payload.(svcChunkResult)
						if !ok || !isClientRank(w, msg.From) ||
							len(res.Scores) != len(res.Keys) || len(res.Units) != len(res.Keys) {
							continue // wrong-typed or malformed result
						}
						for i, key := range res.Keys {
							seq := res.First + i
							if seq < 0 || seq >= len(scores) || scored[seq] ||
								key != resultKey(cand.P, cand.Par, keys[seq]) {
								continue // forged, stale or duplicated item
							}
							scored[seq] = true
							scores[seq] = res.Scores[i]
							acct.add(rolloutAcct{rollouts: 1, units: res.Units[i]})
							got++
						}
					}
				}
			}
			st.Play(moves[argmax(scores)])
			c.Work(1)
		}
		if ro != nil {
			ro.done()
		}
		if aborted {
			continue
		}
		c.Send(cand.P.Root, tagStepScore, svcScore{
			Epoch: cand.P.Epoch, Step: cand.Step, Cand: cand.Cand, Par: cand.Par,
			Score: st.Score(), Rollouts: acct.rollouts, Units: acct.units, Chunks: acct.chunks,
		})
	}
}

// poolRollouts plays a pool job's level-(ℓ−2) rollouts: the items of a
// client's chunks, or every step of an inline median's games. Each rollout
// is reseeded from (job seed, coordinate key), so its score is identical
// no matter which rank plays it, in which chunk or order, or what ran on
// that rank before — the property the equivalence tests pin against
// Reference on both the wall and net transports. The searchers (one per
// memorization mode, sharing nothing), their scratch StatePools and the
// pool the positions are copied into persist across jobs. tc is the
// process-shared transposition cache; jobs opt in per job (P.Cache), and
// because a cached job's sub-searches draw from position-derived rng
// streams the cache is shared across jobs and ranks without coupling their
// results to each other's hit patterns.
type poolRollouts struct {
	tc        *cache.Cache
	verify    bool // recompute every cache hit
	meter     unitMeter
	pool      core.StatePool
	searchers [2]*core.Searcher // by P.Memorize
	s         *core.Searcher    // wired for job p by use
	p         jobParams
}

// use wires the searcher of p's memorization mode for job p. Jobs of
// differing evaluator configurations interleave on one persistent
// searcher, so the evaluator is resolved and swapped per use, like the rng
// stream is reseeded per rollout. A name this process has not registered
// (a version-skewed worker) resolves to nil: uniform playouts. A job that
// asks for the cache gets it until done.
func (r *poolRollouts) use(p jobParams) {
	i := 0
	if p.Memorize {
		i = 1
	}
	if r.searchers[i] == nil {
		r.searchers[i] = core.NewSearcher(rng.New(0), core.Options{Meter: &r.meter, Memorize: p.Memorize})
	}
	r.s, r.p = r.searchers[i], p
	var eval game.Evaluator
	if p.Eval != "" {
		eval, _ = game.NewEvaluator(p.Eval)
	}
	r.s.SetEvaluator(eval)
	if p.Cache {
		r.s.SetCache(r.tc, cache.Scope(p.Eval, p.Memorize, 0), r.verify)
	}
}

// play scores base after mv with the rollout keyed key, and returns the
// score and the rollout's metered work units. base is left as it was.
func (r *poolRollouts) play(base game.State, mv game.Move, key uint64) (float64, int64) {
	r.meter.units = 0
	st := r.pool.Get(base)
	st.Play(mv)
	r.s.Reseed(r.p.Seed, key)
	score := r.s.Score(st, r.p.Level-2, r.p.Cache)
	r.pool.Put(st)
	return score, r.meter.units
}

// done detaches the cache use attached.
func (r *poolRollouts) done() { r.s.SetCache(nil, 0, false) }

// runPoolClient is the persistent rollout worker. Chunks of any domain,
// level and memorization mix arrive interleaved from the medians of its
// process, and it plays them with poolRollouts. Like runPoolMedian, the
// body is transport-blind and runs unchanged in the coordinator or in a
// pnmcs-worker process. In a process whose medians play inline, no chunk
// ever comes and the client stands idle.
func runPoolClient(c mpi.Comm, w *poolWorld, tc *cache.Cache, cacheVerify bool, idle func(time.Duration)) {
	ro := &poolRollouts{tc: tc, verify: cacheVerify}
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
				len(ck.Keys) != len(ck.Moves) || !w.list.hosts(msg.From) {
				// A wrong-typed, degenerate or foreign message: no median
				// took this client off the list for it, so it is dropped.
				continue
			}
			// The answer is allocated per chunk, never reused: the median
			// reads it after this client has moved on.
			res := svcChunkResult{
				First: ck.First, Keys: make([]uint64, len(ck.Moves)),
				Scores: make([]float64, len(ck.Moves)), Units: make([]int64, len(ck.Moves)),
			}
			total := int64(0)
			ro.use(ck.P)
			for i, mv := range ck.Moves {
				res.Scores[i], res.Units[i] = ro.play(ck.Base, mv, ck.Keys[i])
				res.Keys[i] = resultKey(ck.P, ck.Par, ck.Keys[i])
				total += res.Units[i]
			}
			ro.done()
			c.Work(total * ck.P.JobScale)

			// Free before answering: a median whose result this is finds
			// the client back on the list when it asks for its next chunk.
			w.list.release(c, c.Rank())
			c.Send(msg.From, tagResult, res)
		}
	}
}
