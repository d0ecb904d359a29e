// Package parallel implements the paper's contribution: the parallelization
// of Nested Monte-Carlo Search on a cluster (§IV).
//
// Four process roles cooperate through message passing (mpi.Comm):
//
//   - The root process (rank 0) plays the top-level game. At every step it
//     ships each candidate position to a median node and plays the move
//     whose median reported the best score.
//   - Median processes each play a full level-(ℓ−1) game from the position
//     they receive. At every step of that game they ask the dispatcher for
//     a client per candidate move, ship the positions, gather the scores,
//     and play the argmax move. The final score goes back to the root.
//   - The dispatcher assigns clients to median requests: cyclically
//     (Round-Robin, §IV-A) or by tracking free clients and serving the
//     longest-expected pending job first (Last-Minute, §IV-B; expected
//     work is estimated by the number of moves already played — fewer
//     moves means a longer remaining game).
//   - Client processes run the actual nested rollouts at level ℓ−2 and
//     return the score.
//
// The root ships its candidates under one of three policies (root.go), all
// driving the same step loop (gather.go). The default is demand-driven
// (work stealing): idle medians pull their next candidate position from
// the root's work queue (mpi.PullSource), so heterogeneous node speeds and
// uneven playout lengths self-balance; a bounded prefetch window
// (Config.Prefetch) hides the request/grant round trip without deviating
// from the paper's small-message Gigabit cost model, and Config.Speculate
// keeps the queue fed across step boundaries. Config.Static selects the
// paper's §IV-A scheduler instead — candidate positions pushed to medians
// in fixed cyclic order — kept for A/B reproduction of the paper's tables.
// Client rollout scores are derived from the job's logical coordinates in
// the search tree, not from the executing rank, so every policy produces
// bit-identical move sequences for the same seed (see pull_test.go).
//
// The code is written against mpi.Comm only and runs identically on the
// deterministic virtual cluster (speedup tables) and on real goroutines.
package parallel

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/game"
	"repro/internal/mpi"
	"repro/internal/vtime"
)

// Algorithm selects the dispatcher policy of the per-run engine. A Pool's
// helpers always join the median steps in LastMinute order.
type Algorithm int

const (
	// RoundRobin hands clients out cyclically, blind to load (§IV-A).
	RoundRobin Algorithm = iota
	// LastMinute tracks free clients and serves the pending job with the
	// smallest move count — the longest expected job — first (§IV-B).
	LastMinute
)

// String returns the paper's abbreviation for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case RoundRobin:
		return "RR"
	case LastMinute:
		return "LM"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Message tags of the protocol. The letters refer to the communications in
// the paper's figures 2–5; (q) is the pull scheduler's work request, whose
// grant reuses tagPosition (a granted candidate is a position to play).
const (
	tagPosition mpi.Tag = iota + 1 // (a)/(g) root -> median: position to play
	tagScore                       // (d) median -> root: score of the finished game
	tagRequest                     // (b) median -> dispatcher: request a client
	tagAssign                      // (b) dispatcher -> median: assigned client rank
	tagJob                         // (b) median -> client: position to evaluate
	tagResult                      // (c) client -> median: score of the rollout
	tagFree                        // (c') client -> dispatcher: client is free again
	tagWorkReq                     // (q) median -> root: idle, pull the next candidate
	tagShutdown                    // teardown broadcast at end of run
)

// candidate is the root→median payload: one candidate position of the
// root's current step, tagged with its logical coordinates. The
// coordinates seed the job-key random streams (see job.Key), which is what
// decouples search results from scheduling decisions.
//
// Par is the branch discriminator: the index of the parent move played at
// the previous step (−1 at step 0). A speculative candidate for step s+1
// carries the step-s move it assumes will win; when the argmax resolves,
// scores whose Par is not the winning move are shed.
type candidate struct {
	Step  int // root game step the candidate belongs to
	Cand  int // candidate (move) index within that step
	Par   int // parent move index at the previous step (−1 = none)
	State game.State
}

// EncodedSize implements game.Sizer for the virtual network model: the
// position's own encoded size plus the two coordinate words.
func (c candidate) EncodedSize() int {
	if s, ok := c.State.(game.Sizer); ok {
		return s.EncodedSize() + 16
	}
	return 64 + 16
}

// job is the median→client payload: the position to evaluate, the
// median-local candidate index echoed back in the result, and the random
// stream key derived from the job's logical coordinates (root step, root
// candidate, median step, median candidate). Identical coordinates yield
// identical scores no matter which client executes the job.
type job struct {
	Key   uint64
	Seq   int
	State game.State
}

// EncodedSize implements game.Sizer.
func (j job) EncodedSize() int {
	if s, ok := j.State.(game.Sizer); ok {
		return s.EncodedSize() + 16
	}
	return 64 + 16
}

// jobScore is the client→median result: the rollout score of the Seq-th
// candidate of the median's current step.
type jobScore struct {
	Seq   int
	Score float64
}

// EncodedSize implements game.Sizer.
func (jobScore) EncodedSize() int { return 16 }

// stepScore is the pull scheduler's median→root score message: the final
// game score of the Cand-th candidate of the root's current step. The
// static scheduler ships bare float64 scores instead, answered in FIFO
// order per median, exactly like the paper's MPI messages. Step and Par
// echo the granted candidate's coordinates so the root can match a score
// to the step and speculative branch that issued it.
type stepScore struct {
	Step  int
	Cand  int
	Par   int
	Score float64
}

// EncodedSize implements game.Sizer.
func (stepScore) EncodedSize() int { return 16 }

// Config parameterizes one parallel search run.
type Config struct {
	// Algo is the dispatcher policy.
	Algo Algorithm
	// Level is the overall nesting level ℓ ≥ 2: the root plays at ℓ, the
	// medians at ℓ−1 and the clients run nested rollouts at ℓ−2 (level 0
	// being a plain random sample). The paper evaluates ℓ = 3 and 4; at
	// most MaxLevel.
	Level int
	// Root is the initial position; the run never mutates it.
	Root game.State
	// Seed derives all process random streams; runs with equal seeds on
	// the virtual transport are bit-identical.
	Seed uint64
	// FirstMoveOnly stops the root after choosing its first move — the
	// "first move" experiments of tables II, IV and VI. Otherwise the root
	// plays an entire game ("rollout" experiments, tables III and V).
	FirstMoveOnly bool
	// Memorize enables best-sequence memorization inside the clients'
	// nested rollouts (core.Options.Memorize). The paper's root and median
	// levels use plain per-step argmax, which is what this package does
	// regardless of the flag.
	Memorize bool
	// Tracer, when non-nil, records every protocol communication (figures
	// 2–5). Implementations must be safe for concurrent use on the wall
	// transport.
	Tracer Tracer
	// JobScale multiplies the work units charged for client rollouts on
	// the virtual transport (default 1). The scaled-down stand-in domains
	// finish a rollout in microseconds where the paper's level-3/4 jobs
	// take seconds; JobScale restores the paper's computation-to-
	// communication granularity ratio without inflating the root and
	// median bookkeeping, whose real cost is genuinely tiny. Speedup
	// shapes depend on this dimensionless ratio, not on absolute times
	// (see DESIGN.md §2 and benchmark/README.md).
	JobScale int64
	// LMFifo is an ablation of the Last-Minute dispatcher: when true,
	// pending jobs are served in arrival order instead of by the paper's
	// longest-expected-job-first heuristic (§IV-B line 8: "find j in jobs
	// with the smallest number of moves"). Only meaningful with
	// Algo == LastMinute.
	LMFifo bool
	// Static selects the paper's §IV-A root scheduler: candidate positions
	// pushed to medians in fixed cyclic order, every step blocking on the
	// slowest median. The default (false) is the demand-driven pull
	// scheduler, where idle medians request their next candidate from the
	// root's work queue. Both produce bit-identical move sequences for the
	// same seed; only the timing differs.
	Static bool
	// Prefetch bounds the pull scheduler's per-median request window: the
	// number of work requests a median keeps in flight while it plays a
	// granted game, so the next grant travels during computation instead
	// of after it. 0 selects the default of 1; negative disables
	// prefetching (strict request-after-finish, exposing the round-trip
	// latency). Ignored in static mode.
	Prefetch int
	// Speculate, when positive, turns the pull scheduler into the
	// asynchronous pipelined root: the root tracks outstanding
	// (initiated-but-unobserved) samples per candidate, and once a step's
	// partial scores identify the top-Speculate leaders it speculatively
	// offers the *next* step's candidates for those leading moves — under
	// their real logical-coordinate rng keys — so medians never drain at
	// the step boundary. When the argmax resolves, the losing branches'
	// queued candidates are purged and their in-flight grants drained
	// (scores shed by the branch discriminator, counted in
	// Result.SpecWasted); a winning branch's work is adopted wholesale.
	// Because rollout rng is keyed by logical job coordinates — never by
	// rank or timing — results stay bit-identical to the pull and static
	// schedulers per seed. 0 (the default) disables speculation; ignored
	// in static mode. At most MaxSpeculate.
	Speculate int
	// StopAfter, when positive, cancels the root game once the transport
	// clock reaches it. The pull scheduler stops mid-step: remaining
	// ungranted candidates are abandoned and the already-granted ones are
	// drained (their scores received) before the shutdown broadcast, so no
	// process is torn down with work in flight. The static scheduler stops
	// at the next step boundary. The result carries Stopped=true and the
	// game played so far.
	StopAfter time.Duration
	// Evaluator, when non-empty, names the registered game.Evaluator
	// (game.RegisterEvaluator) that guides the clients' level-0 playouts;
	// empty keeps the paper's uniform playouts bit-identically. The name —
	// not a function value — is the configuration surface because jobs
	// cross process boundaries on distributed pools, and the executing
	// worker resolves the same name against its own registry into
	// core.Options.Evaluator, whose doc is the source of truth for how
	// weights steer a playout. Per-run and pool clients alike resolve the
	// name with game.NewEvaluator and call the evaluator directly.
	Evaluator string
	// Cache enables the transposition cache on the clients' nested
	// rollouts: one cache, shared by every client of the run (or, on a
	// Pool, by every slot and job of the process), keyed by position
	// content so identical sub-positions are searched once. Caching runs
	// the searchers in derived mode and is therefore NOT bit-identical to
	// the default — results become a deterministic function of position
	// rather than of (seed, job); see core.Options.Cache, the source of
	// truth for the semantics. Default off.
	Cache bool
	// CacheVerify recomputes every cache hit and panics on mismatch
	// (core.Options.CacheVerify). Test/debug mode; implies the cost of a
	// cache-off run.
	CacheVerify bool
}

// jobScale returns the effective client work multiplier.
func (cfg *Config) jobScale() int64 {
	if cfg.JobScale <= 0 {
		return 1
	}
	return cfg.JobScale
}

// prefetch returns the effective pull-scheduler request window.
func (cfg *Config) prefetch() int {
	switch {
	case cfg.Prefetch < 0:
		return 0
	case cfg.Prefetch == 0:
		return 1
	default:
		return cfg.Prefetch
	}
}

// speculate returns the effective speculation width: the number of
// leading moves whose next-step candidates are enqueued before the
// argmax resolves. 0 = speculation off — always in static mode, where the
// paper's lockstep protocol has no queue to pipeline, and in first-move
// mode, where the single step has no boundary to pipeline across.
func (cfg *Config) speculate() int {
	if cfg.Static || cfg.FirstMoveOnly || cfg.Speculate <= 0 {
		return 0
	}
	return cfg.Speculate
}

// dispatchPolicy returns the per-run dispatcher policy. Under the pull
// scheduler the client layer is demand-driven for both algorithms —
// clients announce availability after every job — and Algo selects only
// the job ordering. Under Config.Static the paper's blind cyclic
// dispatcher is reproduced exactly for Round-Robin.
func (cfg *Config) dispatchPolicy() dispatchPolicy {
	return dispatchPolicy{
		blind:        cfg.Static && cfg.Algo == RoundRobin,
		longestFirst: cfg.Algo == LastMinute && !cfg.LMFifo,
	}
}

// stopDue reports whether the StopAfter budget has run out.
func (cfg *Config) stopDue(c mpi.Comm) bool {
	return deadlineDue(c, 0, cfg.StopAfter)
}

// deadlineDue reports whether budget has elapsed on clock since the start
// reading. It is the one deadline predicate of the package: the per-run
// StopAfter poll and the pool's per-job deadline both read the same
// vtime.Clock axis, so a virtual-time harness charges every wait
// consistently (mpi.Comm is a vtime.Clock — virtual makespan on the
// simulated cluster, monotonic wall time otherwise). A non-positive
// budget never expires.
func deadlineDue(clock vtime.Clock, start, budget time.Duration) bool {
	return budget > 0 && clock.Now()-start >= budget
}

// deadlineFunc binds deadlineDue into the poll closure shape that
// core.Options.Stop and the job gather loops consume.
func deadlineFunc(clock vtime.Clock, start, budget time.Duration) func() bool {
	return func() bool { return deadlineDue(clock, start, budget) }
}

// Result is the outcome of a run.
type Result struct {
	// Score of the game the root played (first-move mode: the best
	// lower-level evaluation backing the chosen move).
	Score float64
	// FirstMove is the move the root chose first.
	FirstMove game.Move
	// Sequence is the root's played game.
	Sequence []game.Move
	// Elapsed is the transport time of the run: virtual makespan on the
	// virtual cluster, wall time otherwise.
	Elapsed time.Duration
	// Jobs is the number of client rollouts behind the played game (a
	// per-run speculating root also counts its losing branches' rollouts).
	Jobs int64
	// WorkUnits is the total metered CPU work across clients.
	WorkUnits int64
	// ClientBusy maps each client index to its cumulative busy virtual
	// time; utilization = busy / Elapsed. Only filled by virtual runs.
	ClientBusy []time.Duration
	// ClientIdle maps each client index to its cumulative time blocked in
	// Recv — waiting for a job or for the shutdown broadcast. Idle spread
	// across ranks is the load-imbalance signal the pull scheduler exists
	// to shrink.
	ClientIdle []time.Duration
	// MedianIdle maps each median index to its cumulative Recv-blocked
	// time: waiting for a candidate (static: its turn in the cyclic order;
	// pull: a grant), for a dispatcher assignment, or for client results.
	MedianIdle []time.Duration
	// Steps is the number of root game steps played.
	Steps int
	// Stopped is true when Config.StopAfter cancelled the game early.
	Stopped bool
	// Regranted counts candidate grants this job lost to worker crashes
	// and had re-queued (distributed pools only; see PoolMetrics). The
	// churn costs compute, never correctness: Score, Sequence, Jobs and
	// WorkUnits are unaffected.
	Regranted int64
	// Speculated / SpecWasted count the async scheduler's speculative
	// next-step candidates: how many were issued ahead of an argmax
	// resolution, and how many of those were wasted on branches that
	// lost (their queued candidates purged, their in-flight scores
	// drained and shed). Zero unless Config.Speculate > 0. Waste costs
	// compute, never correctness.
	Speculated int64
	SpecWasted int64
	// StepLatency records the transport time each root step took from
	// issuing its candidates to playing its move, in step order — the
	// metric the async scheduler attacks (a straggling median stretches
	// individual steps long before it moves total Elapsed).
	StepLatency []time.Duration
	// QueueDepthMax / QueueDepthMean profile the pull scheduler's ready
	// queue (candidates offered but not yet granted), sampled at every
	// offer/request transition. Zero under the static scheduler.
	QueueDepthMax  int
	QueueDepthMean float64
	// Degraded is true when the job ran (or ended) on a shrunken pool:
	// at least one worker process was abandoned — lost for good with no
	// replacement — while this job was in flight (distributed pools
	// only). Score, Sequence, Jobs and WorkUnits are still bit-identical
	// to an undisturbed run; the flag reports capacity, not correctness.
	Degraded bool
}

// Event is one protocol communication, labelled like the paper's figures:
// "a" root→median position, "b" the request/assign/job triplet, "c" the
// result, "c'" the Last-Minute free notice, "d" the median's final score.
type Event struct {
	Kind string
	From mpi.Rank
	To   mpi.Rank
	At   time.Duration
}

// Tracer records protocol events.
type Tracer interface {
	Record(Event)
}

// trace emits an event if tracing is on.
func (cfg *Config) trace(kind string, from, to mpi.Rank, at time.Duration) {
	if cfg.Tracer != nil {
		cfg.Tracer.Record(Event{Kind: kind, From: from, To: to, At: at})
	}
}

// MaxLevel and MaxSpeculate bound Config.Level and Config.Speculate, and
// submission refuses a job past either on every engine. The level crosses
// process boundaries with a net pool's candidates, and a worker's decoder
// drops a frame carrying a level past MaxLevel — an unbounded level would
// drive unbounded recursion in the worker's nested search — so the job
// cannot wait forever for answers its workers never send. The width never
// leaves the root (a pool's slot), but sizes its branch tables: an
// unbounded one would allocate without bound.
const (
	MaxLevel     = 64
	MaxSpeculate = 1 << 16
)

// check rejects a Config that no engine can search. Execute, Pool.StartJob
// and Reference all validate through it.
func (cfg *Config) check() error {
	if cfg.Level < 2 {
		return fmt.Errorf("parallel: level %d < 2 cannot be distributed (root, median, client need one level each)", cfg.Level)
	}
	if cfg.Level > MaxLevel {
		return fmt.Errorf("parallel: level %d exceeds limit %d", cfg.Level, MaxLevel)
	}
	if cfg.Speculate > MaxSpeculate {
		return fmt.Errorf("parallel: speculate %d exceeds limit %d", cfg.Speculate, MaxSpeculate)
	}
	if cfg.Root == nil {
		return fmt.Errorf("parallel: no root position")
	}
	if cfg.Evaluator != "" && !game.HasEvaluator(cfg.Evaluator) {
		// Validated at submission, in the coordinator: clients resolving
		// an unknown name mid-job could only fall back to uniform
		// playouts, silently answering a different question than asked.
		return fmt.Errorf("parallel: unknown evaluator %q (registered: %v)",
			cfg.Evaluator, game.EvaluatorNames())
	}
	return nil
}

// Execute wires the processes onto cl according to the layout and runs the
// search to completion. The cluster must have been built with lay.Size()
// ranks (and lay.Speeds for a virtual cluster).
func Execute(cl mpi.Cluster, lay cluster.Layout, cfg Config) (Result, error) {
	if err := cfg.check(); err != nil {
		return Result{}, err
	}
	if cfg.Algo != RoundRobin && cfg.Algo != LastMinute {
		return Result{}, fmt.Errorf("parallel: unknown algorithm %v", cfg.Algo)
	}
	if cl.Size() != lay.Size() {
		return Result{}, fmt.Errorf("parallel: cluster has %d ranks, layout wants %d", cl.Size(), lay.Size())
	}
	if len(lay.Medians) == 0 || len(lay.Clients) == 0 {
		return Result{}, fmt.Errorf("parallel: layout needs medians and clients")
	}

	res := &Result{
		ClientBusy: make([]time.Duration, len(lay.Clients)),
		ClientIdle: make([]time.Duration, len(lay.Clients)),
		MedianIdle: make([]time.Duration, len(lay.Medians)),
	}
	coll := &collector{
		busy:       make([]time.Duration, len(lay.Clients)),
		clientIdle: make([]time.Duration, len(lay.Clients)),
		medianIdle: make([]time.Duration, len(lay.Medians)),
	}

	cl.Start(lay.Root, func(c mpi.Comm) {
		runRoot(c, lay, &cfg, res)
	})
	cl.Start(lay.Dispatcher, func(c mpi.Comm) {
		runDispatcher(c, lay, cfg.dispatchPolicy(), cfg.trace)
	})
	for i, m := range lay.Medians {
		i := i
		cl.Start(m, func(c mpi.Comm) {
			runMedian(c, lay, &cfg, i, coll)
		})
	}
	// The run-local transposition cache: one per Execute, shared by the
	// run's client ranks and torn down with the run (pools keep a
	// process-lifetime cache instead; see PoolConfig.CacheMB). Nil when the
	// run does not opt in, which keeps the cache-off path bit-identical.
	var tc *cache.Cache
	if cfg.Cache {
		tc = cache.New(0)
	}
	for i, cr := range lay.Clients {
		i := i
		cl.Start(cr, func(c mpi.Comm) {
			runClient(c, lay, &cfg, i, coll, tc)
		})
	}

	res.Elapsed = cl.Run()
	res.Jobs = coll.jobs
	res.WorkUnits = coll.units
	copy(res.ClientBusy, coll.busy)
	copy(res.ClientIdle, coll.clientIdle)
	copy(res.MedianIdle, coll.medianIdle)
	return *res, nil
}
