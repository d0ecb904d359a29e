// Package pnmcs is a Go reproduction of "Parallel Nested Monte-Carlo
// Search" (Tristan Cazenave and Nicolas Jouandeau, 12th International
// Workshop on Nature Inspired Distributed Computing, IPDPS workshops,
// 2009).
//
// It provides:
//
//   - Sequential Nested Monte-Carlo Search at any level (the paper's §III
//     algorithm, with best-sequence memorization): NewSearcher / Nested.
//     The argmax hot path is allocation-free: domains implementing
//     game.Undoer (all three bundled domains do) are traversed with
//     Play/Undo on a single mutable state instead of a clone per
//     candidate move (see DESIGN.md §4).
//   - The paper's parallel search (§IV) with both dispatching policies,
//     Round-Robin and Last-Minute, written once against a message-passing
//     substrate and runnable either natively on goroutines or on a
//     deterministic simulated cluster with per-node speeds and a network
//     model — the substitution for the paper's 64-core MPI testbed that
//     regenerates the timing tables on a laptop: RunVirtual / RunWall.
//   - The evaluation domains: Morpion Solitaire (5T/5D/4T/4D, the paper's
//     puzzle), SameGame and 16×16 Sudoku (the companion NMCS domains):
//     NewMorpion / NewSameGame / NewSudoku.
//   - Cluster topologies from §V, including the heterogeneous layouts of
//     Table VI: Homogeneous / PaperCluster / Hetero16x4p16x2 / Hetero8x4p8x2.
//
// A minimal search:
//
//	searcher := pnmcs.NewSearcher(pnmcs.NewRand(42), pnmcs.DefaultSearchOptions())
//	result := searcher.Nested(pnmcs.NewMorpion(pnmcs.Var5D), 2)
//	fmt.Println(result.Score)
//
// And the paper's parallel run on a simulated 64-client cluster:
//
//	res, err := pnmcs.RunVirtual(pnmcs.PaperCluster(), pnmcs.ParallelConfig{
//		Algo: pnmcs.LastMinute, Level: 3,
//		Root: pnmcs.NewMorpion(pnmcs.Var5D), Seed: 1, Memorize: true,
//	}, pnmcs.VirtualOptions{})
//
// The experiment harness that regenerates every table and figure of the
// paper lives in cmd/experiments; DESIGN.md maps each experiment to the
// modules implementing it and benchmark/README.md records what is measured.
package pnmcs

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/game"
	"repro/internal/morpion"
	"repro/internal/mpi"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/samegame"
	"repro/internal/service"
	"repro/internal/sudoku"
)

// Domain abstraction (see internal/game).
type (
	// Move is a compact domain-encoded move.
	Move = game.Move
	// State is a search domain position.
	State = game.State
)

// Rollout evaluators (see internal/game): the pluggable backend guiding
// the clients' level-0 playouts. Evaluators travel by registered name
// because jobs cross process boundaries on distributed services; register
// custom ones before building a Service.
type (
	// Evaluator scores the legal moves of rollout positions. Must be pure
	// and safe for concurrent use; see game.Evaluator.
	Evaluator = game.Evaluator
	// EvalRequest is one position to score: a state and its legal moves.
	EvalRequest = game.EvalRequest
)

// HeuristicEvaluatorName names the bundled per-domain heuristic evaluator
// (centrality for Morpion, group size for SameGame, value scarcity for
// Sudoku), usable with WithEvaluator and JobSpec.Evaluator.
const HeuristicEvaluatorName = game.HeuristicEvaluatorName

// EvaluatorUniform is the JobSpec.Evaluator sentinel that forces the
// paper's uniform playouts on a service configured with a default
// evaluator (an empty spec field inherits the default).
const EvaluatorUniform = service.EvaluatorUniform

// RegisterEvaluator makes a custom evaluator available under name, process
// wide. Distributed runs resolve the name on the executing worker, so
// every worker process must register it too (same binary, same init).
func RegisterEvaluator(name string, factory func() Evaluator) {
	game.RegisterEvaluator(name, factory)
}

// EvaluatorNames lists the registered evaluator names, sorted.
func EvaluatorNames() []string { return game.EvaluatorNames() }

// Random number generation.
type (
	// Rand is the deterministic xoshiro256** generator used everywhere.
	Rand = rng.Rand
)

// NewRand returns a generator seeded from seed.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// NewRandStream returns the stream-th independent stream for a seed, used
// to give each process its own decorrelated randomness.
func NewRandStream(seed, stream uint64) *Rand { return rng.NewStream(seed, stream) }

// Sequential search (the paper's §III).
type (
	// Searcher runs sequential nested Monte-Carlo searches.
	Searcher = core.Searcher
	// SearchOptions configure a Searcher.
	SearchOptions = core.Options
	// SearchResult is a search outcome: score and move sequence.
	SearchResult = core.Result
)

// NewSearcher returns a sequential searcher.
func NewSearcher(r *Rand, opt SearchOptions) *Searcher { return core.NewSearcher(r, opt) }

// DefaultSearchOptions matches the paper: memorization on.
func DefaultSearchOptions() SearchOptions { return core.DefaultOptions() }

// Parallel search (the paper's §IV).
type (
	// ParallelConfig parameterizes a parallel run.
	ParallelConfig = parallel.Config
	// ParallelResult is the outcome of a parallel run.
	ParallelResult = parallel.Result
	// Algorithm selects the dispatch order, RoundRobin or LastMinute: of
	// pending rollouts at the per-run engine's dispatcher, of posted
	// median steps a free helper joins in a pool.
	Algorithm = parallel.Algorithm
	// VirtualOptions tune the simulated cluster transport.
	VirtualOptions = parallel.VirtualOptions
)

// The two dispatching policies of the paper.
const (
	RoundRobin = parallel.RoundRobin
	LastMinute = parallel.LastMinute
)

// PaperMedians is the paper's median process count (40).
const PaperMedians = parallel.PaperMedians

// RunVirtual executes a parallel search on a simulated cluster and returns
// the result with the deterministic virtual makespan.
func RunVirtual(spec ClusterSpec, cfg ParallelConfig, opts VirtualOptions) (ParallelResult, error) {
	return parallel.RunVirtual(spec, cfg, opts)
}

// RunWall executes a parallel search natively on goroutines.
func RunWall(nClients, medians int, cfg ParallelConfig) (ParallelResult, error) {
	return parallel.RunWall(nClients, medians, cfg)
}

// Concurrent search service (the long-lived, multi-job form of RunWall;
// see internal/service and cmd/pnmcsd).
type (
	// Service is a persistent search service: a shared worker pool onto
	// which concurrently submitted jobs are multiplexed. Build with
	// New, submit with Submit, tear down with Shutdown.
	Service = service.Manager
	// ServiceConfig sizes a Service: slots, medians, clients, queue bound.
	ServiceConfig = service.Config
	// JobSpec describes one search job: domain position plus search
	// parameters. Equal specs return bit-identical results, on the
	// service or solo through the reference loop.
	JobSpec = service.JobSpec
	// JobStatus is a point-in-time snapshot of a submitted job.
	JobStatus = service.JobStatus
	// JobState is a job's lifecycle state (queued, running, done,
	// cancelled, failed).
	JobState = service.JobState
	// ServiceMetrics aggregates the service counters and the pool's
	// idle / queue-depth instrumentation.
	ServiceMetrics = service.Metrics
	// Router is the sharded service plane: N independent Services behind
	// one admission layer (per-tenant quotas, least-loaded placement with
	// saturation spillover). Routing is placement, never semantics: a
	// job's result is bit-identical on 1 pool or N. Build with NewRouter.
	Router = service.Router
	// RouterMetrics aggregates the counters across every pool and carries
	// the per-pool breakdown plus the tenant-shed ledger.
	RouterMetrics = service.RouterMetrics
)

// Service errors surfaced to callers: saturation (bounded-queue
// backpressure), per-tenant quota exhaustion, shutdown, unknown ids, and
// double-cancellation.
var (
	ErrServiceSaturated = service.ErrSaturated
	ErrServiceClosed    = service.ErrClosed
	ErrJobNotFound      = service.ErrNotFound
	ErrJobFinished      = service.ErrFinished
	ErrTenantQuota      = service.ErrQuota
)

// New builds the persistent worker pool and returns an idle service.
// cmd/pnmcsd exposes the same object over HTTP. With no options the
// service is local and defaulted: 4 job slots multiplexed onto an
// in-process pool of 4 medians and 8 clients, uniform playouts.
//
//	svc, err := pnmcs.New(
//		pnmcs.WithPool(8, 16),
//		pnmcs.WithEvaluator("heuristic"),
//	)
//
// Adding WithWorkers(n) makes the service the coordinator of a
// distributed rank world whose medians, with the clients as their
// helpers, are hosted by external worker processes (cmd/pnmcs-worker, or
// ServeWorker below).
func New(opts ...Option) (*Service, error) {
	var cfg ServiceConfig
	for _, o := range opts {
		o(&cfg)
	}
	return service.New(cfg)
}

// NewRouter builds a sharded service plane from the same options New
// accepts: WithPools(n) spreads jobs across n independent pools behind
// one admission layer, and WithTenantQPS puts a per-tenant token-bucket
// quota in front of the queues. With one pool and no quotas it behaves
// exactly like the Service New builds.
//
//	rt, err := pnmcs.NewRouter(
//		pnmcs.WithPools(4),
//		pnmcs.WithSlots(2),          // per pool
//		pnmcs.WithTenantQPS(50, 10), // 50 jobs/s, burst 10, per tenant
//	)
func NewRouter(opts ...Option) (*Router, error) {
	var cfg ServiceConfig
	for _, o := range opts {
		o(&cfg)
	}
	return service.NewRouter(cfg)
}

// Option customizes one knob of a Service built by New. Every option
// writes one field of service.Config — the single source of truth for the
// knob's semantics and default — so the two construction styles can never
// drift apart.
type Option func(*ServiceConfig)

// WithSlots sets the number of jobs served concurrently (default 4).
func WithSlots(n int) Option { return func(c *ServiceConfig) { c.Slots = n } }

// WithPool sizes the shared worker pool: median processes and client
// processes (defaults 4 and 8). These are the paper's §IV process roles;
// they bound parallelism, never change results.
func WithPool(medians, clients int) Option {
	return func(c *ServiceConfig) { c.Medians, c.Clients = medians, clients }
}

// WithQueueLimit bounds the jobs waiting for a free slot (default 16);
// negative means no queue. Submissions beyond it fail with
// ErrServiceSaturated.
func WithQueueLimit(n int) Option { return func(c *ServiceConfig) { c.QueueLimit = n } }

// WithPools shards a NewRouter-built service plane across n independent
// worker pools (default 1); slots, medians, clients and queue are per
// pool, so capacity scales linearly. Requires in-process pools (no
// WithWorkers) when n > 1. Ignored by New, which always builds one pool.
func WithPools(n int) Option { return func(c *ServiceConfig) { c.Pools = n } }

// WithTenantQPS puts a token-bucket quota in front of a NewRouter-built
// plane: each JobSpec.Tenant may submit at qps sustained with the given
// burst allowance (burst <= 0 defaults to qps+1); beyond it Submit fails
// with ErrTenantQuota before the job holds any queue capacity.
func WithTenantQPS(qps float64, burst int) Option {
	return func(c *ServiceConfig) { c.TenantQPS, c.TenantBurst = qps, burst }
}

// WithRetain bounds the finished jobs kept for status queries
// (default 1024); negative evicts terminal jobs immediately.
func WithRetain(n int) Option { return func(c *ServiceConfig) { c.Retain = n } }

// WithAlgorithm selects the order in which a free helper joins the
// posted median steps, RoundRobin (earliest posted) or LastMinute (fewest
// moves played; the default, the paper's best). Scheduling never changes
// job results.
func WithAlgorithm(a Algorithm) Option { return func(c *ServiceConfig) { c.Algo = a } }

// WithEvaluator sets the default rollout evaluator — a registered
// game.Evaluator name such as "heuristic" — applied to jobs whose spec
// does not name one. Empty (the default) keeps the paper's uniform
// playouts; a job opts back out of a service default with the spec
// sentinel EvaluatorUniform.
func WithEvaluator(name string) Option { return func(c *ServiceConfig) { c.Evaluator = name } }

// WithWorkers serves the pool's medians, and its clients as their
// helpers, from n external worker processes instead of goroutines, n at
// most medians so that every worker hosts a median. Job results are
// bit-identical either way.
func WithWorkers(n int) Option { return func(c *ServiceConfig) { c.Workers = n } }

// WithWorkerListen sets the TCP address workers dial (default loopback,
// ephemeral port). Only meaningful with WithWorkers.
func WithWorkerListen(addr string) Option { return func(c *ServiceConfig) { c.WorkerListen = addr } }

// WithWorkerToken sets the shared secret dialing workers must present.
// Set it whenever the worker listener leaves loopback.
func WithWorkerToken(token string) Option { return func(c *ServiceConfig) { c.WorkerToken = token } }

// WithDegrade enables graceful degradation down to min surviving workers:
// when a lost worker is abandoned without a replacement, jobs keep
// finishing — bit-identical — on the shrunken world instead of failing
// fast. Only meaningful with WithWorkers.
func WithDegrade(min int) Option {
	return func(c *ServiceConfig) { c.Degrade, c.MinWorkers = true, min }
}

// WithReplaceGrace sets how long a lost worker's ranks are held for a
// replacement before the pool abandons them (degrading or failing fast
// per WithDegrade). Only meaningful with WithWorkers.
func WithReplaceGrace(d time.Duration) Option { return func(c *ServiceConfig) { c.ReplaceGrace = d } }

// WithPendingLimit bounds the work re-queued from lost workers before the
// grace window is cut short. Only meaningful with WithWorkers.
func WithPendingLimit(n int) Option { return func(c *ServiceConfig) { c.PendingLimit = n } }

// WithRetry re-runs jobs the pool failed, up to max times with exponential
// backoff from the given base delay (zero base defaults to 250ms). Re-runs
// keep the job's seed, so a retried answer is bit-identical to what the
// healthy pool would have produced.
func WithRetry(max int, backoff time.Duration) Option {
	return func(c *ServiceConfig) { c.Retry = service.RetryPolicy{Max: max, Backoff: backoff} }
}

// WorkerStats summarizes one worker process's service: hosted medians,
// helpers run, cumulative idle time, transport counters.
type WorkerStats = parallel.WorkerStats

// ServeWorker dials a distributed service's coordinator — presenting the
// shared-secret token when the coordinator requires one (empty otherwise)
// — and hosts the assigned median ranks, with its share of the clients as
// their helpers, until the coordinator shuts down. cmd/pnmcs-worker is a
// thin wrapper around this call.
func ServeWorker(addr, token string) (WorkerStats, error) {
	w, err := mpi.DialWorker(addr, token)
	if err != nil {
		return WorkerStats{}, err
	}
	return parallel.ServeWorker(w)
}

// Cluster topologies (the paper's §V testbeds).
type (
	// ClusterSpec describes a testbed: nodes, speeds, client placement.
	ClusterSpec = cluster.Spec
)

// Homogeneous builds n reference-speed clients (two per dual-core PC).
func Homogeneous(n int) ClusterSpec { return cluster.Homogeneous(n) }

// PaperCluster is the paper's 64-client mixed 1.86/2.33 GHz cluster.
func PaperCluster() ClusterSpec { return cluster.Paper64() }

// Hetero16x4p16x2 is Table VI's 16×4+16×2 unbalanced layout.
func Hetero16x4p16x2() ClusterSpec { return cluster.Hetero16x4p16x2() }

// Hetero8x4p8x2 is Table VI's 8×4+8×2 unbalanced layout.
func Hetero8x4p8x2() ClusterSpec { return cluster.Hetero8x4p8x2() }

// Morpion Solitaire (the paper's evaluation domain).
type (
	// Morpion is a Morpion Solitaire position.
	Morpion = morpion.State
	// MorpionVariant is a rule set (5T, 5D, 4T, 4D).
	MorpionVariant = morpion.Variant
)

// The four standard Morpion variants; the paper evaluates Var5D.
var (
	Var5T = morpion.Var5T
	Var5D = morpion.Var5D
	Var4T = morpion.Var4T
	Var4D = morpion.Var4D
)

// NewMorpion returns the initial cross position of a variant.
func NewMorpion(v MorpionVariant) *Morpion { return morpion.New(v) }

// MorpionVariantByName resolves "5T", "5D", "4T" or "4D".
func MorpionVariantByName(name string) (MorpionVariant, error) {
	return morpion.VariantByName(name)
}

// RenderMorpionSequence replays a sequence from the initial position of v
// and draws the final grid (the paper's figure-1 style).
func RenderMorpionSequence(v MorpionVariant, seq []Move) (string, error) {
	return morpion.RenderSequence(v, seq)
}

// MorpionArchive stores record sequences for one variant, validated and
// deduplicated up to the cross's symmetry group — the bookkeeping behind
// the paper's "two new world-record sequences" claim.
type MorpionArchive = morpion.Archive

// NewMorpionArchive returns an empty archive for a variant.
func NewMorpionArchive(v MorpionVariant) *MorpionArchive { return morpion.NewArchive(v) }

// EquivalentMorpionSequences reports whether two games are images of each
// other under the symmetry group of the initial cross.
func EquivalentMorpionSequences(v MorpionVariant, a, b []Move) (bool, error) {
	return morpion.EquivalentSequences(v, a, b)
}

// SameGame (companion domain).
type SameGame = samegame.State

// NewSameGame returns the standard random 15×15, 5-colour board for seed.
func NewSameGame(seed uint64) *SameGame { return samegame.NewStandard(seed) }

// NewSameGameSized returns a random w×h board with the given colours.
func NewSameGameSized(w, h, colors int, seed uint64) *SameGame {
	return samegame.NewRandom(w, h, colors, seed)
}

// Sudoku (companion domain).
type Sudoku = sudoku.State

// NewSudoku returns an empty grid with the given box side (4 → 16×16).
func NewSudoku(box int) *Sudoku { return sudoku.New(box) }
