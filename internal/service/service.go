// Package service turns the one-shot parallel search into a long-lived,
// concurrent search service: the serving shape of Tesauro & Galperin's
// on-line policy improvement, backed by the paper's root/median/client
// cluster.
//
// A Manager owns one parallel.Pool — a persistent worker pool whose
// medians and clients are built once and reused across every job — and
// multiplexes concurrently submitted jobs onto it. Each job gets a
// job-slot root rank for the time it runs; the pool's shared scheduler
// feeds idle medians from per-job candidate queues (PR 2's pull protocol
// lifted to many roots), so one wide job cannot starve the others.
//
// Lifecycle of a job:
//
//	Submit ──▶ queued ──▶ running ──▶ done
//	              │           ├────▶ cancelled   (Cancel, ctx, Shutdown)
//	              │           └────▶ done (Stopped) on Deadline
//	              └──────────────▶ cancelled     (Cancel while queued)
//
// Backpressure is bounded and explicit: at most Config.Slots jobs run at
// once, at most Config.QueueLimit wait behind them, and a Submit beyond
// that returns ErrSaturated immediately (cmd/pnmcsd maps it to HTTP 503)
// — the service sheds load instead of buffering unboundedly.
//
// Determinism survives multiplexing: a job's score, move sequence and
// rollout counts are bit-identical to parallel.Reference's answer for the
// same JobSpec and seed, no matter what else shares the pool (the
// equivalence and storm tests pin this).
package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/game"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/vtime"
)

// Config sizes a Manager.
//
// Several fields mirror a knob of the pool the manager builds
// (parallel.PoolConfig / parallel.NetPoolConfig); for those, the parallel
// declaration is the source of truth for semantics and defaults, and the
// doc here only says which field is forwarded.
type Config struct {
	// Slots is the number of jobs served concurrently
	// (parallel.PoolConfig.Slots). Default 4.
	Slots int
	// Medians / Clients size the shared worker pool
	// (parallel.PoolConfig.Medians / Clients). Defaults 4 / 8.
	Medians int
	Clients int
	// QueueLimit bounds the jobs waiting for a free slot; a Submit beyond
	// Slots running + QueueLimit queued is rejected with ErrSaturated.
	// Default 16; negative means no queue (running jobs only).
	QueueLimit int
	// Retain bounds the terminal jobs kept for status queries: beyond it
	// the oldest finished job is evicted (its id then answers
	// ErrNotFound), so a long-lived service holds bounded memory.
	// Default 1024; negative evicts terminal jobs immediately.
	Retain int
	// Evaluator is the default rollout evaluator applied to jobs whose
	// spec leaves JobSpec.Evaluator empty (a registered game.Evaluator
	// name, e.g. "heuristic", forwarded as parallel.Config.Evaluator).
	// Empty means uniform playouts; a job opts back out of a non-empty
	// default with the spec sentinel "uniform" (EvaluatorUniform).
	// Validated by New.
	Evaluator string

	// Workers, when positive, serves the pool's medians, and its clients
	// as their helpers, from that many external pnmcs-worker processes
	// instead of goroutines: the manager becomes the coordinator of a
	// distributed rank world (parallel.NewNetPool) and listens on
	// WorkerListen for the workers to dial in. Job results are
	// bit-identical either way. At most Medians: every worker hosts a
	// median.
	Workers int
	// WorkerListen is the TCP address workers dial; ":0" binds an
	// ephemeral port (read it back with Manager.WorkerAddr). Only used
	// when Workers > 0.
	WorkerListen string
	// WorkerToken, when non-empty, is the shared secret every dialing
	// worker must present at handshake (compared in constant time). Set
	// it whenever WorkerListen leaves loopback.
	WorkerToken string

	// Degrade / MinWorkers / ReplaceGrace / PendingLimit plumb the pool's
	// graceful-degradation policy through to parallel.NetPoolConfig: when
	// a lost worker is abandoned (grace expired or pending queue
	// overflowed, no replacement), Degrade lets jobs finish bit-identical
	// on the shrunken world down to MinWorkers survivors; otherwise the
	// pool fails jobs fast with parallel.ErrDegraded. Only used when
	// Workers > 0.
	Degrade      bool
	MinWorkers   int
	ReplaceGrace time.Duration
	PendingLimit int

	// Retry re-runs jobs the pool failed (degradation fail-fast, worker
	// floor) under their original seed, so a transient capacity dip costs
	// latency, never an answer: the re-run is bit-identical to what the
	// healthy pool would have produced.
	Retry RetryPolicy
	// RetrySeed seeds the manager's private jitter source for retry
	// backoff delays. Zero seeds from the clock (the production default —
	// distinct managers must not jitter in lockstep); tests set it to make
	// the backoff schedule reproducible. Job results never depend on it.
	RetrySeed uint64

	// CacheMB / CacheVerify shape the pool's shared transposition cache
	// (parallel.PoolConfig.CacheMB / CacheVerify). The cache only serves
	// jobs that opt in via JobSpec.Cache. Default 64 (MB).
	CacheMB     int
	CacheVerify bool

	// Speculate is the service-wide default speculation width for the
	// async pipelined root (parallel.Config.Speculate), overlaid on jobs
	// whose spec leaves JobSpec.Speculate zero: they pipeline step
	// boundaries by speculatively dispatching the next step's candidates
	// for the top Speculate leaders. 0 (the default) keeps the synchronous
	// pull root; a spec's negative width opts a job out. At most
	// parallel.MaxSpeculate, validated by New. Results are bit-identical
	// either way.
	Speculate int

	// Pools shards the service plane across that many independent worker
	// pools behind one admission layer (consumed by NewRouter; a Manager
	// built with New always owns exactly one pool). Each shard gets its
	// own Slots/Medians/Clients/QueueLimit/cache as configured above, so
	// total capacity scales linearly with Pools. Routing is placement,
	// never semantics: a job's result is bit-identical on 1 or N pools.
	// Default 1. Pools > 1 requires Workers == 0 (a distributed rank
	// world has exactly one coordinator listener).
	Pools int
	// TenantQPS, when positive, enforces a per-tenant token-bucket quota
	// at admission (consumed by NewRouter): each JobSpec.Tenant refills at
	// TenantQPS submissions per second up to TenantBurst, and a submission
	// finding the bucket empty is shed with ErrQuota (HTTP 429) before it
	// can occupy queue capacity. Zero disables quotas.
	TenantQPS float64
	// TenantBurst caps a tenant's bucket — the submissions it may burst
	// above the steady rate. Defaults to ceil(TenantQPS)+1 when quotas
	// are on.
	TenantBurst int

	// Clock supplies the time source behind JobStatus timestamps and
	// quota refill (nil = the host monotonic clock). Virtual-time tests
	// inject a fake to cover retention, latency and quota logic without
	// real sleeps. Job results never depend on it.
	Clock vtime.Clock
	// SeedBase seeds the manager's private default-seed stream for jobs
	// submitted with Seed == 0 (see Submit). Zero draws a startup seed
	// from the clock mixed with a process-wide counter, so managers
	// created in the same clock tick still hand out disjoint defaults;
	// tests set it to make assigned seeds reproducible.
	SeedBase uint64
}

// RetryPolicy bounds the per-job retry loop.
type RetryPolicy struct {
	// Max is the number of re-runs allowed per job; zero disables retry.
	Max int
	// Backoff is the base delay before the first re-run; successive
	// attempts back off exponentially (doubling, capped at 30s) with full
	// jitter in [d/2, d] so a fleet of failed jobs does not thundering-
	// herd the recovering pool. Zero defaults to 250ms when Max > 0.
	Backoff time.Duration
}

func (c Config) withDefaults() Config {
	if c.Slots <= 0 {
		c.Slots = 4
	}
	if c.Medians <= 0 {
		c.Medians = 4
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	// The negative "disabled" sentinels survive normalization so that
	// withDefaults is idempotent (NewRouter normalizes once for the
	// admission layer, newManager again per pool); clampNonNegative
	// applies them at the use sites.
	if c.QueueLimit == 0 {
		c.QueueLimit = 16
	}
	if c.Retain == 0 {
		c.Retain = 1024
	}
	// Loopback by default: without a WorkerToken the worker handshake
	// accepts any dialer, so a distributed manager must not listen on all
	// interfaces unless the caller asked for it explicitly (DESIGN.md §8).
	if c.Workers > 0 && c.WorkerListen == "" {
		c.WorkerListen = "127.0.0.1:0"
	}
	if c.Retry.Max > 0 && c.Retry.Backoff <= 0 {
		c.Retry.Backoff = 250 * time.Millisecond
	}
	if c.Pools <= 0 {
		c.Pools = 1
	}
	if c.TenantQPS > 0 && c.TenantBurst <= 0 {
		c.TenantBurst = int(c.TenantQPS) + 1
	}
	if c.Clock == nil {
		c.Clock = vtime.Wall()
	}
	return c
}

// clampNonNegative reads a config bound whose negative sentinel means
// "disabled" (QueueLimit, Retain): any negative value acts as zero.
func clampNonNegative(n int) int {
	if n < 0 {
		return 0
	}
	return n
}

// JobState is a job's position in its lifecycle.
type JobState string

const (
	// StateQueued: accepted, waiting for a free slot.
	StateQueued JobState = "queued"
	// StateRunning: playing on a pool slot.
	StateRunning JobState = "running"
	// StateDone: completed. Stopped marks a deadline-truncated result.
	StateDone JobState = "done"
	// StateCancelled: cancelled before completion (partial result kept).
	StateCancelled JobState = "cancelled"
	// StateFailed: rejected by the pool (bad config, pool shut down).
	StateFailed JobState = "failed"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateCancelled || s == StateFailed
}

// JobStatus is a point-in-time snapshot of a job: its spec, lifecycle
// state, streaming progress while running, and the result once terminal.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	Spec  JobSpec  `json:"spec"`

	// Steps / BestScore / Sequence stream the search's progress: the root
	// game so far and the best lower-level evaluation backing its latest
	// move. On a terminal job they hold the final result.
	Steps     int         `json:"steps"`
	BestScore float64     `json:"best_score"`
	Sequence  []game.Move `json:"sequence,omitempty"`

	// Score is the final score; valid once State is terminal.
	Score float64 `json:"score"`
	// Stopped marks a result truncated by cancellation or deadline.
	Stopped bool `json:"stopped,omitempty"`
	// Rollouts / WorkUnits are the job's client-rollout count and metered
	// work, filled on completion.
	Rollouts  int64 `json:"rollouts"`
	WorkUnits int64 `json:"work_units"`
	// Regranted counts candidate grants this job lost to worker crashes
	// and had re-queued (distributed pools only). Nonzero means the job
	// rode out worker churn; the result is unaffected.
	Regranted int64 `json:"regranted,omitempty"`
	// Retries counts how many times the service re-ran this job after a
	// pool failure (Config.Retry); the final result carries the original
	// seed and spec, so a retried success is bit-identical to an
	// undisturbed one.
	Retries int `json:"retries,omitempty"`
	// Degraded marks a job that ran (or failed) on a pool shrunken by
	// permanent worker loss. Like Regranted it reports capacity, not
	// correctness.
	Degraded bool `json:"degraded,omitempty"`

	// Error is the failure reason of a StateFailed job.
	Error string `json:"error,omitempty"`

	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`
}

// Metrics are the service's cumulative counters plus the pool's lifetime
// instrumentation; cmd/pnmcsd renders them at GET /metrics.
type Metrics struct {
	Submitted int64 `json:"submitted"`
	Rejected  int64 `json:"rejected"` // ErrSaturated submissions
	Completed int64 `json:"completed"`
	Cancelled int64 `json:"cancelled"`
	Failed    int64 `json:"failed"`
	Retried   int64 `json:"retried"` // pool-failure re-runs (Config.Retry)
	Running   int   `json:"running"`
	Queued    int   `json:"queued"`
	Slots     int   `json:"slots"`

	Pool parallel.PoolMetrics `json:"pool"`
}

// ErrSaturated is returned by Submit when every slot is busy and the
// waiting queue is full. The caller should retry later (HTTP 503).
var ErrSaturated = errors.New("service: saturated: all slots busy and queue full")

// ErrClosed is returned by Submit after Shutdown has begun.
var ErrClosed = errors.New("service: shut down")

// ErrNotFound is returned for operations on unknown job ids.
var ErrNotFound = errors.New("service: no such job")

// ErrFinished is returned by Cancel on a job that already reached a
// terminal state.
var ErrFinished = errors.New("service: job already finished")

// ErrQuota is returned by Router.Submit when the submitting tenant's
// token bucket is empty (Config.TenantQPS). Unlike ErrSaturated it is a
// per-tenant verdict: other tenants are still being admitted.
// cmd/pnmcsd maps it to HTTP 429.
var ErrQuota = errors.New("service: tenant quota exhausted")

// job is the manager-internal record of one submission.
type job struct {
	status   JobStatus
	cancel   bool          // cancellation requested
	slot     int           // valid while running
	done     chan struct{} // closed when terminal
	queuePos int           // index in m.queue while queued, else -1
	// retryTimer is armed between a pool failure and the backed-off
	// re-submission; while it is non-nil the job is StateQueued but NOT
	// in m.queue (Cancel and Shutdown must stop the timer, not splice).
	retryTimer *time.Timer
	// watchers are the live Watch subscriptions: cap-1 channels carrying
	// the latest status snapshot (stale intermediates are coalesced away
	// under m.mu). All closed when the job turns terminal.
	watchers []chan JobStatus
}

// Manager is the concurrent search service. Create with New, submit with
// Submit, and tear down with Shutdown. All methods are safe for
// concurrent use.
type Manager struct {
	cfg  Config
	pool *parallel.Pool

	// clock meters every JobStatus timestamp and epoch anchors its
	// readings to wall time: a timestamp is epoch + clock.Now(). With the
	// default wall clock that is ordinary wall time; with an injected
	// virtual clock, timestamps advance exactly when the test advances it.
	clock vtime.Clock
	epoch time.Time

	mu        sync.Mutex
	jobs      map[string]*job
	terminal  []string // terminal job ids, oldest first, for Retain eviction
	queue     []*job
	freeSlots []int
	closed    bool
	drained   chan struct{} // closed when the first Shutdown finishes
	// nextID advances by idStride per submission: a Router gives each of
	// its N pools a distinct start in [1, N] and stride N, so job ids are
	// globally unique and still sort by submission order pool-locally.
	nextID   int64
	idStride int64
	// seedBase/seedCtr derive default seeds for unset-seed jobs: one
	// startup draw (or Config.SeedBase) folded with a private counter.
	// Unlike the clock-per-submission scheme this replaced, burst
	// submissions landing in the same nanosecond tick cannot collide.
	seedBase uint64
	seedCtr  uint64

	submitted, rejected, completed, cancelled, failed, retried int64

	// retryRng jitters retry-backoff delays. Guarded by m.mu (retryDelay
	// runs under it); a manager-private source instead of the global
	// math/rand both removes the global lock from the retry path and makes
	// the backoff schedule reproducible under Config.RetrySeed.
	retryRng *rng.Rand
	// after arms the retry-backoff timer; time.AfterFunc outside tests,
	// which inject a zero-delay variant to run the retry path without
	// real sleeps.
	after func(time.Duration, func()) *time.Timer
}

// startupEntropy decorrelates seed draws of managers created within the
// same clock tick: every draw folds the nanosecond clock with a
// process-wide counter, so two pools built back-to-back (exactly what
// NewRouter does) never share a default-seed stream or retry-jitter
// schedule even when the clock has not advanced between them.
var startupEntropy atomic.Uint64

func startupSeed() uint64 {
	return rng.Fold(uint64(time.Now().UnixNano()), startupEntropy.Add(1))
}

// New builds the worker pool — in-process goroutines by default, a
// distributed coordinator when Config.Workers is set — and returns an
// idle Manager owning one pool. For a sharded, quota-governed service
// plane spanning several pools, use NewRouter.
func New(cfg Config) (*Manager, error) {
	return newManager(cfg, 1, 1)
}

// newManager is New with explicit job-id numbering: ids are
// "job-(idStart + n*idStride)". A Router spreads its pools across
// disjoint residues so ids stay globally unique without coordination.
func newManager(cfg Config, idStart, idStride int64) (*Manager, error) {
	cfg = cfg.withDefaults()
	if cfg.Evaluator != "" && !game.HasEvaluator(cfg.Evaluator) {
		return nil, fmt.Errorf("service: unknown default evaluator %q (registered: %v)",
			cfg.Evaluator, game.EvaluatorNames())
	}
	if cfg.Speculate > parallel.MaxSpeculate {
		return nil, fmt.Errorf("service: default speculate %d exceeds limit %d", cfg.Speculate, parallel.MaxSpeculate)
	}
	pcfg := parallel.PoolConfig{
		Slots:       cfg.Slots,
		Medians:     cfg.Medians,
		Clients:     cfg.Clients,
		CacheMB:     cfg.CacheMB,
		CacheVerify: cfg.CacheVerify,
	}
	var pool *parallel.Pool
	var err error
	if cfg.Workers > 0 {
		pool, err = parallel.NewNetPool(pcfg, parallel.NetPoolConfig{
			Listen:       cfg.WorkerListen,
			Workers:      cfg.Workers,
			Token:        cfg.WorkerToken,
			Degrade:      cfg.Degrade,
			MinWorkers:   cfg.MinWorkers,
			ReplaceGrace: cfg.ReplaceGrace,
			PendingLimit: cfg.PendingLimit,
		})
	} else {
		pool, err = parallel.NewPool(pcfg)
	}
	if err != nil {
		return nil, err
	}
	seed := cfg.RetrySeed
	if seed == 0 {
		// A raw UnixNano here would hand two managers built in the same
		// tick identical jitter schedules; the entropy counter breaks the
		// tie.
		seed = startupSeed()
	}
	seedBase := cfg.SeedBase
	if seedBase == 0 {
		seedBase = startupSeed()
	}
	m := &Manager{
		cfg:      cfg,
		pool:     pool,
		clock:    cfg.Clock,
		epoch:    time.Now(),
		jobs:     make(map[string]*job),
		drained:  make(chan struct{}),
		nextID:   idStart - idStride,
		idStride: idStride,
		seedBase: seedBase,
		retryRng: rng.New(seed),
		after:    time.AfterFunc,
	}
	for s := cfg.Slots - 1; s >= 0; s-- {
		m.freeSlots = append(m.freeSlots, s)
	}
	return m, nil
}

// now is the timestamp source for JobStatus fields: the manager's epoch
// advanced by the injected clock's reading.
func (m *Manager) now() time.Time { return m.epoch.Add(m.clock.Now()) }

// nextSeedLocked hands out the next default seed for a job submitted with
// Seed == 0: the startup base folded with a monotonically advancing
// counter, so a burst of submissions can never repeat a seed the way the
// clock-tick scheme this replaced could (the counter advances even when
// the clock does not; residual collisions are the 2^-64 hash kind, not
// the same-nanosecond kind). 0 — the "unset" sentinel — is skipped so an
// assigned seed always round-trips through the spec. Caller holds m.mu.
func (m *Manager) nextSeedLocked() uint64 {
	for {
		m.seedCtr++
		if s := rng.Fold(m.seedBase, m.seedCtr); s != 0 {
			return s
		}
	}
}

// finishLocked records a job's transition to a terminal state: closes its
// done channel, delivers the final snapshot to every watcher and closes
// them, and evicts the oldest terminal jobs beyond Config.Retain. Caller
// holds m.mu and has already set the terminal status.
func (m *Manager) finishLocked(j *job) {
	close(j.done)
	m.notifyLocked(j)
	for _, ch := range j.watchers {
		close(ch)
	}
	j.watchers = nil
	m.terminal = append(m.terminal, j.status.ID)
	for len(m.terminal) > clampNonNegative(m.cfg.Retain) {
		delete(m.jobs, m.terminal[0])
		m.terminal = m.terminal[:copy(m.terminal, m.terminal[1:])]
	}
}

// notifyLocked pushes the job's current snapshot to every watcher,
// latest-wins: a watcher that has not drained the previous snapshot has
// it replaced rather than queued behind (the stream is a state feed, not
// an event log — only the freshest state and the terminal state matter).
// Caller holds m.mu; all sends happen under it, so after draining the
// cap-1 buffer the re-send cannot block.
func (m *Manager) notifyLocked(j *job) {
	for _, ch := range j.watchers {
		snap := snapshotLocked(j)
		select {
		case ch <- snap:
		default:
			select {
			case <-ch:
			default:
			}
			ch <- snap
		}
	}
}

// Watch subscribes to a job's status stream: the returned channel carries
// the current snapshot immediately, then a fresh snapshot on every state
// or progress change (intermediates coalesced, latest wins), and is
// closed after the terminal snapshot is delivered. The cancel function
// detaches the subscription; it is safe to call at any point, any number
// of times. Watching an already-terminal job yields its final status and
// an immediately closed channel. cmd/pnmcsd streams this channel as the
// GET /v1/jobs/{id}/events response.
func (m *Manager) Watch(id string) (<-chan JobStatus, func(), error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, nil, ErrNotFound
	}
	ch := make(chan JobStatus, 1)
	ch <- snapshotLocked(j)
	if j.status.State.Terminal() {
		close(ch)
		return ch, func() {}, nil
	}
	j.watchers = append(j.watchers, ch)
	cancel := func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		for i, w := range j.watchers {
			if w == ch {
				j.watchers = append(j.watchers[:i], j.watchers[i+1:]...)
				return
			}
		}
	}
	return ch, cancel, nil
}

// Load is the number of admitted, non-terminal jobs — occupied slots plus
// the waiting queue. It is the cheap signal the Router ranks pools by;
// unlike Metrics it never walks the retained-job map.
func (m *Manager) Load() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return (m.cfg.Slots - len(m.freeSlots)) + len(m.queue)
}

// Submit accepts a job for execution and returns its id without waiting
// for it to run. The spec is validated up front (invalid specs are
// rejected synchronously, not recorded as failed jobs). When every slot
// is busy and the queue is full, Submit returns ErrSaturated.
//
// A spec with Seed == 0 is treated as unseeded: the manager assigns it
// the next seed of a private counter-derived stream (distinct across a
// burst of submissions, unlike the clock tick this replaced) and records
// the assignment in the job's status, keeping every result reproducible.
// Callers that want the literal behaviour of a fixed seed set one.
//
// ctx bounds the job's whole lifetime: if it is cancelled while the job
// is queued or running, the job is cancelled as by Cancel. Use
// context.Background for fire-and-forget submissions.
func (m *Manager) Submit(ctx context.Context, spec JobSpec) (string, error) {
	if _, err := spec.Config(); err != nil {
		return "", err
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return "", ErrClosed
	}
	if len(m.freeSlots) == 0 && len(m.queue) >= clampNonNegative(m.cfg.QueueLimit) {
		m.rejected++
		m.mu.Unlock()
		return "", ErrSaturated
	}
	m.nextID += m.idStride
	m.submitted++
	if spec.Seed == 0 {
		// Unset seed: assign one from the manager-private counter stream
		// and record it in the job's spec, so the status always names the
		// seed that reproduces the result (solo, or resubmitted).
		spec.Seed = m.nextSeedLocked()
	}
	j := &job{
		status: JobStatus{
			ID:        fmt.Sprintf("job-%d", m.nextID),
			State:     StateQueued,
			Spec:      spec,
			Submitted: m.now(),
		},
		slot:     -1,
		queuePos: -1,
		done:     make(chan struct{}),
	}
	m.jobs[j.status.ID] = j
	if len(m.freeSlots) > 0 {
		m.dispatchLocked(j)
	} else {
		j.queuePos = len(m.queue)
		m.queue = append(m.queue, j)
	}
	m.mu.Unlock()

	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				m.Cancel(j.status.ID) //nolint:errcheck // racing completion is fine
			case <-j.done:
			}
		}()
	}
	return j.status.ID, nil
}

// dispatchLocked moves a job onto a free slot. Caller holds m.mu.
func (m *Manager) dispatchLocked(j *job) {
	slot := m.freeSlots[len(m.freeSlots)-1]
	m.freeSlots = m.freeSlots[:len(m.freeSlots)-1]
	j.slot = slot
	j.queuePos = -1
	j.status.State = StateRunning
	j.status.Started = m.now()
	m.notifyLocked(j)
	go m.run(j, slot)
}

// run executes one job on its slot and then hands the slot to the next
// queued job. Runs on its own goroutine.
func (m *Manager) run(j *job, slot int) {
	cfg, err := j.status.Spec.Config()
	if err == nil && j.status.Spec.Evaluator == "" {
		// Service-default evaluator overlay. Keyed on the spec, not the
		// translated config: a spec saying "uniform" arrives here with an
		// empty cfg.Evaluator too, and must stay uniform.
		cfg.Evaluator = m.cfg.Evaluator
	}
	if err == nil && cfg.Speculate == 0 {
		// Service-default speculation overlay; a negative spec width
		// stays, and the pool reads it as off.
		cfg.Speculate = m.cfg.Speculate
	}
	var res parallel.Result
	if err == nil {
		// The start races cancellation: both sides serialize on m.mu, so
		// either the cancel came first (skip — the job never runs) or the
		// job is started before Cancel calls pool.CancelJob, which then
		// observes the busy slot and lands. No cancellation is lost.
		var h *parallel.JobHandle
		m.mu.Lock()
		if j.cancel {
			res.Stopped = true
		} else {
			h, err = m.pool.StartJob(slot, cfg, func(p parallel.Progress) {
				m.mu.Lock()
				j.status.Steps = p.Steps
				j.status.BestScore = p.BestScore
				j.status.Sequence = p.Sequence
				m.notifyLocked(j)
				m.mu.Unlock()
			})
		}
		m.mu.Unlock()
		if h != nil {
			res, err = h.Wait()
		}
	}

	m.mu.Lock()
	if err != nil && !j.cancel && !m.closed && j.status.Retries < m.cfg.Retry.Max {
		// The pool failed the job (degradation fail-fast, worker floor):
		// re-run it after a jittered backoff under its original spec and
		// seed — a retried success is bit-identical to an undisturbed
		// one. The job goes back to StateQueued but stays out of m.queue
		// while the timer runs; Cancel and Shutdown key on retryTimer.
		j.status.Retries++
		m.retried++
		j.slot = -1
		j.status.State = StateQueued
		j.status.Error = err.Error() // last failure, visible while waiting
		j.status.Degraded = res.Degraded
		j.retryTimer = m.after(m.retryDelayLocked(j.status.Retries), func() { m.requeue(j) })
		m.notifyLocked(j)
		m.freeSlots = append(m.freeSlots, slot)
		m.serveQueueLocked()
		m.mu.Unlock()
		return
	}
	j.status.Finished = m.now()
	j.status.Steps = res.Steps
	j.status.Sequence = res.Sequence
	j.status.Score = res.Score
	j.status.BestScore = res.Score
	j.status.Stopped = res.Stopped
	j.status.Rollouts = res.Jobs
	j.status.WorkUnits = res.WorkUnits
	j.status.Regranted = res.Regranted
	j.status.Degraded = res.Degraded
	switch {
	case err != nil:
		j.status.State = StateFailed
		j.status.Error = err.Error()
		m.failed++
	case res.Stopped && j.cancel:
		j.status.State = StateCancelled
		m.cancelled++
	default:
		// Deadline-stopped jobs are done: the deadline is part of the
		// spec, and the partial result is the answer it asked for.
		j.status.State = StateDone
		m.completed++
	}
	m.finishLocked(j)

	m.freeSlots = append(m.freeSlots, slot)
	m.serveQueueLocked()
	m.mu.Unlock()
}

// serveQueueLocked dispatches queued jobs onto free slots. Caller holds
// m.mu.
func (m *Manager) serveQueueLocked() {
	for len(m.queue) > 0 && len(m.freeSlots) > 0 {
		next := m.queue[0]
		m.queue = m.queue[:copy(m.queue, m.queue[1:])]
		for i, q := range m.queue {
			q.queuePos = i
		}
		m.dispatchLocked(next)
	}
}

// retryDelayLocked is the backoff before re-running a failed job: Backoff
// doubled per attempt, capped at 30s, with full jitter in [d/2, d] drawn
// from the manager's private source. Caller holds m.mu, which guards
// retryRng.
func (m *Manager) retryDelayLocked(attempt int) time.Duration {
	shift := attempt - 1
	if shift > 10 {
		shift = 10
	}
	d := m.cfg.Retry.Backoff << shift
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	half := d / 2
	return half + time.Duration(m.retryRng.Uint64n(uint64(half)+1))
}

// requeue moves a retry-waiting job back into dispatch when its backoff
// timer fires. A Cancel or Shutdown that beat the timer has already made
// the job terminal, which the state check detects.
func (m *Manager) requeue(j *job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j.retryTimer == nil || j.status.State != StateQueued || m.closed || j.cancel {
		return
	}
	j.retryTimer = nil
	if len(m.freeSlots) > 0 {
		m.dispatchLocked(j)
	} else {
		j.queuePos = len(m.queue)
		m.queue = append(m.queue, j)
	}
}

// WorkerAddr returns the address pnmcs-worker processes dial, or "" when
// the pool is in-process.
func (m *Manager) WorkerAddr() string { return m.pool.WorkerAddr() }

// Draining reports whether Shutdown has begun (submissions are refused
// while running jobs drain) — the readiness signal behind /readyz.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// Get returns a snapshot of the job's status.
func (m *Manager) Get(id string) (JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobStatus{}, ErrNotFound
	}
	return snapshotLocked(j), nil
}

// snapshotLocked deep-copies the mutable slice so callers can hold the
// status across the lock.
func snapshotLocked(j *job) JobStatus {
	st := j.status
	st.Sequence = append([]game.Move(nil), st.Sequence...)
	return st
}

// Jobs returns a snapshot of every job the manager knows, newest last.
func (m *Manager) Jobs() []JobStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobStatus, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, snapshotLocked(j))
	}
	sortStatuses(out)
	return out
}

// sortStatuses orders by numeric id suffix (submission order).
func sortStatuses(s []JobStatus) {
	sort.Slice(s, func(i, k int) bool { return idNum(s[i].ID) < idNum(s[k].ID) })
}

func idNum(id string) int64 {
	var n int64
	fmt.Sscanf(id, "job-%d", &n) //nolint:errcheck // malformed ids sort first
	return n
}

// Cancel stops a queued or running job. A queued job is removed from the
// queue and terminal immediately; a running job drains its in-flight
// rollouts and completes with State cancelled. Cancelling a terminal job
// returns ErrFinished.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return ErrNotFound
	}
	if j.status.State.Terminal() {
		m.mu.Unlock()
		return ErrFinished
	}
	if j.cancel {
		m.mu.Unlock()
		return nil // already being cancelled
	}
	j.cancel = true
	switch j.status.State {
	case StateQueued:
		if j.retryTimer != nil {
			// Retry-waiting: the job is queued in name only — stop the
			// backoff timer instead of splicing m.queue (it is not there).
			j.retryTimer.Stop()
			j.retryTimer = nil
		} else {
			m.queue = append(m.queue[:j.queuePos], m.queue[j.queuePos+1:]...)
			for i, q := range m.queue {
				q.queuePos = i
			}
		}
		j.queuePos = -1
		j.status.State = StateCancelled
		j.status.Finished = m.now()
		j.status.Stopped = true
		m.cancelled++
		m.finishLocked(j)
	case StateRunning:
		m.pool.CancelJob(j.slot)
	}
	m.mu.Unlock()
	return nil
}

// Wait blocks until the job reaches a terminal state (or ctx is done) and
// returns its final status.
func (m *Manager) Wait(ctx context.Context, id string) (JobStatus, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return JobStatus{}, ErrNotFound
	}
	select {
	case <-j.done:
		return m.Get(id)
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
}

// Metrics snapshots the service counters and the pool instrumentation.
func (m *Manager) Metrics() Metrics {
	m.mu.Lock()
	running := 0
	for _, j := range m.jobs {
		if j.status.State == StateRunning {
			running++
		}
	}
	out := Metrics{
		Submitted: m.submitted,
		Rejected:  m.rejected,
		Completed: m.completed,
		Cancelled: m.cancelled,
		Failed:    m.failed,
		Retried:   m.retried,
		Running:   running,
		Queued:    len(m.queue),
		Slots:     m.cfg.Slots,
	}
	m.mu.Unlock()
	out.Pool = m.pool.Metrics()
	return out
}

// Shutdown drains the service and tears the pool down. New submissions
// are refused with ErrClosed immediately; queued jobs are cancelled;
// running jobs are left to finish until ctx is done, then cancelled (they
// still drain their in-flight rollouts — the pool is never dismantled
// with work in flight). Blocks until every job is terminal and the pool
// has exited. Returns ctx.Err() when the deadline forced the drain.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		// A concurrent Shutdown already owns the drain: wait for it to
		// finish rather than tearing the pool down under its feet (which
		// would force-cancel jobs the first caller's budget still allows
		// to complete).
		<-m.drained
		return nil
	}
	m.closed = true
	var waiting []*job
	// Retry-waiting jobs are StateQueued but outside m.queue, parked on a
	// backoff timer with no goroutine to close their done channel: cancel
	// them here or the drain below would wait forever.
	for _, j := range m.jobs {
		if j.retryTimer == nil {
			continue
		}
		j.retryTimer.Stop()
		j.retryTimer = nil
		j.cancel = true
		j.status.State = StateCancelled
		j.status.Finished = m.now()
		j.status.Stopped = true
		m.cancelled++
		m.finishLocked(j)
	}
	for len(m.queue) > 0 {
		j := m.queue[len(m.queue)-1]
		m.queue = m.queue[:len(m.queue)-1]
		j.queuePos = -1
		j.cancel = true
		j.status.State = StateCancelled
		j.status.Finished = m.now()
		j.status.Stopped = true
		m.cancelled++
		m.finishLocked(j)
	}
	for _, j := range m.jobs {
		if !j.status.State.Terminal() {
			waiting = append(waiting, j)
		}
	}
	m.mu.Unlock()

	forced := false
	for _, j := range waiting {
		select {
		case <-j.done:
			continue
		case <-ctx.Done():
		}
		// Deadline passed: force the remaining jobs to drain.
		forced = true
		m.mu.Lock()
		for _, k := range waiting {
			if k.status.State == StateRunning && !k.cancel {
				k.cancel = true
				m.pool.CancelJob(k.slot)
			}
		}
		m.mu.Unlock()
		break
	}
	for _, j := range waiting {
		<-j.done
	}
	m.pool.Shutdown()
	close(m.drained)
	if forced {
		return ctx.Err()
	}
	return nil
}
