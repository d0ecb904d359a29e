package service

// The sharded service plane. The paper's speedup argument (§IV–V)
// assumes the coordinator never becomes the bottleneck; a single
// Manager — one pool, one scheduler, one mutex — is exactly that
// bottleneck at serving scale. A Router spreads jobs across N fully
// independent pools (each with its own slots, medians, clients, cache
// and queue) behind one admission layer, so service capacity scales
// linearly in N while every per-job property is untouched: routing is
// placement, never semantics, and a job's result is bit-identical on 1
// pool or N (pinned by TestRouterEquivalence and the loadgen CI smoke).
//
// Admission is layered, outermost first:
//
//  1. per-tenant token-bucket quotas (Config.TenantQPS/TenantBurst):
//     a tenant over its rate is shed with ErrQuota (HTTP 429) before
//     the job touches any pool — one tenant's burst cannot displace
//     another tenant's steady traffic;
//  2. least-loaded placement with saturation spillover: the job goes
//     to the pool with the fewest admitted non-terminal jobs, falling
//     through to the next-least-loaded when a pool answers
//     ErrSaturated;
//  3. the per-pool bounded queue (Config.QueueLimit): only when every
//     pool is saturated does the Router itself return ErrSaturated
//     (HTTP 503) — the service plane as a whole sheds load instead of
//     buffering unboundedly.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/rng"
	"repro/internal/vtime"
)

// maxTenantBuckets bounds the quota table: beyond it the stalest bucket
// (oldest refill) is evicted on the next unseen tenant, so an adversary
// minting tenant names cannot grow Router memory without bound. An
// evicted tenant that returns simply starts from a full bucket again.
const maxTenantBuckets = 4096

// Router is the sharded, quota-governed service plane: N independent
// Managers behind one Submit. It exposes the Manager surface — ids are
// globally unique across pools, so callers never see the sharding —
// plus per-pool and per-tenant observability. All methods are safe for
// concurrent use.
type Router struct {
	cfg   Config
	pools []*Manager
	clock vtime.Clock

	mu      sync.Mutex
	buckets map[string]*tokenBucket
	shed    map[string]int64 // per-tenant quota sheds
	shedSum int64
	rr      int // round-robin tie-break cursor for equal loads
}

// tokenBucket is one tenant's admission state: a continuously refilling
// budget capped at the burst. Guarded by Router.mu.
type tokenBucket struct {
	tokens float64
	last   time.Duration // clock reading at the last refill
}

// NewRouter builds Config.Pools independent pools behind one admission
// layer. With Pools <= 1 the Router wraps a single Manager and behaves
// exactly like it (plus quotas, when configured) — cmd/pnmcsd always
// serves through a Router for that reason. Distributed workers
// (Config.Workers > 0) require a single pool: the worker handshake
// assigns rank ranges from one coordinator listener.
func NewRouter(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if cfg.Pools > 1 && cfg.Workers > 0 {
		return nil, fmt.Errorf("service: %d pools with %d external workers: a distributed rank world has exactly one coordinator (run pools=1, or in-process pools)", cfg.Pools, cfg.Workers)
	}
	pools := make([]*Manager, cfg.Pools)
	for i := range pools {
		pc := cfg
		pc.Pools = 1
		// Reproducible configs stay reproducible per pool without the
		// pools sharing one default-seed or jitter stream.
		if pc.SeedBase != 0 {
			pc.SeedBase = rng.Fold(pc.SeedBase, uint64(i)+1)
		}
		if pc.RetrySeed != 0 {
			pc.RetrySeed = rng.Fold(pc.RetrySeed, uint64(i)+1)
		}
		m, err := newManager(pc, int64(i)+1, int64(cfg.Pools))
		if err != nil {
			for _, built := range pools[:i] {
				built.pool.Shutdown()
			}
			return nil, err
		}
		pools[i] = m
	}
	return &Router{
		cfg:     cfg,
		pools:   pools,
		clock:   cfg.Clock,
		buckets: make(map[string]*tokenBucket),
		shed:    make(map[string]int64),
	}, nil
}

// Pools reports the shard count.
func (r *Router) Pools() int { return len(r.pools) }

// Pool returns shard i's Manager, for callers that need per-pool
// introspection (the /v1/pools endpoint, tests).
func (r *Router) Pool(i int) *Manager { return r.pools[i] }

// Submit admits a job through the quota and placement layers and returns
// its globally unique id. Sheds with ErrQuota when the tenant's bucket
// is empty and with ErrSaturated when every pool's queue is full; both
// are pre-queue verdicts — a shed submission holds no resources.
func (r *Router) Submit(ctx context.Context, spec JobSpec) (string, error) {
	if _, err := spec.Config(); err != nil {
		return "", err // invalid specs are rejected before charging quota
	}
	if r.cfg.TenantQPS > 0 && !r.admit(spec.Tenant) {
		return "", fmt.Errorf("%w (tenant %q)", ErrQuota, spec.Tenant)
	}
	var lastErr error
	for _, m := range r.ranked() {
		id, err := m.Submit(ctx, spec)
		if errors.Is(err, ErrSaturated) {
			lastErr = err
			continue // spill over to the next-least-loaded pool
		}
		return id, err
	}
	if lastErr == nil {
		lastErr = ErrSaturated
	}
	return "", lastErr
}

// admit charges one token from the tenant's bucket, refilling it first
// from the elapsed clock time. Returns false — and counts the shed —
// when the bucket is empty.
func (r *Router) admit(tenant string) bool {
	now := r.clock.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.buckets[tenant]
	if b == nil {
		if len(r.buckets) >= maxTenantBuckets {
			r.evictStalestLocked()
		}
		b = &tokenBucket{tokens: float64(r.cfg.TenantBurst), last: now}
		r.buckets[tenant] = b
	}
	if dt := now - b.last; dt > 0 {
		b.tokens += r.cfg.TenantQPS * dt.Seconds()
		if burst := float64(r.cfg.TenantBurst); b.tokens > burst {
			b.tokens = burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	r.shed[tenant]++
	r.shedSum++
	return false
}

// evictStalestLocked drops the bucket with the oldest refill — the
// tenant silent the longest, whose bucket is the most certainly full
// (losing it costs nothing: a fresh bucket starts full too). Caller
// holds r.mu; only runs when the table is at its bound.
func (r *Router) evictStalestLocked() {
	var stalest string
	var oldest time.Duration
	first := true
	for t, b := range r.buckets {
		if first || b.last < oldest {
			stalest, oldest, first = t, b.last, false
		}
	}
	delete(r.buckets, stalest)
	delete(r.shed, stalest)
}

// ranked orders the pools by ascending Load, breaking ties with a
// rotating cursor so equally idle pools share work instead of pool 0
// absorbing every burst.
func (r *Router) ranked() []*Manager {
	if len(r.pools) == 1 {
		return r.pools
	}
	r.mu.Lock()
	start := r.rr
	r.rr++
	r.mu.Unlock()
	type ranked struct {
		m    *Manager
		load int
		ord  int
	}
	rs := make([]ranked, len(r.pools))
	for i, m := range r.pools {
		rs[i] = ranked{m: m, load: m.Load(), ord: (i + start) % len(r.pools)}
	}
	sort.Slice(rs, func(a, b int) bool {
		if rs[a].load != rs[b].load {
			return rs[a].load < rs[b].load
		}
		return rs[a].ord < rs[b].ord
	})
	out := make([]*Manager, len(rs))
	for i, p := range rs {
		out[i] = p.m
	}
	return out
}

// find locates the pool owning id. Pool counts are small (the ids are
// stride-partitioned, but scanning keeps the Router stateless about
// placement — nothing to leak when Retain evicts a job).
func (r *Router) find(id string) (*Manager, error) {
	for _, m := range r.pools {
		if _, err := m.Get(id); err == nil {
			return m, nil
		}
	}
	return nil, ErrNotFound
}

// Get returns a snapshot of the job's status.
func (r *Router) Get(id string) (JobStatus, error) {
	for _, m := range r.pools {
		if st, err := m.Get(id); err == nil {
			return st, nil
		}
	}
	return JobStatus{}, ErrNotFound
}

// Cancel stops a queued or running job, wherever it was placed.
func (r *Router) Cancel(id string) error {
	m, err := r.find(id)
	if err != nil {
		return err
	}
	return m.Cancel(id)
}

// Wait blocks until the job is terminal (or ctx is done) and returns its
// final status.
func (r *Router) Wait(ctx context.Context, id string) (JobStatus, error) {
	m, err := r.find(id)
	if err != nil {
		return JobStatus{}, err
	}
	return m.Wait(ctx, id)
}

// Watch subscribes to the job's status stream (see Manager.Watch).
func (r *Router) Watch(id string) (<-chan JobStatus, func(), error) {
	m, err := r.find(id)
	if err != nil {
		return nil, nil, err
	}
	return m.Watch(id)
}

// Jobs merges every pool's job listing, ordered by numeric id
// (pool-local submission order; interleaving across pools follows the
// stride partition).
func (r *Router) Jobs() []JobStatus {
	var out []JobStatus
	for _, m := range r.pools {
		out = append(out, m.Jobs()...)
	}
	sortStatuses(out)
	return out
}

// Draining reports whether Shutdown has begun.
func (r *Router) Draining() bool { return r.pools[0].Draining() }

// WorkerAddr returns the distributed pool's worker dial address ("" for
// in-process pools; multi-pool routers are always in-process).
func (r *Router) WorkerAddr() string { return r.pools[0].WorkerAddr() }

// Shutdown drains every pool concurrently (each refuses new submissions
// immediately) and returns the first forced-drain error, if any.
func (r *Router) Shutdown(ctx context.Context) error {
	errs := make([]error, len(r.pools))
	var wg sync.WaitGroup
	for i, m := range r.pools {
		wg.Add(1)
		go func(i int, m *Manager) {
			defer wg.Done()
			errs[i] = m.Shutdown(ctx)
		}(i, m)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// PoolStatus is one shard's slice of RouterMetrics: the pool's service
// counters plus its derived utilization.
type PoolStatus struct {
	Pool    int     `json:"pool"`
	Metrics Metrics `json:"metrics"`
	// Utilization is running/slots in [0,1] — the instantaneous busy
	// fraction pnmcs-loadgen samples into its per-pool trend.
	Utilization float64 `json:"utilization"`
}

// RouterMetrics aggregates the service counters across every pool and
// carries the per-pool breakdown plus the admission layer's shed
// accounting. The embedded Metrics sums counters and capacity over the
// pools; its Pool field folds the pools' instrumentation (counter sums,
// max of maxima, concatenated per-rank idle series).
type RouterMetrics struct {
	Metrics
	PerPool []PoolStatus `json:"pools"`
	// TenantShed counts submissions shed by per-tenant quotas (ErrQuota;
	// distinct from Rejected, the queue-full ErrSaturated sheds).
	TenantShed int64 `json:"tenant_shed"`
	// TenantSheds breaks TenantShed down by tenant (bounded like the
	// bucket table).
	TenantSheds map[string]int64 `json:"tenant_sheds,omitempty"`
	// Tenants is the number of tenant buckets currently tracked.
	Tenants int `json:"tenants"`
}

// Metrics snapshots the aggregated counters, the per-pool breakdown and
// the quota ledger.
func (r *Router) Metrics() RouterMetrics {
	out := RouterMetrics{PerPool: make([]PoolStatus, len(r.pools))}
	for i, m := range r.pools {
		pm := m.Metrics()
		util := 0.0
		if pm.Slots > 0 {
			util = float64(pm.Running) / float64(pm.Slots)
		}
		out.PerPool[i] = PoolStatus{Pool: i, Metrics: pm, Utilization: util}
		out.Metrics = foldMetrics(out.Metrics, pm, i == 0)
	}
	r.mu.Lock()
	out.TenantShed = r.shedSum
	out.Tenants = len(r.buckets)
	if len(r.shed) > 0 {
		out.TenantSheds = make(map[string]int64, len(r.shed))
		for t, n := range r.shed {
			out.TenantSheds[t] = n
		}
	}
	r.mu.Unlock()
	return out
}

// foldMetrics accumulates one pool's metrics into the aggregate: service
// counters and capacity sum; pool instrumentation sums its counters,
// takes the max of maxima, averages the means and concatenates the
// per-rank idle series (the shard of a rank is part of its identity via
// position in the concatenation). With one pool the aggregate is exactly
// that pool's Metrics.
func foldMetrics(acc, pm Metrics, first bool) Metrics {
	if first {
		return pm
	}
	acc.Submitted += pm.Submitted
	acc.Rejected += pm.Rejected
	acc.Completed += pm.Completed
	acc.Cancelled += pm.Cancelled
	acc.Failed += pm.Failed
	acc.Retried += pm.Retried
	acc.Running += pm.Running
	acc.Queued += pm.Queued
	acc.Slots += pm.Slots

	p, q := &acc.Pool, &pm.Pool
	p.Jobs += q.Jobs
	p.WorkUnits += q.WorkUnits
	p.Chunks += q.Chunks
	p.MedianIdle = append(p.MedianIdle, q.MedianIdle...)
	p.ClientIdle = append(p.ClientIdle, q.ClientIdle...)
	if q.QueueDepthMax > p.QueueDepthMax {
		p.QueueDepthMax = q.QueueDepthMax
	}
	p.QueueDepthMean = (p.QueueDepthMean + q.QueueDepthMean) / 2
	p.WorkersLost += q.WorkersLost
	p.WorkersRejoined += q.WorkersRejoined
	p.Regranted += q.Regranted
	p.Speculated += q.Speculated
	p.SpecWasted += q.SpecWasted
	p.StepCount += q.StepCount
	p.StepLatencySum += q.StepLatencySum
	if q.StepLatencyMax > p.StepLatencyMax {
		p.StepLatencyMax = q.StepLatencyMax
	}
	p.WorkersAbandoned += q.WorkersAbandoned
	p.Degraded = p.Degraded || q.Degraded
	p.Failed = p.Failed || q.Failed
	p.CacheHits += q.CacheHits
	p.CacheMisses += q.CacheMisses
	p.CacheEvictions += q.CacheEvictions
	p.CacheEntries += q.CacheEntries
	p.CacheBytes += q.CacheBytes
	return acc
}
