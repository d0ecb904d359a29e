package service

// Tests of the sharded service plane: routing equivalence (placement
// never changes results), least-loaded placement with saturation
// spillover, per-tenant token-bucket admission against an injected
// clock, the counter-derived default-seed stream (the burst-collision
// regression of ISSUE 10), clock-injected JobStatus timestamps, and the
// Watch streaming feed behind GET /v1/jobs/{id}/events.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a hand-advanced vtime.Clock, safe for concurrent readers.
type fakeClock struct{ d atomic.Int64 }

func (c *fakeClock) Now() time.Duration         { return time.Duration(c.d.Load()) }
func (c *fakeClock) advance(step time.Duration) { c.d.Add(int64(step)) }
func (c *fakeClock) set(reading time.Duration)  { c.d.Store(int64(reading)) }

func newTestRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		r.Shutdown(ctx) //nolint:errcheck // best-effort teardown
	})
	return r
}

// TestRouterEquivalence is the acceptance pin of ISSUE 10: the same
// (seed, spec) mix produces exact Score/Sequence/Steps/Jobs/WorkUnits
// whether it runs on a 1-pool or a 3-pool service plane, and both match
// parallel.Reference — routing is placement, never semantics.
func TestRouterEquivalence(t *testing.T) {
	specs := mixedSpecs()
	runAll := func(r *Router) []JobStatus {
		t.Helper()
		ids := make([]string, len(specs))
		for i, spec := range specs {
			id, err := r.Submit(context.Background(), spec)
			if err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			ids[i] = id
		}
		out := make([]JobStatus, len(specs))
		for i, id := range ids {
			st, err := r.Wait(context.Background(), id)
			if err != nil {
				t.Fatalf("wait %d: %v", i, err)
			}
			if st.State != StateDone {
				t.Fatalf("job %d finished as %s (err %q)", i, st.State, st.Error)
			}
			out[i] = st
		}
		return out
	}

	single := runAll(newTestRouter(t, Config{Slots: 3, Medians: 2, Clients: 4, QueueLimit: len(specs)}))
	sharded := runAll(newTestRouter(t, Config{Pools: 3, Slots: 1, Medians: 2, Clients: 4, QueueLimit: len(specs)}))

	for i, spec := range specs {
		requireIdentical(t, spec.Domain, sharded[i], soloRun(t, spec))
		a, b := single[i], sharded[i]
		if a.Score != b.Score || a.Steps != b.Steps ||
			a.Rollouts != b.Rollouts || a.WorkUnits != b.WorkUnits {
			t.Fatalf("spec %d: 1-pool vs 3-pool diverged: score %v/%v steps %d/%d rollouts %d/%d units %d/%d",
				i, a.Score, b.Score, a.Steps, b.Steps, a.Rollouts, b.Rollouts, a.WorkUnits, b.WorkUnits)
		}
	}
}

// TestRouterIDsGloballyUnique pins the stride partition: ids minted by
// different pools never collide, and the Router surface (Get, Wait,
// Jobs) resolves each one.
func TestRouterIDsGloballyUnique(t *testing.T) {
	r := newTestRouter(t, Config{Pools: 3, Slots: 1, Medians: 1, Clients: 2, QueueLimit: 16})
	const n = 9
	seen := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		id, err := r.Submit(context.Background(), tinySpec(uint64(1+i)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if seen[id] {
			t.Fatalf("duplicate job id %s across pools", id)
		}
		seen[id] = true
		if _, err := r.Get(id); err != nil {
			t.Fatalf("get %s: %v", id, err)
		}
	}
	for id := range seen {
		if _, err := r.Wait(context.Background(), id); err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
	}
	if got := len(r.Jobs()); got != n {
		t.Fatalf("merged listing has %d jobs, want %d", got, n)
	}
	if _, err := r.Get("job-404"); err != ErrNotFound {
		t.Fatalf("unknown id: %v, want ErrNotFound", err)
	}
}

// TestRouterSpillover pins admission layer 2+3: a pool answering
// ErrSaturated spills the job to a less-loaded pool, and only when every
// pool is saturated does the Router shed with ErrSaturated.
func TestRouterSpillover(t *testing.T) {
	// Two pools, one slot each, no queue: capacity is exactly 2 running.
	r := newTestRouter(t, Config{Pools: 2, Slots: 1, Medians: 1, Clients: 2, QueueLimit: -1})
	a, err := r.Submit(context.Background(), slowSpec(1))
	if err != nil {
		t.Fatalf("first: %v", err)
	}
	b, err := r.Submit(context.Background(), slowSpec(2))
	if err != nil {
		t.Fatalf("second (spillover): %v", err)
	}
	if _, err := r.Submit(context.Background(), slowSpec(3)); !errors.Is(err, ErrSaturated) {
		t.Fatalf("third: %v, want ErrSaturated", err)
	}
	mt := r.Metrics()
	if mt.Running != 2 || mt.Slots != 2 {
		t.Fatalf("aggregate running %d slots %d, want 2/2", mt.Running, mt.Slots)
	}
	for i, ps := range mt.PerPool {
		if ps.Metrics.Running != 1 || ps.Utilization != 1 {
			t.Fatalf("pool %d: running %d utilization %v, want 1 / 1.0 (spillover broken)",
				i, ps.Metrics.Running, ps.Utilization)
		}
	}
	for _, id := range []string{a, b} {
		if err := r.Cancel(id); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTenantQuota drives the token-bucket layer against an injected
// clock: a tenant over its rate is shed with ErrQuota while other
// tenants stay admitted, and elapsed clock time refills the bucket.
func TestTenantQuota(t *testing.T) {
	clk := &fakeClock{}
	r := newTestRouter(t, Config{
		Pools: 2, Slots: 2, Medians: 1, Clients: 2, QueueLimit: 32,
		TenantQPS: 1, TenantBurst: 2, Clock: clk,
	})
	spec := func(tenant string, seed uint64) JobSpec {
		s := tinySpec(seed)
		s.Tenant = tenant
		return s
	}

	// Burst capacity: exactly TenantBurst admissions at one clock reading.
	for i := 0; i < 2; i++ {
		if _, err := r.Submit(context.Background(), spec("alice", uint64(1+i))); err != nil {
			t.Fatalf("alice burst %d: %v", i, err)
		}
	}
	if _, err := r.Submit(context.Background(), spec("alice", 3)); !errors.Is(err, ErrQuota) {
		t.Fatalf("alice over quota: %v, want ErrQuota", err)
	}
	// Another tenant is unaffected — quota is per-tenant, not global.
	if _, err := r.Submit(context.Background(), spec("bob", 4)); err != nil {
		t.Fatalf("bob while alice shed: %v", err)
	}
	// The empty tenant is a tenant like any other (no quota bypass).
	for i := 0; i < 2; i++ {
		if _, err := r.Submit(context.Background(), spec("", uint64(5+i))); err != nil {
			t.Fatalf("anonymous burst %d: %v", i, err)
		}
	}
	if _, err := r.Submit(context.Background(), spec("", 7)); !errors.Is(err, ErrQuota) {
		t.Fatalf("anonymous over quota: %v, want ErrQuota", err)
	}

	// 1 QPS: 1500ms of clock refills one whole token (capped refill math
	// covered by the burst assertions above).
	clk.advance(1500 * time.Millisecond)
	if _, err := r.Submit(context.Background(), spec("alice", 8)); err != nil {
		t.Fatalf("alice after refill: %v", err)
	}
	if _, err := r.Submit(context.Background(), spec("alice", 9)); !errors.Is(err, ErrQuota) {
		t.Fatalf("alice second after 1.5s refill: %v, want ErrQuota", err)
	}

	mt := r.Metrics()
	if mt.TenantShed != 3 {
		t.Fatalf("tenant_shed %d, want 3", mt.TenantShed)
	}
	if mt.TenantSheds["alice"] != 2 || mt.TenantSheds[""] != 1 {
		t.Fatalf("per-tenant sheds %v", mt.TenantSheds)
	}
	// Quota sheds are not queue-full rejections.
	if mt.Rejected != 0 {
		t.Fatalf("quota sheds leaked into Rejected: %d", mt.Rejected)
	}
	// Invalid specs are rejected before charging quota.
	if _, err := r.Submit(context.Background(), JobSpec{Domain: "chess", Tenant: "alice"}); errors.Is(err, ErrQuota) {
		t.Fatalf("invalid spec charged quota: %v", err)
	}
}

// TestDefaultSeedBurstNoCollision is the ISSUE 10 bugfix regression: a
// burst of unset-seed submissions must receive pairwise-distinct,
// nonzero seeds (the clock-derived scheme collided within a nanosecond
// tick), the assignment must be visible in the status for
// reproducibility, and managers created back-to-back must not share a
// stream.
func TestDefaultSeedBurstNoCollision(t *testing.T) {
	r := newTestRouter(t, Config{Pools: 4, Slots: 1, Medians: 1, Clients: 1, QueueLimit: 64})
	seeds := make(map[uint64]string)
	for i := 0; i < 64; i++ {
		spec := tinySpec(0) // unset seed
		id, err := r.Submit(context.Background(), spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		st, err := r.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Spec.Seed == 0 {
			t.Fatalf("job %s kept the unset-seed sentinel", id)
		}
		if prev, dup := seeds[st.Spec.Seed]; dup {
			t.Fatalf("seed collision under burst: %s and %s both got %d", prev, id, st.Spec.Seed)
		}
		seeds[st.Spec.Seed] = id
	}
	// Back-to-back managers (same clock tick) draw disjoint startup
	// bases: their first assigned seeds differ.
	var first []uint64
	for i := 0; i < 2; i++ {
		m := newTestManager(t, Config{Slots: 1, Medians: 1, Clients: 1})
		id, err := m.Submit(context.Background(), tinySpec(0))
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		first = append(first, st.Spec.Seed)
	}
	if first[0] == first[1] {
		t.Fatalf("two managers share a default-seed stream: both start at %d", first[0])
	}
}

// TestDefaultSeedReproducibleUnderSeedBase pins the test hook: a fixed
// Config.SeedBase makes the assigned stream deterministic, and a Router
// derives disjoint per-pool bases from it.
func TestDefaultSeedReproducibleUnderSeedBase(t *testing.T) {
	stream := func() []uint64 {
		m := newTestManager(t, Config{Slots: 1, Medians: 1, Clients: 1, QueueLimit: 8, SeedBase: 99})
		var out []uint64
		for i := 0; i < 4; i++ {
			id, err := m.Submit(context.Background(), tinySpec(0))
			if err != nil {
				t.Fatal(err)
			}
			st, err := m.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, st.Spec.Seed)
		}
		return out
	}
	a, b := stream(), stream()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("SeedBase stream not reproducible at %d: %d != %d", i, a[i], b[i])
		}
	}

	r := newTestRouter(t, Config{Pools: 2, Slots: 1, Medians: 1, Clients: 1, QueueLimit: 8, SeedBase: 99})
	if s0, s1 := r.Pool(0).seedBase, r.Pool(1).seedBase; s0 == s1 {
		t.Fatalf("router pools share SeedBase %d", s0)
	}
}

// TestStatusTimestampsUseInjectedClock pins the clock-threading bugfix:
// with a virtual clock, Submitted/Started/Finished advance exactly with
// the injected readings, never with wall time — the property that lets
// retention/latency logic run under virtual-time tests.
func TestStatusTimestampsUseInjectedClock(t *testing.T) {
	clk := &fakeClock{}
	clk.set(5 * time.Second)
	m := newTestManager(t, Config{Slots: 1, Medians: 1, Clients: 1, Clock: clk})

	a, err := m.Submit(context.Background(), tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	sa, err := m.Wait(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	// The whole job ran at one frozen clock reading: zero spans, despite
	// nonzero real elapsed time (a wall clock could not produce this).
	if !sa.Started.Equal(sa.Submitted) || !sa.Finished.Equal(sa.Started) {
		t.Fatalf("frozen clock leaked wall time: submitted %v started %v finished %v",
			sa.Submitted, sa.Started, sa.Finished)
	}

	clk.advance(10 * time.Second)
	b, err := m.Submit(context.Background(), tinySpec(2))
	if err != nil {
		t.Fatal(err)
	}
	sb, err := m.Wait(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.Submitted.Sub(sa.Submitted); got != 10*time.Second {
		t.Fatalf("clock advance of 10s produced submit delta %v", got)
	}
}

// TestWatchStreamsToTerminal drives the Watch feed behind the events
// API: an immediate snapshot, coalesced updates, a guaranteed terminal
// snapshot, then close. Also covers watching an already-terminal job
// and detaching early.
func TestWatchStreamsToTerminal(t *testing.T) {
	m := newTestManager(t, Config{Slots: 1, Medians: 2, Clients: 2})
	id, err := m.Submit(context.Background(), tinySpec(3))
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := m.Watch(id)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	var last JobStatus
	n := 0
	for st := range ch {
		if st.ID != id {
			t.Fatalf("stream leaked job %s", st.ID)
		}
		last = st
		n++
	}
	if n == 0 || !last.State.Terminal() {
		t.Fatalf("stream ended after %d events in state %s; want terminal last", n, last.State)
	}
	if last.State != StateDone || last.Score != 16 {
		t.Fatalf("terminal snapshot: %s score %v", last.State, last.Score)
	}

	// Watching a terminal job: final status, then an already-closed channel.
	ch2, cancel2, err := m.Watch(id)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel2()
	st, ok := <-ch2
	if !ok || !st.State.Terminal() {
		t.Fatalf("terminal watch first recv: ok=%v state=%s", ok, st.State)
	}
	if _, ok := <-ch2; ok {
		t.Fatal("terminal watch channel not closed after final snapshot")
	}

	// Early detach: cancel must drop the subscription without blocking
	// the job's completion.
	id2, err := m.Submit(context.Background(), slowSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	_, cancel3, err := m.Watch(id2)
	if err != nil {
		t.Fatal(err)
	}
	cancel3()
	cancel3() // idempotent
	if err := m.Cancel(id2); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(context.Background(), id2); err != nil {
		t.Fatal(err)
	}

	if _, _, err := m.Watch("job-404"); err != ErrNotFound {
		t.Fatalf("unknown watch: %v, want ErrNotFound", err)
	}
}

// TestRouterRejectsDistributedSharding pins the config guard: pools > 1
// cannot be combined with external workers.
func TestRouterRejectsDistributedSharding(t *testing.T) {
	if _, err := NewRouter(Config{Pools: 2, Workers: 2}); err == nil {
		t.Fatal("2 pools with external workers accepted")
	}
}

// TestRouterShutdownDrainsAllPools pins the teardown contract: after
// Shutdown every pool refuses submissions and every job is terminal.
func TestRouterShutdownDrainsAllPools(t *testing.T) {
	r, err := NewRouter(Config{Pools: 2, Slots: 1, Medians: 1, Clients: 2, QueueLimit: 8})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 4; i++ {
		id, err := r.Submit(context.Background(), tinySpec(uint64(10+i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := r.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !r.Draining() {
		t.Fatal("router not draining after shutdown")
	}
	if _, err := r.Submit(context.Background(), tinySpec(99)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after shutdown: %v, want ErrClosed", err)
	}
	for _, id := range ids {
		st, err := r.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if !st.State.Terminal() {
			t.Fatalf("job %s not terminal after shutdown: %s", id, st.State)
		}
	}
	// Idempotent.
	if err := r.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRouterConcurrentMixedStorm floods a 3-pool plane from many
// goroutines — mixed domains, quota sheds, saturation sheds, mid-flight
// cancels — and verifies completed jobs against their solo twins.
// Race-clean by CI's race job.
func TestRouterConcurrentMixedStorm(t *testing.T) {
	r := newTestRouter(t, Config{Pools: 3, Slots: 1, Medians: 1, Clients: 2, QueueLimit: 4})
	specs := stormSpecs(12)
	var mu sync.Mutex
	results := make(map[string]JobSpec)
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec JobSpec) {
			defer wg.Done()
			id, err := r.Submit(context.Background(), spec)
			if err != nil {
				if errors.Is(err, ErrSaturated) {
					return // shed under load: expected
				}
				t.Errorf("submit %d: %v", i, err)
				return
			}
			if i%4 == 0 {
				r.Cancel(id) //nolint:errcheck // racing completion is the point
			}
			mu.Lock()
			results[id] = spec
			mu.Unlock()
		}(i, spec)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	completed := 0
	for id, spec := range results {
		st, err := r.Wait(context.Background(), id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if st.State == StateDone && !st.Stopped {
			completed++
			requireIdentical(t, id, st, soloRun(t, spec))
		}
	}
	if completed == 0 {
		t.Fatal("storm completed nothing; no equivalence checked")
	}
}
