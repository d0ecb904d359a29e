package service

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// tinySpec is a fast job used across the lifecycle tests.
func tinySpec(seed uint64) JobSpec {
	return JobSpec{Domain: "sudoku", Box: 2, Level: 2, Seed: seed, Memorize: true}
}

// slowSpec is a job long enough to be cancelled mid-flight.
func slowSpec(seed uint64) JobSpec {
	return JobSpec{Domain: "morpion", Variant: "5D", Level: 2, Seed: seed, Memorize: true}
}

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Shutdown(ctx) //nolint:errcheck // best-effort teardown
	})
	return m
}

func TestSubmitRunsToCompletion(t *testing.T) {
	m := newTestManager(t, Config{Slots: 2, Medians: 2, Clients: 2})
	id, err := m.Submit(context.Background(), tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("state %s, want done (err %q)", st.State, st.Error)
	}
	if st.Score != 16 {
		t.Fatalf("level-2 on the 4x4 grid scored %v, want 16", st.Score)
	}
	if st.Rollouts == 0 {
		t.Fatal("no rollouts accounted")
	}
	if len(st.Sequence) == 0 || st.Steps != len(st.Sequence) {
		t.Fatalf("inconsistent sequence: steps %d, len %d", st.Steps, len(st.Sequence))
	}
	if st.Started.Before(st.Submitted) || st.Finished.Before(st.Started) {
		t.Fatal("timestamps out of order")
	}
}

func TestSubmitValidation(t *testing.T) {
	m := newTestManager(t, Config{Slots: 1, Medians: 1, Clients: 1})
	bad := []JobSpec{
		{},                                 // no domain
		{Domain: "chess"},                  // unknown domain
		{Domain: "morpion", Variant: "9Z"}, // unknown variant
		{Domain: "morpion", Level: 1},      // level too low for root/median/client
		{Domain: "sudoku", Box: 9},         // box out of range
		{Domain: "samegame", Width: 99},    // board out of range
		{Domain: "samegame", Colors: 1},    // colors out of range
	}
	for i, spec := range bad {
		if _, err := m.Submit(context.Background(), spec); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
	if got := m.Metrics().Submitted; got != 0 {
		t.Fatalf("invalid specs counted as submissions: %d", got)
	}
}

// TestSpecBounds holds JobSpec.Config to the parallel package's bounds on
// level and speculation width: at the bound a spec translates, one past it
// is refused, by Config and by Submit alike. A pool-wide speculation
// default past the bound is refused when the manager is built.
func TestSpecBounds(t *testing.T) {
	m := newTestManager(t, Config{Slots: 1, Medians: 1, Clients: 1})
	for _, c := range []struct {
		spec JobSpec
		ok   bool
	}{
		{JobSpec{Domain: "sudoku", Level: parallel.MaxLevel}, true},
		{JobSpec{Domain: "sudoku", Level: parallel.MaxLevel + 1}, false},
		{JobSpec{Domain: "sudoku", Speculate: parallel.MaxSpeculate}, true},
		{JobSpec{Domain: "sudoku", Speculate: parallel.MaxSpeculate + 1}, false},
	} {
		// Fatal, not Error: Submit runs what Config accepts, and a
		// level-65 search never ends.
		if _, err := c.spec.Config(); (err == nil) != c.ok {
			t.Fatalf("level %d, speculate %d: Config error %v, want ok=%v", c.spec.Level, c.spec.Speculate, err, c.ok)
		}
		if !c.ok {
			if _, err := m.Submit(context.Background(), c.spec); err == nil {
				t.Errorf("level %d, speculate %d: Submit accepted", c.spec.Level, c.spec.Speculate)
			}
		}
	}
	if bad, err := New(Config{Slots: 1, Medians: 1, Clients: 1, Speculate: parallel.MaxSpeculate + 1}); err == nil {
		bad.Shutdown(context.Background()) //nolint:errcheck // already failing
		t.Fatal("pool speculation default past the bound accepted")
	}
}

// TestServiceSpeculateDefault pins the speculation overlay: with
// Config.Speculate set, a job whose spec leaves speculate zero speculates,
// a job whose spec says −1 does not, and both return Reference's answer,
// on an in-process pool and on a pool served by two workers alike.
func TestServiceSpeculateDefault(t *testing.T) {
	for _, workers := range []int{0, 2} {
		cfg := Config{Slots: 1, Medians: 2, Clients: 2, Speculate: 2}
		if workers > 0 {
			cfg.Workers, cfg.WorkerListen = workers, "127.0.0.1:0"
		}
		m := newTestManager(t, cfg)
		var wg sync.WaitGroup
		for range workers {
			w, err := mpi.DialWorker(m.WorkerAddr(), "")
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := parallel.ServeWorker(w); err != nil {
					t.Errorf("worker: %v", err)
				}
			}()
		}
		for _, c := range []struct {
			speculate  int
			speculates bool
		}{{0, true}, {-1, false}} {
			spec := JobSpec{Domain: "sudoku", Box: 2, Level: 2, Seed: 7, Speculate: c.speculate}
			before := m.Metrics().Pool.Speculated
			id, err := m.Submit(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			st, err := m.Wait(context.Background(), id)
			if err != nil {
				t.Fatal(err)
			}
			if st.State != StateDone {
				t.Fatalf("%d workers, speculate %d: state %s (err %q)", workers, c.speculate, st.State, st.Error)
			}
			if n := m.Metrics().Pool.Speculated - before; (n > 0) != c.speculates {
				t.Fatalf("%d workers, speculate %d: %d branches speculated, want speculation %v",
					workers, c.speculate, n, c.speculates)
			}
			label := fmt.Sprintf("%d workers, speculate %d", workers, c.speculate)
			solo := soloRun(t, spec)
			requireIdentical(t, label, st, solo)
			if st.Steps != solo.Steps || st.Rollouts != solo.Jobs || st.WorkUnits != solo.WorkUnits {
				t.Fatalf("%s: steps/rollouts/units %d/%d/%d != reference %d/%d/%d", label,
					st.Steps, st.Rollouts, st.WorkUnits, solo.Steps, solo.Jobs, solo.WorkUnits)
			}
		}
		if err := m.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	}
}

// TestDeadlineBounds checks that a deadline the spec cannot represent is
// rejected instead of wrapping: 9.3e12 ms overflows to a negative Duration
// (the job would run with no deadline) and 2^58 + 1000 ms to exactly 1 s.
func TestDeadlineBounds(t *testing.T) {
	for _, spec := range []JobSpec{
		{DeadlineMillis: 9_300_000_000_000},
		{DeadlineMillis: 1<<58 + 1000},
		{DeadlineMillis: -1},
		{Deadline: -time.Second},
	} {
		spec.Domain = "sudoku"
		if _, err := spec.Config(); err == nil {
			t.Errorf("deadline %v / %d ms accepted", spec.Deadline, spec.DeadlineMillis)
		}
	}
	ok := JobSpec{Domain: "sudoku", DeadlineMillis: 1500}
	cfg, err := ok.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.StopAfter != 1500*time.Millisecond {
		t.Fatalf("deadline_ms 1500 gave StopAfter %v", cfg.StopAfter)
	}
}

// TestBackpressure fills the slots and the queue, then checks the next
// submission is rejected with ErrSaturated — the 503 path.
func TestBackpressure(t *testing.T) {
	m := newTestManager(t, Config{Slots: 1, Medians: 1, Clients: 1, QueueLimit: 1})
	running, err := m.Submit(context.Background(), slowSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(context.Background(), tinySpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(context.Background(), tinySpec(3)); err != ErrSaturated {
		t.Fatalf("saturated submit returned %v, want ErrSaturated", err)
	}
	if got := m.Metrics().Rejected; got != 1 {
		t.Fatalf("rejected counter %d, want 1", got)
	}

	// Draining the running job must free capacity for the queued one.
	if err := m.Cancel(running); err != nil {
		t.Fatal(err)
	}
	st, err := m.Wait(context.Background(), queued)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("queued job finished as %s (err %q)", st.State, st.Error)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	m := newTestManager(t, Config{Slots: 1, Medians: 1, Clients: 1, QueueLimit: 2})
	if _, err := m.Submit(context.Background(), slowSpec(1)); err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(context.Background(), tinySpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(queued); err != nil {
		t.Fatal(err)
	}
	st, err := m.Get(queued)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Fatalf("cancelled queued job is %s", st.State)
	}
	if err := m.Cancel(queued); err != ErrFinished {
		t.Fatalf("double cancel returned %v, want ErrFinished", err)
	}
	if err := m.Cancel("job-999"); err != ErrNotFound {
		t.Fatalf("unknown id returned %v, want ErrNotFound", err)
	}
}

func TestDeadlineStopsJob(t *testing.T) {
	m := newTestManager(t, Config{Slots: 1, Medians: 2, Clients: 2})
	spec := slowSpec(3)
	spec.Deadline = 30 * time.Millisecond
	id, err := m.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || !st.Stopped {
		t.Fatalf("deadline job: state %s stopped %v, want done+stopped", st.State, st.Stopped)
	}
}

func TestSubmitContextCancelsJob(t *testing.T) {
	m := newTestManager(t, Config{Slots: 1, Medians: 2, Clients: 2})
	ctx, cancel := context.WithCancel(context.Background())
	id, err := m.Submit(ctx, slowSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	st, err := m.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Fatalf("ctx-cancelled job is %s", st.State)
	}
}

func TestShutdownDrainsAndRefuses(t *testing.T) {
	m, err := New(Config{Slots: 2, Medians: 2, Clients: 2, QueueLimit: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.Submit(context.Background(), tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	st, err := m.Get(a)
	if err != nil {
		t.Fatal(err)
	}
	if !st.State.Terminal() {
		t.Fatalf("job not terminal after shutdown: %s", st.State)
	}
	if _, err := m.Submit(context.Background(), tinySpec(2)); err != ErrClosed {
		t.Fatalf("submit after shutdown returned %v, want ErrClosed", err)
	}
	// Shutdown is idempotent.
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownForcedByContext submits a long job and shuts down with an
// already-expired context: the job must be force-cancelled, not awaited.
func TestShutdownForcedByContext(t *testing.T) {
	m, err := New(Config{Slots: 1, Medians: 2, Clients: 2})
	if err != nil {
		t.Fatal(err)
	}
	id, err := m.Submit(context.Background(), slowSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := m.Shutdown(ctx); err != context.Canceled {
		t.Fatalf("forced shutdown returned %v, want context.Canceled", err)
	}
	st, err := m.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if !st.State.Terminal() {
		t.Fatalf("job not terminal after forced shutdown: %s", st.State)
	}
}

func TestJobsListingAndMetrics(t *testing.T) {
	m := newTestManager(t, Config{Slots: 2, Medians: 2, Clients: 2})
	var ids []string
	for seed := uint64(1); seed <= 3; seed++ {
		id, err := m.Submit(context.Background(), tinySpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if _, err := m.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	jobs := m.Jobs()
	if len(jobs) != 3 {
		t.Fatalf("listing has %d jobs, want 3", len(jobs))
	}
	for i, st := range jobs {
		if st.ID != ids[i] {
			t.Fatalf("listing order: got %s at %d, want %s", st.ID, i, ids[i])
		}
	}
	mt := m.Metrics()
	if mt.Submitted != 3 || mt.Completed != 3 {
		t.Fatalf("metrics %+v", mt)
	}
	if mt.Pool.Jobs == 0 {
		t.Fatal("pool metrics empty")
	}
}

// TestRetentionEvictsOldestTerminalJobs pins the bounded results ledger:
// beyond Config.Retain, the oldest finished job is evicted and its id
// answers ErrNotFound, so a long-lived service holds bounded memory.
func TestRetentionEvictsOldestTerminalJobs(t *testing.T) {
	m := newTestManager(t, Config{Slots: 1, Medians: 1, Clients: 1, Retain: 2})
	var ids []string
	for seed := uint64(1); seed <= 3; seed++ {
		id, err := m.Submit(context.Background(), tinySpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if _, err := m.Get(ids[0]); err != ErrNotFound {
		t.Fatalf("oldest terminal job not evicted: %v", err)
	}
	for _, id := range ids[1:] {
		if _, err := m.Get(id); err != nil {
			t.Fatalf("retained job %s evicted: %v", id, err)
		}
	}
	if got := len(m.Jobs()); got != 2 {
		t.Fatalf("listing has %d jobs, want 2", got)
	}
}

func TestGetUnknownJob(t *testing.T) {
	m := newTestManager(t, Config{Slots: 1, Medians: 1, Clients: 1})
	if _, err := m.Get("nope"); err != ErrNotFound {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
	if _, err := m.Wait(context.Background(), "nope"); err != ErrNotFound {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
}

// retryTestManager builds a bare Manager exercising only the retry-delay
// path: retryDelayLocked reads cfg.Retry.Backoff and retryRng and nothing
// else, so the pool is not needed.
func retryTestManager(backoff time.Duration, seed uint64) *Manager {
	return &Manager{
		cfg:      Config{Retry: RetryPolicy{Max: 8, Backoff: backoff}},
		retryRng: rng.New(seed),
	}
}

// TestRetryDelayBoundsAndDeterminism pins the backoff schedule: delays stay
// in [d/2, d] for the doubled, 30s-capped base, and a manager-private
// seeded source makes the whole schedule reproducible (the global
// math/rand source it replaced could not be seeded without racing every
// other consumer in the process).
func TestRetryDelayBoundsAndDeterminism(t *testing.T) {
	const base = 250 * time.Millisecond
	a := retryTestManager(base, 42)
	b := retryTestManager(base, 42)
	c := retryTestManager(base, 43)

	sameAsC := true
	for attempt := 1; attempt <= 12; attempt++ {
		d := base << min(attempt-1, 10)
		if d > 30*time.Second {
			d = 30 * time.Second
		}
		da, db, dc := a.retryDelayLocked(attempt), b.retryDelayLocked(attempt), c.retryDelayLocked(attempt)
		if da < d/2 || da > d {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, da, d/2, d)
		}
		if da != db {
			t.Fatalf("attempt %d: same seed diverged: %v != %v", attempt, da, db)
		}
		if da != dc {
			sameAsC = false
		}
	}
	if sameAsC {
		t.Fatal("seeds 42 and 43 produced identical 12-delay schedules")
	}
}
