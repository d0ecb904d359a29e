package parallel

// The async pipelined root's acceptance contract. Speculation is pure
// scheduling: the root guesses which move will win the current step's
// argmax and dispatches the next step's candidates for the top
// Config.Speculate leaders before the last scores arrive. Because client
// rollout rng is keyed by logical job coordinates — (step, candidate,
// median step, median candidate) — a speculative rollout that is adopted
// computed exactly what the synchronous root would have computed, and a
// wasted one is discarded without a trace. These tests pin that: async,
// pull and static play bit-identical games per seed on every domain, the
// pool's speculation cancels drain without parking ranks or leaking
// grants, and a worker killed mid-speculation still cannot change the
// answer. Run with -race in CI.

import (
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/game"
	"repro/internal/morpion"
	"repro/internal/samegame"
	"repro/internal/sudoku"
)

// asyncCfgs are multi-step configs (FirstMoveOnly off — speculation only
// pipelines step boundaries, so a one-step game never speculates), one
// per domain.
func asyncCfgs() map[string]Config {
	return map[string]Config{
		"morpion":  {Level: 2, Root: morpion.New(morpion.Var4D), Seed: 11, Memorize: true},
		"samegame": {Level: 2, Root: samegame.NewRandom(6, 6, 3, 3), Seed: 5, Memorize: true},
		"sudoku":   {Level: 2, Root: sudoku.New(2), Seed: 7},
	}
}

// assertSameGame compares the played game only — Score, FirstMove, Steps,
// Sequence. The per-run async collector charges wasted speculative
// rollouts to Result.Jobs/WorkUnits (they really ran), so rollout
// accounting legitimately differs from the synchronous schedulers; the
// game must not.
func assertSameGame(t *testing.T, name string, got, want Result) {
	t.Helper()
	if got.Score != want.Score {
		t.Fatalf("%s: score %v != %v", name, got.Score, want.Score)
	}
	if got.FirstMove != want.FirstMove {
		t.Fatalf("%s: first move %v != %v", name, got.FirstMove, want.FirstMove)
	}
	if got.Steps != want.Steps {
		t.Fatalf("%s: steps %d != %d", name, got.Steps, want.Steps)
	}
	if len(got.Sequence) != len(want.Sequence) {
		t.Fatalf("%s: sequence lengths %d != %d", name, len(got.Sequence), len(want.Sequence))
	}
	for i := range got.Sequence {
		if got.Sequence[i] != want.Sequence[i] {
			t.Fatalf("%s: sequences differ at move %d", name, i)
		}
	}
}

// TestAsyncSchedulingInvariance is the tentpole invariant: per seed, the
// async pipelined root, the synchronous pull root and the paper's static
// root play the identical game on every domain. Virtual runs, so both
// sides of every speculation race are deterministic and the comparison is
// exact.
func TestAsyncSchedulingInvariance(t *testing.T) {
	spec := cluster.Homogeneous(8)
	opts := VirtualOptions{Medians: 3}
	for name, cfg := range asyncCfgs() {
		t.Run(name, func(t *testing.T) {
			static := cfg
			static.Static = true
			base, err := RunVirtual(spec, static, opts)
			if err != nil {
				t.Fatal(err)
			}
			pull, err := RunVirtual(spec, cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertSameGame(t, "pull vs static", pull, base)
			for _, k := range []int{1, 2, 4} {
				acfg := cfg
				acfg.Speculate = k
				async, err := RunVirtual(spec, acfg, opts)
				if err != nil {
					t.Fatal(err)
				}
				assertSameGame(t, "async vs static", async, base)
				if async.Steps > 1 && async.Speculated == 0 {
					t.Fatalf("k=%d multi-step run never speculated", k)
				}
				if async.SpecWasted > 0 && async.Speculated == 0 {
					t.Fatalf("k=%d wasted %d rollouts without speculating", k, async.SpecWasted)
				}
				if len(async.StepLatency) != async.Steps {
					t.Fatalf("k=%d recorded %d step latencies for %d steps", k, len(async.StepLatency), async.Steps)
				}
			}
		})
	}
}

// TestAsyncStopCancelled pins the Stop path: a StopAfter-truncated async
// run terminates cleanly — every speculative branch purged, every
// outstanding grant drained, no median left parked — and plays a strict
// prefix of the unstopped run's game. (Bit-identity across schedulers is
// not defined mid-cancel: the stop lands at a scheduler-dependent virtual
// time, so the truncation point itself differs; the invariant is that
// everything played before it matches.)
func TestAsyncStopCancelled(t *testing.T) {
	spec := cluster.Homogeneous(8)
	opts := VirtualOptions{Medians: 3}
	cfg := asyncCfgs()["samegame"]
	cfg.Speculate = 2

	full, err := RunVirtual(spec, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if full.Steps < 3 {
		t.Fatalf("full game too short to truncate: %d steps", full.Steps)
	}

	// Stop mid-game: half the full run's virtual span lands between step
	// boundaries with speculation in flight.
	cfg.StopAfter = full.Elapsed / 2
	stopped, err := RunVirtual(spec, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !stopped.Stopped {
		t.Fatal("StopAfter run did not report Stopped")
	}
	if stopped.Steps >= full.Steps {
		t.Fatalf("stopped run played %d steps, full game only %d", stopped.Steps, full.Steps)
	}
	if len(stopped.Sequence) != stopped.Steps {
		t.Fatalf("stopped run: %d moves for %d steps", len(stopped.Sequence), stopped.Steps)
	}
	for i := range stopped.Sequence {
		if stopped.Sequence[i] != full.Sequence[i] {
			t.Fatalf("stopped run diverged from full game at move %d", i)
		}
	}
}

// TestPoolAsyncMatchesSolo runs speculating jobs on the shared pool and
// requires them bit-identical to Reference — including Jobs and
// WorkUnits, because the pool path only charges a speculative branch's
// rollouts to the job when the branch is adopted (wasted ones are
// reported separately in SpecWasted).
func TestPoolAsyncMatchesSolo(t *testing.T) {
	pool, err := NewPool(PoolConfig{Slots: 2, Medians: 3, Clients: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown()

	speculated := false
	for name, cfg := range asyncCfgs() {
		t.Run(name, func(t *testing.T) {
			solo, err := Reference(cfg)
			if err != nil {
				t.Fatal(err)
			}
			acfg := cfg
			acfg.Speculate = 2
			res, err := pool.RunJob(0, acfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, "pool async vs solo", res, solo)
			if res.Speculated > 0 {
				speculated = true
			}
			if len(res.StepLatency) != res.Steps {
				t.Fatalf("%d step latencies for %d steps", len(res.StepLatency), res.Steps)
			}
		})
	}
	if !speculated {
		t.Fatal("no pool job ever speculated; the async path was not exercised")
	}
	if m := pool.Metrics(); m.Speculated == 0 || m.StepCount == 0 {
		t.Fatalf("pool metrics missed the async jobs: %+v", m)
	}
}

// TestPoolAsyncConcurrentJobs drives every slot at once, speculating and
// synchronous jobs interleaved on the same medians: per-slot speculation
// cancels must never leak across jobs.
func TestPoolAsyncConcurrentJobs(t *testing.T) {
	pool, err := NewPool(PoolConfig{Slots: 3, Medians: 2, Clients: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown()

	cfgs := []Config{
		{Level: 2, Root: sudoku.New(2), Seed: 7, Speculate: 2},
		{Level: 2, Root: samegame.NewRandom(6, 6, 3, 3), Seed: 5, Memorize: true},
		{Level: 2, Root: game.NewArmTree(3, 2, 5), Seed: 2, Memorize: true, Speculate: 1},
	}
	results := make([]Result, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func(slot int, cfg Config) {
			defer wg.Done()
			res, err := pool.RunJob(slot, cfg, nil)
			if err != nil {
				t.Errorf("slot %d: %v", slot, err)
				return
			}
			results[slot] = res
		}(i, cfg)
	}
	wg.Wait()
	for i, cfg := range cfgs {
		cfg.Speculate = 0
		solo, err := Reference(cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, "concurrent async job", results[i], solo)
	}
}

// TestPoolAsyncCancelDrains cancels a speculating job mid-game and then
// reuses the slot: the cancel must purge the scheduler's speculative
// grants and un-park every median (a cancelled branch's game must not
// leave a median waiting for work that never comes), or the follow-up job
// would hang or diverge.
func TestPoolAsyncCancelDrains(t *testing.T) {
	pool, err := NewPool(PoolConfig{Slots: 1, Medians: 2, Clients: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown()

	long := Config{Level: 2, Root: morpion.New(morpion.Var5D), Seed: 3, Memorize: true, Speculate: 2}
	done := make(chan Result, 1)
	started := make(chan struct{})
	var once sync.Once
	go func() {
		res, err := pool.RunJob(0, long, func(Progress) { once.Do(func() { close(started) }) })
		if err != nil {
			t.Errorf("cancelled job errored: %v", err)
		}
		done <- res
	}()
	<-started // a step boundary passed: speculation has been offered
	pool.CancelJob(0)
	res := <-done
	if !res.Stopped {
		t.Fatal("cancelled async job did not report Stopped")
	}

	// The same slot must serve a synchronous job bit-identically: stale
	// speculative candidates or a parked median would break this.
	short := Config{Level: 2, Root: samegame.NewRandom(6, 6, 3, 3), Seed: 5, Memorize: true}
	solo, err := Reference(short)
	if err != nil {
		t.Fatal(err)
	}
	again, err := pool.RunJob(0, short, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "job after async cancel", again, solo)
	if again.Stopped {
		t.Fatal("follow-up job inherited the cancellation")
	}
}

// TestChaosKillMidSpeculation kills a worker while the surviving job is
// speculating — its grants include next-step candidates for branches
// whose argmax has not resolved — and requires the finished job
// bit-identical to solo. A dead worker's speculative grants are re-queued
// unless a cancel already covered them; a resurrected winner grant must
// still produce its score.
func TestChaosKillMidSpeculation(t *testing.T) {
	for name, cfg := range asyncCfgs() {
		t.Run(name, func(t *testing.T) {
			solo, err := Reference(cfg)
			if err != nil {
				t.Fatal(err)
			}
			acfg := cfg
			acfg.Speculate = 2
			res, m := chaosRun(t, acfg, 0)
			assertSameResult(t, "chaos kill mid-speculation vs solo", res, solo)
			if m.WorkersLost < 1 || m.WorkersRejoined < 1 {
				t.Fatalf("churn not recorded: %+v", m)
			}
			if res.Speculated == 0 {
				t.Fatal("chaos run never speculated; the race was not exercised")
			}
		})
	}
}

// TestPoolSpeculateDefault pins the config plumbing: a pool-wide
// PoolConfig.Speculate default applies to jobs that leave
// Config.Speculate zero, and a job's negative Speculate opts back out.
func TestPoolSpeculateDefault(t *testing.T) {
	pool, err := NewPool(PoolConfig{Slots: 1, Medians: 2, Clients: 2, Speculate: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown()

	cfg := Config{Level: 2, Root: sudoku.New(2), Seed: 7}
	inherit, err := pool.RunJob(0, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inherit.Speculated == 0 {
		t.Fatal("job did not inherit the pool's speculation default")
	}
	cfg.Speculate = -1
	forced, err := pool.RunJob(0, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if forced.Speculated != 0 {
		t.Fatalf("Speculate=-1 job still speculated %d times", forced.Speculated)
	}
	solo, err := Reference(Config{Level: 2, Root: sudoku.New(2), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "inherited speculation vs solo", inherit, solo)
	assertSameResult(t, "opted-out job vs solo", forced, solo)
}

// TestAsyncStepLatencyRecorded pins the satellite metric on the
// synchronous path too: every scheduler records one latency per root
// step, and the pool accumulates them.
func TestAsyncStepLatencyRecorded(t *testing.T) {
	spec := cluster.Homogeneous(8)
	cfg := asyncCfgs()["sudoku"]
	for _, static := range []bool{true, false} {
		c := cfg
		c.Static = static
		res, err := RunVirtual(spec, c, VirtualOptions{Medians: 3})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.StepLatency) != res.Steps {
			t.Fatalf("static=%v: %d latencies for %d steps", static, len(res.StepLatency), res.Steps)
		}
		var sum time.Duration
		for _, d := range res.StepLatency {
			if d <= 0 {
				t.Fatalf("static=%v: non-positive step latency %v", static, d)
			}
			sum += d
		}
		if sum > res.Elapsed {
			t.Fatalf("static=%v: step latencies sum %v beyond elapsed %v", static, sum, res.Elapsed)
		}
	}
}
