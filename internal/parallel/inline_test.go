package parallel

// Tests of inline play. The width-one pool: an in-process pool of one
// median and one client plays every job on its slot with the reference
// loop. Its answers are held to the golden constants in
// TestNilEvaluatorGolden; these tests hold its lifecycle — cancel,
// deadline, shutdown, progress, metrics — to the message path's, and guard
// the rule that picks it. The inline median: a process that hosts no more
// clients than medians starts no helper, and its medians play their steps'
// rollouts themselves.

import (
	"testing"
	"time"

	"repro/internal/game"
	"repro/internal/morpion"
	"repro/internal/samegame"
	"repro/internal/sudoku"
)

func newTestPool(t *testing.T, cfg PoolConfig) *Pool {
	t.Helper()
	pool, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

// longJob is a full morpion 5D game at level 2: seconds of work, so it is
// still running whenever a test stops it.
func longJob() Config {
	return Config{Level: 2, Root: morpion.New(morpion.Var5D), Seed: 3, Memorize: true}
}

// TestInlineCancelWithinOneMedianStep cancels from the first step's
// progress callback. The inline loop polls its stop order before every
// median step, so the job must end at that root step without one more
// rollout.
func TestInlineCancelWithinOneMedianStep(t *testing.T) {
	noGoroutineLeak(t)
	pool := newTestPool(t, PoolConfig{Slots: 1, Medians: 1, Clients: 1})
	defer pool.Shutdown()
	var jobsAtCancel int64
	res, err := pool.RunJob(0, longJob(), func(pr Progress) {
		if pr.Steps == 1 {
			jobsAtCancel = pool.Metrics().Jobs
			pool.CancelJob(0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped || res.Steps != 1 || res.Jobs != jobsAtCancel {
		t.Fatalf("cancel at step 1: stopped=%v steps=%d jobs=%d, want stopped after 1 step and %d jobs",
			res.Stopped, res.Steps, res.Jobs, jobsAtCancel)
	}
	if m := pool.Metrics(); m.Jobs != res.Jobs || m.WorkUnits != res.WorkUnits || m.Chunks != 0 {
		t.Fatalf("metrics after a cancelled job: %+v, result jobs=%d units=%d", m, res.Jobs, res.WorkUnits)
	}

	// The slot serves the next job, and the stale cancel does not touch it.
	short := Config{Level: 2, Root: sudoku.New(2), Seed: 7}
	want, err := Reference(short)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pool.RunJob(0, short, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "job after a cancel", got, want)
}

// TestInlineDeadline stops an inline job by Config.StopAfter alone.
func TestInlineDeadline(t *testing.T) {
	noGoroutineLeak(t)
	pool := newTestPool(t, PoolConfig{Slots: 1, Medians: 1, Clients: 1})
	defer pool.Shutdown()
	cfg := longJob()
	cfg.StopAfter = 30 * time.Millisecond
	res, err := pool.RunJob(0, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("deadline did not stop the inline job")
	}
}

// TestInlineShutdownDrains shuts the pool down under a running inline job:
// the job ends Stopped, and the pool refuses work afterwards.
func TestInlineShutdownDrains(t *testing.T) {
	noGoroutineLeak(t)
	pool := newTestPool(t, PoolConfig{Slots: 1, Medians: 1, Clients: 1})
	started := make(chan struct{})
	h, err := pool.StartJob(0, longJob(), func(pr Progress) {
		if pr.Steps == 1 {
			close(started)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan Result, 1)
	go func() {
		res, _ := h.Wait()
		done <- res
	}()
	<-started
	pool.Shutdown()
	if res := <-done; !res.Stopped {
		t.Fatal("inline job running at shutdown was not drained as stopped")
	}
	if _, err := pool.RunJob(0, longJob(), nil); err != ErrPoolClosed {
		t.Fatalf("RunJob after shutdown: %v, want ErrPoolClosed", err)
	}
}

// TestInlineProgressAndMetrics runs one job on a 1×1 pool (inline) and on
// a 1×2 pool (messages and helpers): both fire progress once per root
// step, their counters equal their Results', and only the 1×2 pool's
// helpers join steps. The job's steps outlast a helper's wake-up.
func TestInlineProgressAndMetrics(t *testing.T) {
	noGoroutineLeak(t)
	cfg := coarseJob()
	counts := map[int]int{}
	for _, clients := range []int{1, 2} {
		pool := newTestPool(t, PoolConfig{Slots: 1, Medians: 1, Clients: clients})
		res, err := pool.RunJob(0, cfg, func(Progress) { counts[clients]++ })
		m := pool.Metrics()
		pool.Shutdown()
		if err != nil {
			t.Fatal(err)
		}
		if counts[clients] != res.Steps {
			t.Fatalf("1×%d pool: %d progress calls for %d steps", clients, counts[clients], res.Steps)
		}
		if m.Jobs != res.Jobs || m.WorkUnits != res.WorkUnits || m.StepCount != int64(res.Steps) {
			t.Fatalf("1×%d pool: metrics %+v disagree with result jobs=%d units=%d steps=%d",
				clients, m, res.Jobs, res.WorkUnits, res.Steps)
		}
		if inline := clients == 1; inline != (m.Chunks == 0) {
			t.Fatalf("1×%d pool: helpers joined %d steps", clients, m.Chunks)
		}
	}
	if counts[1] != counts[2] {
		t.Fatalf("progress calls: %d inline, %d with messages", counts[1], counts[2])
	}
}

// TestNetPoolNeverInline guards the rule's other edge: a net pool of one
// median and one client never plays a job on its slot. Its worker starts
// no helper, so its median plays the steps itself, but every candidate
// leaves the coordinator as a grant frame and comes back as a step score
// frame.
func TestNetPoolNeverInline(t *testing.T) {
	noGoroutineLeak(t)
	pool, err := NewNetPool(PoolConfig{Slots: 1, Medians: 1, Clients: 1}, NetPoolConfig{Listen: "127.0.0.1:0", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wait := startNetWorkers(t, pool.WorkerAddr(), 1)
	defer wait()
	defer pool.Shutdown()
	res, err := pool.RunJob(0, Config{Level: 2, Root: sudoku.New(2), Seed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, st := pool.Metrics(), pool.net.Stats()
	if m.Chunks != 0 || m.Jobs != res.Jobs || res.Jobs == 0 {
		t.Fatalf("1×1 net pool: helpers joined %d steps, %d rollouts counted for a job of %d", m.Chunks, m.Jobs, res.Jobs)
	}
	if steps := uint64(res.Steps); st.FramesSent < steps || st.FramesRecv < steps {
		t.Fatalf("1×1 net pool: %d frames sent and %d received for %d root steps", st.FramesSent, st.FramesRecv, steps)
	}
}

// TestMedianInlineRule holds the rule that picks who plays a step's
// rollouts: a process that hosts no more clients than medians starts no
// helper and its medians play every rollout themselves; any other runs one
// helper per client beside its medians. On in-process pools of 2 × 2,
// 3 × 1 and 2 × 3 and on net pools of two workers hosting a median and a
// client each (c m | c m), two clients and one (c c m | c m), and of three
// workers for three medians and two clients (c m | c m | m), uniform,
// guided, cached, speculating and coarse jobs all return Reference's
// answer, and helpers join steps exactly where some process runs them: on
// the mixed net pool, worker 0 (c c m) is the only one that does.
func TestMedianInlineRule(t *testing.T) {
	noGoroutineLeak(t)
	samegame6 := samegame.NewRandom(6, 6, 3, 3)
	jobs := map[string]Config{
		"uniform":   {Level: 2, Root: samegame6, Seed: 5, Memorize: true},
		"guided":    {Level: 2, Root: samegame6, Seed: 3, Memorize: true, Evaluator: game.HeuristicEvaluatorName},
		"cached":    {Level: 3, Root: sudoku.New(2), Seed: 4, Memorize: true, Cache: true, CacheVerify: true},
		"speculate": {Level: 2, Root: samegame6, Seed: 7, Memorize: true, Speculate: 2},
		"coarse":    coarseJob(),
	}
	solo := map[string]Result{}
	for name, cfg := range jobs {
		res, err := Reference(cfg)
		if err != nil {
			t.Fatal(err)
		}
		solo[name] = res
	}
	for _, l := range []struct {
		name             string
		medians, clients int
		workers          int    // 0: in process
		helped           []bool // per process: it runs helpers
	}{
		{"in process 2x2", 2, 2, 0, []bool{false}},
		{"in process 3x1", 3, 1, 0, []bool{false}},
		{"in process 2x3", 2, 3, 0, []bool{true}},
		{"net c m | c m", 2, 2, 2, []bool{false, false}},
		{"net c c m | c m", 2, 3, 2, []bool{true, false}},
		{"net c m | c m | m", 3, 2, 3, []bool{false, false, false}},
	} {
		t.Run(l.name, func(t *testing.T) {
			cfg := PoolConfig{Slots: 1, Medians: l.medians, Clients: l.clients, CacheVerify: true}
			var pool *Pool
			var err error
			if l.workers == 0 {
				pool, err = NewPool(cfg)
			} else {
				pool, err = NewNetPool(cfg, NetPoolConfig{Listen: "127.0.0.1:0", Workers: l.workers})
			}
			if err != nil {
				t.Fatal(err)
			}
			if l.workers > 0 {
				defer startNetWorkers(t, pool.WorkerAddr(), l.workers)()
				// Every median takes part from the first step on, so a
				// helped worker's median plays some of the first game.
				waitMediansAsking(t, pool)
			}
			defer pool.Shutdown()

			helped := false
			for i := range pool.world.ranks {
				n, _ := pool.world.helpers(i)
				if (n > 0) != l.helped[i] {
					t.Fatalf("process %d: %d helpers, want helpers: %v", i, n, l.helped[i])
				}
				helped = helped || n > 0
			}
			for name, job := range jobs {
				res, err := pool.RunJob(0, job, nil)
				if err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, name, res, solo[name])
				if job.Speculate > 0 && res.Speculated == 0 {
					t.Fatalf("%s: never speculated", name)
				}
			}
			if m := pool.Metrics(); (m.Chunks > 0) != helped {
				t.Fatalf("helpers joined %d steps of %d rollouts, want steps joined: %v", m.Chunks, m.Jobs, helped)
			}
		})
	}
}
