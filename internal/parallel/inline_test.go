package parallel

// Tests of the width-one pool: an in-process pool of one median and one
// client plays every job on its slot with the reference loop. Its answers
// are held to the golden constants in TestNilEvaluatorGolden; these tests
// hold its lifecycle — cancel, deadline, shutdown, progress, metrics — to
// the message path's, and guard the rule that picks it.

import (
	"testing"
	"time"

	"repro/internal/morpion"
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
// a 1×2 pool (messages): both fire progress once per root step, and the
// inline pool's counters equal its Result's, with no chunk sent.
func TestInlineProgressAndMetrics(t *testing.T) {
	noGoroutineLeak(t)
	cfg := Config{Level: 2, Root: sudoku.New(2), Seed: 7}
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
			t.Fatalf("1×%d pool sent %d chunks", clients, m.Chunks)
		}
	}
	if counts[1] != counts[2] {
		t.Fatalf("progress calls: %d inline, %d with messages", counts[1], counts[2])
	}
}

// TestNetPoolNeverInline guards the rule's other edge: a net pool of one
// median and one client still ships its rollouts in chunks.
func TestNetPoolNeverInline(t *testing.T) {
	noGoroutineLeak(t)
	pool, err := NewNetPool(PoolConfig{Slots: 1, Medians: 1, Clients: 1}, NetPoolConfig{Listen: "127.0.0.1:0", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wait := startNetWorkers(t, pool.WorkerAddr(), 1)
	defer wait()
	defer pool.Shutdown()
	if _, err := pool.RunJob(0, Config{Level: 2, Root: sudoku.New(2), Seed: 7}, nil); err != nil {
		t.Fatal(err)
	}
	if m := pool.Metrics(); m.Chunks == 0 {
		t.Fatalf("1×1 net pool sent no chunks: %+v", m)
	}
}
