package parallel

import (
	"sync"
	"testing"
	"time"

	"repro/internal/game"
	"repro/internal/morpion"
	"repro/internal/samegame"
	"repro/internal/sudoku"
)

// TestPoolMatchesRunWall pins the pool's central property: a job run on
// the shared pool returns bit-identical score and sequence to Reference's
// answer for the same Config, for every domain.
func TestPoolMatchesRunWall(t *testing.T) {
	pool, err := NewPool(PoolConfig{Slots: 2, Medians: 3, Clients: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown()

	cfgs := map[string]Config{
		"armtree":  {Algo: LastMinute, Level: 2, Root: game.NewArmTree(3, 2, 5), Seed: 2, Memorize: true},
		"sudoku4":  {Algo: RoundRobin, Level: 2, Root: sudoku.New(2), Seed: 7, Memorize: true},
		"samegame": {Algo: LastMinute, Level: 2, Root: samegame.NewRandom(5, 5, 3, 3), Seed: 5, Memorize: true},
		"morpion":  {Algo: LastMinute, Level: 2, Root: morpion.New(morpion.Var4D), Seed: 1, Memorize: true, FirstMoveOnly: true},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			solo, err := Reference(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pooled, err := pool.RunJob(0, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if pooled.Score != solo.Score {
				t.Fatalf("pool score %v != solo score %v", pooled.Score, solo.Score)
			}
			if len(pooled.Sequence) != len(solo.Sequence) {
				t.Fatalf("sequence lengths differ: %d vs %d", len(pooled.Sequence), len(solo.Sequence))
			}
			for i := range pooled.Sequence {
				if pooled.Sequence[i] != solo.Sequence[i] {
					t.Fatalf("sequences differ at move %d", i)
				}
			}
			if pooled.Jobs == 0 {
				t.Fatal("no client rollouts accounted to the job")
			}
		})
	}
}

// TestPoolConcurrentJobs runs jobs on every slot at once; each must match
// Reference's answer despite sharing medians and clients.
func TestPoolConcurrentJobs(t *testing.T) {
	pool, err := NewPool(PoolConfig{Slots: 3, Medians: 2, Clients: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown()

	cfgs := []Config{
		{Level: 2, Root: game.NewArmTree(3, 2, 5), Seed: 2, Memorize: true},
		{Level: 2, Root: sudoku.New(2), Seed: 7, Memorize: true},
		{Level: 2, Root: samegame.NewRandom(5, 5, 3, 3), Seed: 5, Memorize: true},
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
		solo, err := Reference(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if results[i].Score != solo.Score {
			t.Fatalf("slot %d: concurrent score %v != solo %v", i, results[i].Score, solo.Score)
		}
	}
}

// TestPoolCancelAndReuse cancels a long job mid-flight and then reuses the
// same slot for a fresh job, which must be unaffected.
func TestPoolCancelAndReuse(t *testing.T) {
	pool, err := NewPool(PoolConfig{Slots: 1, Medians: 2, Clients: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown()

	long := Config{Level: 2, Root: morpion.New(morpion.Var5D), Seed: 3, Memorize: true}
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
	<-started // at least one root step completed: the job is mid-flight
	pool.CancelJob(0)
	res := <-done
	if !res.Stopped {
		t.Fatal("cancelled job did not report Stopped")
	}

	short := Config{Level: 2, Root: game.NewArmTree(3, 2, 9), Seed: 4, Memorize: true}
	solo, err := Reference(short)
	if err != nil {
		t.Fatal(err)
	}
	again, err := pool.RunJob(0, short, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.Stopped || again.Score != solo.Score {
		t.Fatalf("job after cancel: stopped=%v score %v, want score %v", again.Stopped, again.Score, solo.Score)
	}
}

// TestPoolDeadline stops a job via Config.StopAfter even when no explicit
// cancellation arrives.
func TestPoolDeadline(t *testing.T) {
	pool, err := NewPool(PoolConfig{Slots: 1, Medians: 2, Clients: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown()

	cfg := Config{Level: 2, Root: morpion.New(morpion.Var5D), Seed: 3, Memorize: true,
		StopAfter: 30 * time.Millisecond}
	res, err := pool.RunJob(0, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("deadline did not stop the job")
	}
}

// TestPoolShutdownDrainsRunningJobs verifies Shutdown cancels in-flight
// jobs, waits for them, and refuses new work afterwards.
func TestPoolShutdownDrainsRunningJobs(t *testing.T) {
	noGoroutineLeak(t)
	pool, err := NewPool(PoolConfig{Slots: 1, Medians: 2, Clients: 2})
	if err != nil {
		t.Fatal(err)
	}
	long := Config{Level: 2, Root: morpion.New(morpion.Var5D), Seed: 3, Memorize: true}
	done := make(chan Result, 1)
	started := make(chan struct{})
	var once sync.Once
	go func() {
		res, _ := pool.RunJob(0, long, func(Progress) { once.Do(func() { close(started) }) })
		done <- res
	}()
	<-started
	pool.Shutdown()
	res := <-done
	if !res.Stopped {
		t.Fatal("job running at shutdown was not drained as stopped")
	}
	if _, err := pool.RunJob(0, long, nil); err != ErrPoolClosed {
		t.Fatalf("RunJob after shutdown: %v, want ErrPoolClosed", err)
	}
}

// TestPoolMetrics sanity-checks the pool-level instrumentation.
func TestPoolMetrics(t *testing.T) {
	pool, err := NewPool(PoolConfig{Slots: 1, Medians: 2, Clients: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown()
	// A depth-2 ArmTree hands clients terminal positions (zero metered
	// units); the 4x4 sudoku gives rollouts real work to account.
	cfg := Config{Level: 2, Root: sudoku.New(2), Seed: 2, Memorize: true}
	if _, err := pool.RunJob(0, cfg, nil); err != nil {
		t.Fatal(err)
	}
	m := pool.Metrics()
	if m.Jobs == 0 || m.WorkUnits == 0 {
		t.Fatalf("no work accounted: %+v", m)
	}
	if len(m.MedianIdle) != 2 || len(m.ClientIdle) != 2 {
		t.Fatalf("idle vectors sized wrong: %+v", m)
	}
}
