package parallel

// Chaos layer: the distributed pool under worker churn. Workers dial the
// coordinator through faultnet proxies; tests kill (sever) or blackhole a
// worker mid-job, let a replacement reclaim the slot, and assert the
// acceptance contract — Score, FirstMove, Sequence, Steps, Jobs and
// WorkUnits bit-identical to Reference's answer for the same seed, on
// every domain. Determinism under churn is the whole point: re-granted
// candidates replay the same coordinate-keyed rng streams, and every
// duplicate the churn can manufacture is shed by the epoch/key guards. Run
// with -race in CI.

import (
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/morpion"
	"repro/internal/mpi"
	"repro/internal/samegame"
	"repro/internal/sudoku"
)

// chaosWorker is one worker serving a pool through a fault proxy.
type chaosWorker struct {
	proxy *faultnet.Proxy
	done  chan struct{}
}

// startChaosWorker dials the pool through a fresh proxy and serves the
// assigned ranks on a background goroutine.
func startChaosWorker(t *testing.T, addr string) *chaosWorker {
	t.Helper()
	proxy, err := faultnet.NewProxy(addr)
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.DialWorker(proxy.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	cw := &chaosWorker{proxy: proxy, done: make(chan struct{})}
	go func() {
		defer close(cw.done)
		// A severed worker returns without error (its Run ends on the
		// reader failure); only setup problems are reported.
		if _, err := ServeWorker(w); err != nil {
			t.Errorf("chaos worker: %v", err)
		}
	}()
	return cw
}

// startReplacementWorker dials the coordinator directly, retrying while
// the lost slot is still being released, and serves until shutdown. It
// runs from kill callbacks (progress hooks, timers) — goroutines where
// t.Fatal is illegal — so unrecoverable setup failures panic instead.
func startReplacementWorker(t *testing.T, addr string) *chaosWorker {
	deadline := time.Now().Add(15 * time.Second)
	for {
		w, err := mpi.DialWorker(addr, "")
		if err == nil {
			cw := &chaosWorker{done: make(chan struct{})}
			go func() {
				defer close(cw.done)
				if _, err := ServeWorker(w); err != nil {
					t.Errorf("replacement worker: %v", err)
				}
			}()
			return cw
		}
		if time.Now().After(deadline) {
			panic("chaos replacement worker could not join: " + err.Error())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// chaosRun runs cfg on a 2-worker distributed pool of 2 medians and 3
// clients (ranks c c m | c m), invokes kill once (from the first progress
// callback when the config plays multiple steps, or after a fixed delay
// in first-move mode), starts a replacement worker, and returns the
// result plus the pool metrics.
func chaosRun(t *testing.T, cfg Config, killWorker int) (Result, PoolMetrics) {
	t.Helper()
	pool, err := NewNetPool(
		PoolConfig{Slots: 2, Medians: 2, Clients: 3},
		NetPoolConfig{Listen: "127.0.0.1:0", Workers: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	workers := []*chaosWorker{
		startChaosWorker(t, pool.WorkerAddr()),
		startChaosWorker(t, pool.WorkerAddr()),
	}
	waitMediansAsking(t, pool)

	var once sync.Once
	kill := func() {
		once.Do(func() {
			workers[killWorker].proxy.Sever()
			startReplacementWorker(t, pool.WorkerAddr())
		})
	}

	var progress func(Progress)
	if cfg.FirstMoveOnly {
		// A single root step never fires progress; kill mid-step instead.
		timer := time.AfterFunc(150*time.Millisecond, kill)
		defer timer.Stop()
	} else {
		progress = func(p Progress) {
			if p.Steps == 1 {
				kill()
			}
		}
	}

	res, err := pool.RunJob(0, cfg, progress)
	if err != nil {
		t.Fatal(err)
	}
	kill() // first-move jobs that beat the timer still exercise the sever
	m := pool.Metrics()
	pool.Shutdown()
	for _, w := range workers {
		w.proxy.Close()
		<-w.done
	}
	return res, m
}

// TestChaosKillEquivalence kills one of two workers mid-job — a median and
// the clients holding its chunks with it — lets a replacement rejoin, and
// requires the result bit-identical to the undisturbed solo run, per
// domain.
func TestChaosKillEquivalence(t *testing.T) {
	noGoroutineLeak(t)
	cfgs := map[string]Config{
		"morpion":  {Level: 2, Root: morpion.New(morpion.Var4D), Seed: 11, Memorize: true, FirstMoveOnly: true},
		"samegame": {Level: 2, Root: samegame.NewRandom(6, 6, 3, 3), Seed: 5, Memorize: true},
		"sudoku":   {Level: 2, Root: sudoku.New(2), Seed: 7},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			solo, err := Reference(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Worker 0 hosts a median and two clients (c c m): killing it
			// loses a granted candidate (scheduler re-grant) and the
			// clients holding its median's chunks at once.
			res, m := chaosRun(t, cfg, 0)
			assertSameResult(t, "chaos kill vs solo", res, solo)
			if m.WorkersLost < 1 {
				t.Fatalf("no worker loss recorded: %+v", m)
			}
			if m.WorkersRejoined < 1 {
				t.Fatalf("no rejoin recorded: %+v", m)
			}
			if !cfg.FirstMoveOnly {
				// The kill landed mid-job with grants outstanding on the
				// dead medians, so work must have been re-granted — and
				// the job must have seen it.
				if m.Regranted < 1 || res.Regranted < 1 {
					t.Fatalf("no re-grants recorded (pool %d, job %d)", m.Regranted, res.Regranted)
				}
			}
		})
	}
}

// TestChaosKillClientsReissue kills worker 1, which hosts a median and
// the client holding its chunks (c m): the scheduler re-grants the dead
// median's candidate to the survivor, and the job still matches solo
// bit-for-bit.
func TestChaosKillClientsReissue(t *testing.T) {
	noGoroutineLeak(t)
	cfg := Config{Level: 2, Root: samegame.NewRandom(6, 6, 3, 3), Seed: 5, Memorize: true}
	solo, err := Reference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Worker 1 hosts the last median and client ranks (c m).
	res, m := chaosRun(t, cfg, 1)
	assertSameResult(t, "chaos client kill vs solo", res, solo)
	if m.WorkersLost < 1 || m.WorkersRejoined < 1 {
		t.Fatalf("churn not recorded: %+v", m)
	}
}

// TestChaosBlackholeHeartbeat wedges a worker's stream without closing it
// — only the heartbeat can notice — and requires detection, replacement
// and a bit-identical result.
func TestChaosBlackholeHeartbeat(t *testing.T) {
	cfg := Config{Level: 2, Root: sudoku.New(2), Seed: 7}
	solo, err := Reference(cfg)
	if err != nil {
		t.Fatal(err)
	}

	pool, err := NewNetPool(
		PoolConfig{Slots: 1, Medians: 2, Clients: 3},
		NetPoolConfig{
			Listen: "127.0.0.1:0", Workers: 2,
			Heartbeat: 25 * time.Millisecond, HeartbeatTimeout: 100 * time.Millisecond,
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	workers := []*chaosWorker{
		startChaosWorker(t, pool.WorkerAddr()),
		startChaosWorker(t, pool.WorkerAddr()),
	}

	var once sync.Once
	res, err := pool.RunJob(0, cfg, func(p Progress) {
		once.Do(func() {
			workers[0].proxy.Blackhole(true)
			startReplacementWorker(t, pool.WorkerAddr())
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != solo.Score || res.Steps != solo.Steps ||
		res.Jobs != solo.Jobs || res.WorkUnits != solo.WorkUnits {
		t.Fatalf("blackhole run diverged: %+v vs solo %+v", res, solo)
	}
	m := pool.Metrics()
	if m.WorkersLost < 1 {
		t.Fatalf("heartbeat never declared the blackholed worker lost: %+v", m)
	}
	pool.Shutdown()
	for _, w := range workers {
		w.proxy.Close()
		<-w.done
	}
}

// TestChaosLateJoinDuringCancel pins the edge where a job is cancelled
// while no worker has ever joined: the cancellation must drain cleanly
// (nothing is granted, everything queued is abandoned), and a worker
// joining afterwards serves the next job normally.
func TestChaosLateJoinDuringCancel(t *testing.T) {
	pool, err := NewNetPool(
		PoolConfig{Slots: 1, Medians: 1, Clients: 2},
		NetPoolConfig{Listen: "127.0.0.1:0", Workers: 1},
	)
	if err != nil {
		t.Fatal(err)
	}

	h, err := pool.StartJob(0, Config{Level: 2, Root: sudoku.New(2), Seed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the first step's offers queue
	pool.CancelJob(0)
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("workerless cancellation did not mark the job stopped")
	}

	// The late worker joins a pool whose only job is long gone; the next
	// job must still match its solo twin.
	wait := startNetWorkers(t, pool.WorkerAddr(), 1)
	cfg := Config{Level: 2, Root: sudoku.New(2), Seed: 7}
	after, err := pool.RunJob(0, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := Reference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "post-cancel late-join job", after, solo)

	pool.Shutdown()
	wait()
}

// waitMediansAsking waits until the coordinator has received one frame per
// median: the opening work request each median sends as its worker starts.
// From then on every median waits at the scheduler, so the first step's
// candidates go to all of them, and a worker killed at the first step
// always takes a grant with it, however fast the survivor plays.
func waitMediansAsking(t *testing.T, pool *Pool) {
	t.Helper()
	waitPoolCond(t, pool, "every median's opening work request", func(m PoolMetrics) bool {
		return m.Net.FramesRecv >= uint64(pool.cfg.Medians)
	})
}

// waitPoolCond polls the pool's metrics until cond holds.
func waitPoolCond(t *testing.T, pool *Pool, what string, cond func(PoolMetrics) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond(pool.Metrics()) {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s: %+v", what, pool.Metrics())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosDegradeNoReplacement is the graceful-degradation acceptance
// test: one of two workers is killed mid-job and NO replacement ever
// dials in. After the grace window the pool abandons the worker and
// re-maps its rank range onto the survivor; the in-flight job and a
// second job run entirely on the shrunken world must both be
// bit-identical to the undisturbed solo run, per domain.
func TestChaosDegradeNoReplacement(t *testing.T) {
	noGoroutineLeak(t)
	cfgs := map[string]Config{
		"morpion":  {Level: 2, Root: morpion.New(morpion.Var4D), Seed: 11, Memorize: true, FirstMoveOnly: true},
		"samegame": {Level: 2, Root: samegame.NewRandom(6, 6, 3, 3), Seed: 5, Memorize: true},
		"sudoku":   {Level: 2, Root: sudoku.New(2), Seed: 7},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			solo, err := Reference(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pool, err := NewNetPool(
				PoolConfig{Slots: 2, Medians: 2, Clients: 3},
				NetPoolConfig{
					Listen: "127.0.0.1:0", Workers: 2,
					Degrade: true, MinWorkers: 1,
					ReplaceGrace: 150 * time.Millisecond,
				},
			)
			if err != nil {
				t.Fatal(err)
			}
			workers := []*chaosWorker{
				startChaosWorker(t, pool.WorkerAddr()),
				startChaosWorker(t, pool.WorkerAddr()),
			}

			// Worker 1 hosts a median and a client (c m), so the
			// survivor keeps a median and two clients (c c m), which
			// finish any job alone.
			var once sync.Once
			kill := func() { once.Do(func() { workers[1].proxy.Sever() }) }
			var progress func(Progress)
			if cfg.FirstMoveOnly {
				timer := time.AfterFunc(150*time.Millisecond, kill)
				defer timer.Stop()
			} else {
				progress = func(p Progress) {
					if p.Steps == 1 {
						kill()
					}
				}
			}

			res, err := pool.RunJob(0, cfg, progress)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, "degraded kill vs solo", res, solo)
			kill() // first-move jobs that beat the timer still degrade the pool

			// With no replacement the grace window must expire into an
			// abandonment, never a rejoin.
			waitPoolCond(t, pool, "worker abandonment", func(m PoolMetrics) bool {
				return m.WorkersAbandoned >= 1 && m.Degraded
			})

			// A job started on the already-shrunken world: same answer,
			// and the degraded flag is now deterministic.
			res2, err := pool.RunJob(0, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, "fully degraded job vs solo", res2, solo)
			if !res2.Degraded {
				t.Fatal("job on a degraded pool did not report Degraded")
			}
			m := pool.Metrics()
			if m.WorkersRejoined != 0 {
				t.Fatalf("phantom rejoin with no replacement: %+v", m)
			}
			if m.Failed {
				t.Fatalf("pool above its floor reported failed: %+v", m)
			}

			pool.Shutdown()
			for _, w := range workers {
				w.proxy.Close()
				<-w.done
			}
		})
	}
}

// TestChaosDegradeFailFast pins the bounded-loss escalation: with Degrade
// off, an abandonment fails the running job promptly with ErrDegraded
// (no stall), refuses new jobs, and a worker rejoining after all revives
// the pool to full, bit-identical service.
func TestChaosDegradeFailFast(t *testing.T) {
	noGoroutineLeak(t)
	cfg := Config{Level: 2, Root: samegame.NewRandom(6, 6, 3, 3), Seed: 5, Memorize: true}
	solo, err := Reference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const grace = 100 * time.Millisecond
	pool, err := NewNetPool(
		PoolConfig{Slots: 1, Medians: 2, Clients: 2},
		NetPoolConfig{
			Listen: "127.0.0.1:0", Workers: 2,
			ReplaceGrace: grace, // Degrade off: any abandonment fails the pool
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	workers := []*chaosWorker{
		startChaosWorker(t, pool.WorkerAddr()),
		startChaosWorker(t, pool.WorkerAddr()),
	}

	// Worker 1 (ranks c m) is severed after the first root step, before
	// the second step's candidates are offered. The survivor (c m) could
	// finish the job alone, so everything it sends the coordinator is held
	// for ten grace windows from just before the sever until the job has
	// failed: no score of the second step arrives before the abandonment,
	// and the job is still running when it lands.
	var once sync.Once
	res, err := pool.RunJob(0, cfg, func(p Progress) {
		if p.Steps == 1 {
			once.Do(func() {
				workers[0].proxy.SetDelayDir(faultnet.Up, 10*grace, 0)
				workers[1].proxy.Sever()
			})
		}
	})
	workers[0].proxy.SetDelayDir(faultnet.Up, 0, 0)
	if err != ErrDegraded {
		t.Fatalf("fail-fast job returned (%+v, %v), want ErrDegraded", res, err)
	}
	if !res.Degraded {
		t.Fatal("failed job did not report Degraded")
	}
	if _, err := pool.RunJob(0, cfg, nil); err != ErrDegraded {
		t.Fatalf("job on failed pool returned %v, want ErrDegraded", err)
	}
	m := pool.Metrics()
	if !m.Failed || m.WorkersAbandoned < 1 {
		t.Fatalf("fail-fast not reflected in metrics: %+v", m)
	}

	// Capacity returns: the abandoned range is revived and service is
	// restored in full — the same job now matches solo exactly.
	replacement := startReplacementWorker(t, pool.WorkerAddr())
	waitPoolCond(t, pool, "pool revival", func(m PoolMetrics) bool {
		return !m.Failed && !m.Degraded && m.WorkersRejoined >= 1
	})
	after, err := pool.RunJob(0, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "revived pool vs solo", after, solo)
	if after.Degraded {
		t.Fatal("revived pool still reports Degraded")
	}

	pool.Shutdown()
	for _, w := range workers {
		w.proxy.Close()
		<-w.done
	}
	<-replacement.done
}
