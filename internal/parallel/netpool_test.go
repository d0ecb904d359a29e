package parallel

// Cross-transport equivalence: the acceptance contract of the distributed
// rank world. A job's result must be bit-identical whether its medians
// and clients run as goroutines of this process (WallCluster) or inside
// worker processes dialed in over TCP (NetCluster) — same Score, same
// FirstMove, same move Sequence, and the same rollout accounting, because
// every rollout's random stream is keyed by its logical coordinates in
// the search tree, never by where it executes. The workers here run
// in-process over a loopback socket so the race detector sees both sides
// of the wire; the CI smoke job repeats the check with real OS processes
// (examples/distributed).

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/game"
	"repro/internal/morpion"
	"repro/internal/mpi"
	"repro/internal/samegame"
	"repro/internal/sudoku"
)

// startNetWorkers dials n workers into the pool and serves them on
// background goroutines; the returned wait function blocks until they
// drain (after pool.Shutdown).
func startNetWorkers(t *testing.T, addr string, n int) func() {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w, err := mpi.DialWorker(addr, "")
		if err != nil {
			t.Fatalf("worker %d dial: %v", i, err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := ServeWorker(w); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	return wg.Wait
}

// chattyCluster hosts a worker's medians as ServeWorker does, with each
// median's endpoint wrapped in a chattyComm.
type chattyCluster struct {
	*mpi.NetWorker
	sched        mpi.Rank
	peer         mpi.Rank // a median another worker hosts
	sent, leaked *atomic.Int64
}

func (cl chattyCluster) Start(r mpi.Rank, body func(mpi.Comm)) {
	cl.NetWorker.Start(r, func(c mpi.Comm) { body(chattyComm{c, cl}) })
}

// chattyComm sends a copy of each step score to cl.peer before the real
// one, and counts every frame it receives from a worker's rank: the
// scheduler and the slots are the only coordinator ranks a median hears.
type chattyComm struct {
	mpi.Comm
	cl chattyCluster
}

func (c chattyComm) Send(to mpi.Rank, tag mpi.Tag, payload any) {
	if tag == tagStepScore {
		c.Comm.Send(c.cl.peer, tag, payload)
		c.cl.sent.Add(1)
	}
	c.Comm.Send(to, tag, payload)
}

func (c chattyComm) Recv(from mpi.Rank, tag mpi.Tag) mpi.Msg {
	m := c.Comm.Recv(from, tag)
	if m.From > c.cl.sched {
		c.cl.leaked.Add(1)
	}
	return m
}

// serveChatty serves a dialed worker as ServeWorker does, through a
// chattyCluster.
func serveChatty(w *mpi.NetWorker, sent, leaked *atomic.Int64) error {
	cfg, workers, err := decodeWorkerBlob(w.Blob())
	if err != nil {
		return err
	}
	world := newPoolWorld(cfg.withDefaults(), workers)
	lo, hi := w.RankRange()
	peer := world.medians[slices.IndexFunc(world.medians, func(r mpi.Rank) bool { return r < lo || r >= hi })]
	process, _ := world.process(lo)
	helpers, _ := world.helpers(process)
	ex := newExecutor(world.cfg, cache.New(int64(world.cfg.CacheMB)<<20))
	ex.start(helpers, func(int, time.Duration) {})
	startPoolWorkers(chattyCluster{w, world.sched, peer, sent, leaked}, world, ex, func(int, time.Duration) {})
	w.Run()
	ex.close()
	return nil
}

// TestNetPoolDropsWorkerToWorker has each worker's median send every step
// score to the other worker's median too, mid-job, before the real one.
// The hub drops those frames: no median hears a worker's rank, and the
// job still returns Reference's answer.
func TestNetPoolDropsWorkerToWorker(t *testing.T) {
	noGoroutineLeak(t)
	pool, err := NewNetPool(
		PoolConfig{Slots: 1, Medians: 2, Clients: 4},
		NetPoolConfig{Listen: "127.0.0.1:0", Workers: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	var sent, leaked atomic.Int64
	var wg sync.WaitGroup
	for range 2 {
		w, err := mpi.DialWorker(pool.WorkerAddr(), "")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := serveChatty(w, &sent, &leaked); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	cfg := Config{Level: 2, Root: sudoku.New(3), Seed: 3}
	res, err := pool.RunJob(0, cfg, nil)
	pool.Shutdown()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	solo, err := Reference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "net pool with worker-to-worker frames", res, solo)
	if sent.Load() == 0 {
		t.Fatal("no median sent a frame to the other worker")
	}
	if n := leaked.Load(); n != 0 {
		t.Fatalf("medians received %d of %d frames sent by the other worker", n, sent.Load())
	}
}

// assertSameResult compares every deterministic Result field.
func assertSameResult(t *testing.T, name string, got, want Result) {
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
	if got.Jobs != want.Jobs {
		t.Fatalf("%s: rollouts %d != %d", name, got.Jobs, want.Jobs)
	}
	if got.WorkUnits != want.WorkUnits {
		t.Fatalf("%s: work units %d != %d", name, got.WorkUnits, want.WorkUnits)
	}
}

// TestNetPoolEquivalence runs one job per domain on a distributed pool
// (coordinator + 2 loopback workers) and on an in-process pool, and checks
// each against Reference for the same seed.
func TestNetPoolEquivalence(t *testing.T) {
	noGoroutineLeak(t)
	pool, err := NewNetPool(
		PoolConfig{Slots: 2, Medians: 2, Clients: 3},
		NetPoolConfig{Listen: "127.0.0.1:0", Workers: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	wait := startNetWorkers(t, pool.WorkerAddr(), 2)

	wallPool, err := NewPool(PoolConfig{Slots: 2, Medians: 2, Clients: 3})
	if err != nil {
		t.Fatal(err)
	}

	// Morpion runs in first-move mode: one root step exercises the whole
	// wire protocol (offers, grants, dispatcher round trips, rollout
	// accounting) at a fraction of a full game's cost — the full-game
	// cross-transport check runs in the CI distributed smoke job.
	cfgs := map[string]Config{
		"morpion":  {Level: 2, Root: morpion.New(morpion.Var4D), Seed: 11, Memorize: true, FirstMoveOnly: true},
		"samegame": {Level: 2, Root: samegame.NewRandom(5, 5, 3, 3), Seed: 5, Memorize: true},
		"sudoku":   {Level: 2, Root: sudoku.New(2), Seed: 7},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			solo, err := Reference(cfg)
			if err != nil {
				t.Fatal(err)
			}
			walled, err := wallPool.RunJob(0, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			netted, err := pool.RunJob(0, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, "wall pool vs solo", walled, solo)
			assertSameResult(t, "net pool vs solo", netted, solo)
			if netted.Jobs == 0 {
				t.Fatal("no rollouts accounted across the wire")
			}
		})
	}

	// The jobs above crossed the wire: transport counters must show it.
	m := pool.Metrics()
	if m.Net == nil {
		t.Fatal("net pool reports no transport stats")
	}
	if m.Net.FramesSent == 0 || m.Net.FramesRecv == 0 {
		t.Fatalf("no frames counted: %+v", *m.Net)
	}
	if m.Jobs == 0 || m.WorkUnits == 0 {
		t.Fatalf("pool lifetime counters empty: %+v", m)
	}

	wallPool.Shutdown()
	pool.Shutdown()
	wait()
}

// TestNetPoolConcurrentJobs runs a job on every slot at once across the
// wire; each must still match its solo twin despite sharing remote
// medians and clients.
func TestNetPoolConcurrentJobs(t *testing.T) {
	noGoroutineLeak(t)
	pool, err := NewNetPool(
		PoolConfig{Slots: 3, Medians: 2, Clients: 4},
		NetPoolConfig{Listen: "127.0.0.1:0", Workers: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	wait := startNetWorkers(t, pool.WorkerAddr(), 2)

	cfgs := []Config{
		{Level: 2, Root: game.NewArmTree(3, 2, 5), Seed: 2, Memorize: true},
		{Level: 2, Root: sudoku.New(2), Seed: 7, Memorize: true},
		{Level: 2, Root: samegame.NewRandom(5, 5, 3, 3), Seed: 5, Memorize: true},
	}
	var wg sync.WaitGroup
	results := make([]Result, len(cfgs))
	errs := make([]error, len(cfgs))
	for i, cfg := range cfgs {
		i, cfg := i, cfg
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = pool.RunJob(i, cfg, nil)
		}()
	}
	wg.Wait()
	for i, cfg := range cfgs {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		solo, err := Reference(cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, "concurrent net job", results[i], solo)
	}

	pool.Shutdown()
	wait()
}

// TestNetPoolCancellation stops a running job mid-flight on the net pool:
// the drain protocol must hold across the wire (no stuck ranks, partial
// result returned).
func TestNetPoolCancellation(t *testing.T) {
	noGoroutineLeak(t)
	pool, err := NewNetPool(
		PoolConfig{Slots: 1, Medians: 1, Clients: 2},
		NetPoolConfig{Listen: "127.0.0.1:0", Workers: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	wait := startNetWorkers(t, pool.WorkerAddr(), 1)

	// SameGame keeps the drain cheap: cancellation still has to wait out
	// the granted candidates' full median games across the wire, and a
	// level-2 SameGame median game is milliseconds where Morpion's would
	// be tens of seconds under the race detector.
	cfg := Config{Level: 3, Root: samegame.NewRandom(8, 8, 4, 2), Seed: 3, Memorize: true}
	h, err := pool.StartJob(0, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	pool.CancelJob(0)
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("cancelled job not marked stopped")
	}

	// The pool must still serve new jobs after the drain.
	after, err := pool.RunJob(0, Config{Level: 2, Root: sudoku.New(2), Seed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := Reference(Config{Level: 2, Root: sudoku.New(2), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "post-cancel job", after, solo)

	pool.Shutdown()
	wait()
}

// TestNetPoolRejectsUnservableJobs holds submission to the wire's bounds.
// A worker's decoder drops a job frame whose level is past MaxLevel, and
// the slot would size its branch tables by a speculation width past
// MaxSpeculate, so such a job must fail at RunJob rather than wait
// forever for rollouts that never come.
func TestNetPoolRejectsUnservableJobs(t *testing.T) {
	pool, err := NewNetPool(
		PoolConfig{Slots: 1, Medians: 2, Clients: 2},
		NetPoolConfig{Listen: "127.0.0.1:0", Workers: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	wait := startNetWorkers(t, pool.WorkerAddr(), 2)
	defer func() {
		pool.Shutdown()
		wait()
	}()
	for _, cfg := range []Config{
		{Level: 2, Root: sudoku.New(2), Seed: 7, Speculate: MaxSpeculate + 1},
		{Level: MaxLevel + 1, Root: sudoku.New(2), Seed: 7},
	} {
		done := make(chan error, 1)
		go func() {
			_, err := pool.RunJob(0, cfg, nil)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("level %d, speculate %d: job past the wire bounds accepted", cfg.Level, cfg.Speculate)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("level %d, speculate %d: job still running after 10s", cfg.Level, cfg.Speculate)
		}
	}

	// The same job inside the bounds runs to the reference answer.
	cfg := Config{Level: 2, Root: sudoku.New(2), Seed: 7, Speculate: 2}
	res, err := pool.RunJob(0, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := Reference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "speculating job inside the bounds", res, solo)
}
