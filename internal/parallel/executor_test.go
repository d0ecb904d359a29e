package parallel

// Tests of the pool's rollout executor (executor): a median posts each
// step of its game and claims its rollouts beside the helpers of its
// process. An equivalence table over layouts with and without helpers,
// a worker killed while its helpers hold a step, and a race test of the
// daemon's default layout under mixed concurrent jobs: whoever plays
// which rollout, every result must equal Reference's. All of it rides the
// race job: helpers read the median's step position and buffers while the
// median plays beside them.

import (
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/game"
	"repro/internal/morpion"
	"repro/internal/mpi"
	"repro/internal/rng"
	"repro/internal/samegame"
	"repro/internal/sudoku"
)

// lateGame returns the position `left` moves before the end of a seeded
// level-1 game from root: the real domain at a depth where level-2 and
// level-3 games of several steps finish in test time.
func lateGame(root game.State, left int, seed uint64) game.State {
	line := core.NewSearcher(rng.New(seed), core.DefaultOptions()).Nested(root.Clone(), 1).Sequence
	st := root.Clone()
	for _, m := range line[:max(0, len(line)-left)] {
		st.Play(m)
	}
	return st
}

// coarseJob is a sudoku endgame at level 3: its median steps play level-1
// rollouts, so a whole job (tens of milliseconds) outlasts a woken
// helper's wait for a processor even on a loaded machine.
func coarseJob() Config {
	return Config{Level: 3, Root: lateGame(sudoku.New(3), 55, 3), Seed: 17, Memorize: true}
}

// TestChunkShapeEquivalence is the executor-shape table: 2 medians with 1,
// 2, 4 and 16 clients × three domains × level 2 and 3 × the lockstep and
// the speculating root, on the wall pool and on a net pool of two workers,
// each against Reference. With 1 and 2 clients no process hosts more
// clients than medians, so no helper runs and the medians play their steps
// themselves; with 4 and 16 every process runs helpers, and they join
// steps.
func TestChunkShapeEquivalence(t *testing.T) {
	noGoroutineLeak(t)
	type job struct {
		name string
		cfg  Config
	}
	var jobs []job
	for _, d := range []struct {
		name string
		root game.State
		left [2]int // moves left at level 2, level 3
	}{
		{"sudoku3", sudoku.New(3), [2]int{55, 22}},
		{"morpion4D", morpion.New(morpion.Var4D), [2]int{12, 6}},
		{"samegame", samegame.NewRandom(8, 8, 4, 7), [2]int{12, 8}},
	} {
		for i, level := range []int{2, 3} {
			jobs = append(jobs, job{
				name: d.name + "/level" + strconv.Itoa(level),
				cfg:  Config{Level: level, Root: lateGame(d.root, d.left[i], 3), Seed: 17, Memorize: true},
			})
		}
	}
	solo := make([]Result, len(jobs))
	for i, j := range jobs {
		var err error
		if solo[i], err = Reference(j.cfg); err != nil {
			t.Fatal(err)
		}
		if solo[i].Steps < 2 || solo[i].Jobs == 0 {
			t.Fatalf("%s: degenerate oracle (%d steps, %d rollouts)", j.name, solo[i].Steps, solo[i].Jobs)
		}
	}

	for _, clients := range []int{1, 2, 4, 16} {
		cfg := PoolConfig{Slots: 1, Medians: 2, Clients: clients}
		wall, err := NewPool(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// One median per net worker; with one client, one worker runs
		// none.
		workers := 2
		net, err := NewNetPool(cfg, NetPoolConfig{Listen: "127.0.0.1:0", Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		wait := startNetWorkers(t, net.WorkerAddr(), workers)
		wasted := map[string]int64{}
		for i, j := range jobs {
			for _, speculate := range []int{0, 2} {
				c := j.cfg
				c.Speculate = speculate
				for name, pool := range map[string]*Pool{"wall": wall, "net": net} {
					res, err := pool.RunJob(0, c, nil)
					if err != nil {
						t.Fatal(err)
					}
					assertSameResult(t, name+" pool, "+j.name+" vs solo", res, solo[i])
					if speculate > 0 && res.Speculated == 0 {
						t.Fatalf("%s pool, %s: Speculate=%d job never speculated", name, j.name, speculate)
					}
					wasted[name] += res.SpecWasted
				}
			}
		}
		t.Logf("%d clients: speculating rows wasted %d candidates on the wall pool, %d on the net pool",
			clients, wasted["wall"], wasted["net"])
		// Helpers joined steps exactly where the layout runs them.
		helpers := clients > 2
		for name, pool := range map[string]*Pool{"wall": wall, "net": net} {
			if m := pool.Metrics(); (m.Chunks > 0) != helpers {
				t.Fatalf("%d clients for 2 medians: helpers joined %d steps on the %s pool, want steps joined: %v",
					clients, m.Chunks, name, helpers)
			}
		}
		wall.Shutdown()
		net.Shutdown()
		wait()
	}
}

// TestChaosKillClientsHoldingChunks kills worker 1 of a two-worker pool
// (one median and two helpers each) mid-job: a median dies together with
// the helpers sharing its steps. The scheduler re-grants the median's
// candidate, and the finished job must be identical to solo, with no drift
// in Jobs or WorkUnits.
func TestChaosKillClientsHoldingChunks(t *testing.T) {
	noGoroutineLeak(t)
	cfg := Config{Level: 2, Root: samegame.NewRandom(8, 8, 4, 7), Seed: 5, Memorize: true}
	solo, err := Reference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewNetPool(PoolConfig{Slots: 1, Medians: 2, Clients: 4},
		NetPoolConfig{Listen: "127.0.0.1:0", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Each worker hosts a median and runs two helpers.
	workers := []*chaosWorker{
		startChaosWorker(t, pool.WorkerAddr()),
		startChaosWorker(t, pool.WorkerAddr()),
	}
	var once sync.Once
	res, err := pool.RunJob(0, cfg, func(p Progress) {
		if p.Steps == 1 {
			once.Do(func() {
				workers[1].proxy.Sever()
				startReplacementWorker(t, pool.WorkerAddr())
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "clients killed holding chunks vs solo", res, solo)
	m := pool.Metrics()
	if m.WorkersLost < 1 || m.WorkersRejoined < 1 {
		t.Fatalf("churn not recorded: %+v", m)
	}
	if m.Chunks == 0 {
		t.Fatalf("no helper joined a step of %d rollouts", m.Jobs)
	}
	pool.Shutdown()
	for _, w := range workers {
		w.proxy.Close()
		<-w.done
	}
}

// TestExecutorSharesSteps runs the daemon's default layout in process — 4
// slots × 4 medians × 8 clients, so eight helpers share the medians' steps
// — under four concurrent jobs that mix domain, level, the heuristic
// evaluator, the verified cache and speculation. Each result must equal
// Reference's, helpers must have joined steps, and shutdown must stop
// every helper. The CI race job runs it twenty times.
func TestExecutorSharesSteps(t *testing.T) {
	noGoroutineLeak(t)
	jobs := []Config{
		{Level: 2, Root: lateGame(sudoku.New(3), 55, 3), Seed: 17, Memorize: true},
		{Level: 2, Root: samegame.NewRandom(8, 8, 4, 7), Seed: 3, Memorize: true, Evaluator: game.HeuristicEvaluatorName},
		{Level: 3, Root: lateGame(sudoku.New(3), 22, 3), Seed: 4, Memorize: true, Cache: true, CacheVerify: true},
		{Level: 2, Root: lateGame(morpion.New(morpion.Var4D), 12, 3), Seed: 5, Memorize: true, Speculate: 2},
	}
	solo := make([]Result, len(jobs))
	for i, cfg := range jobs {
		var err error
		if solo[i], err = Reference(cfg); err != nil {
			t.Fatal(err)
		}
	}
	pool, err := NewPool(PoolConfig{CacheVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown()
	if n, _ := pool.world.helpers(0); n != 8 {
		t.Fatalf("default layout runs %d helpers, want 8", n)
	}
	var wg sync.WaitGroup
	res := make([]Result, len(jobs))
	errs := make([]error, len(jobs))
	for i, cfg := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i], errs[i] = pool.RunJob(i, cfg, nil)
		}()
	}
	wg.Wait()
	for i := range jobs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		assertSameResult(t, "job "+strconv.Itoa(i)+" on the default layout", res[i], solo[i])
	}
	if res[3].Speculated == 0 {
		t.Fatal("the Speculate=2 job never speculated")
	}
	if m := pool.Metrics(); m.Chunks == 0 {
		t.Fatalf("no helper joined a step of %d rollouts", m.Jobs)
	}
}

// TestLostLinkStopsHelpers severs the coordinator link of a worker that
// runs three helpers beside its median, in the middle of a job: its
// ServeWorker must report the loss and return with every helper stopped,
// and a replacement worker finishes the job with Reference's answer.
func TestLostLinkStopsHelpers(t *testing.T) {
	noGoroutineLeak(t)
	cfg := Config{Level: 2, Root: lateGame(sudoku.New(3), 55, 3), Seed: 17, Memorize: true}
	solo, err := Reference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewNetPool(PoolConfig{Slots: 1, Medians: 1, Clients: 3}, NetPoolConfig{Listen: "127.0.0.1:0", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := faultnet.NewProxy(pool.WorkerAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	w, err := mpi.DialWorker(proxy.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan WorkerStats, 1)
	go func() {
		st, err := ServeWorker(w)
		if err != nil {
			t.Errorf("severed worker: %v", err)
		}
		served <- st
	}()

	var st WorkerStats
	var running int
	var replacement *chaosWorker
	res, err := pool.RunJob(0, cfg, func(p Progress) {
		if p.Steps != 1 {
			return
		}
		proxy.Sever()
		st = <-served
		running = helpersRunning()
		replacement = startReplacementWorker(t, pool.WorkerAddr())
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "job across a lost link", res, solo)
	if !st.Lost || st.Medians != 1 || st.Clients != 3 {
		t.Fatalf("severed worker's stats %+v, want a lost link, 1 median and 3 helpers", st)
	}
	if running != 0 {
		t.Fatalf("%d helpers still running after the severed worker returned", running)
	}
	pool.Shutdown()
	<-replacement.done
}

// helpersRunning counts the goroutines in an executor's helper loop.
func helpersRunning() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "parallel.(*executor).runHelper(")
}
