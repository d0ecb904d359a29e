package parallel

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/game"
	"repro/internal/morpion"
	"repro/internal/mpi"
)

// fastVirtual returns VirtualOptions sized for tests: small median pool and
// cheap unit cost so simulations stay quick.
func fastVirtual(medians int) VirtualOptions {
	return VirtualOptions{UnitCost: time.Microsecond, Medians: medians}
}

// testJobScale restores the paper's computation-to-communication ratio for
// the tiny 4D level-2 jobs used in tests (see Config.JobScale).
const testJobScale = 20000

func TestParallelSolvesArmTreeExactly(t *testing.T) {
	// A level-2 parallel search on a depth-2 arm tree must find the global
	// optimum under both dispatchers, and so must Reference: the client
	// evaluations are exact on depth-1 subtrees and the median and root
	// argmaxes lift them (same induction as the sequential search).
	runs := map[string]func(Config) (Result, error){
		"reference": Reference,
	}
	for _, algo := range []Algorithm{RoundRobin, LastMinute} {
		runs[algo.String()] = func(cfg Config) (Result, error) {
			cfg.Algo = algo
			return RunVirtual(cluster.Homogeneous(4), cfg, fastVirtual(8))
		}
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			tree := game.NewArmTree(3, 2, 77)
			res, err := run(Config{Level: 2, Root: tree, Seed: 1, Memorize: true})
			if err != nil {
				t.Fatal(err)
			}
			if want := tree.Optimum(); res.Score != want {
				t.Fatalf("%s found %v, optimum %v", name, res.Score, want)
			}
			if len(res.Sequence) != 2 {
				t.Fatalf("sequence length %d, want 2", len(res.Sequence))
			}
		})
	}
}

func TestParallelMorpionSequenceReplays(t *testing.T) {
	start := morpion.New(morpion.Var4D)
	cfg := Config{Algo: RoundRobin, Level: 2, Root: start, Seed: 3, Memorize: true}
	res, err := RunVirtual(cluster.Homogeneous(8), cfg, fastVirtual(16))
	if err != nil {
		t.Fatal(err)
	}
	st := start.Clone()
	for i, m := range res.Sequence {
		legal := false
		for _, lm := range st.LegalMoves(nil) {
			if lm == m {
				legal = true
				break
			}
		}
		if !legal {
			t.Fatalf("root move %d is illegal on replay", i)
		}
		st.Play(m)
	}
	if !st.Terminal() {
		t.Fatal("root game did not reach a terminal position")
	}
	if st.Score() != res.Score {
		t.Fatalf("replayed score %v != reported %v", st.Score(), res.Score)
	}
	if res.Jobs == 0 || res.WorkUnits == 0 {
		t.Fatalf("no client work recorded: %+v", res)
	}
}

func TestParallelDeterministic(t *testing.T) {
	run := func() Result {
		cfg := Config{Algo: LastMinute, Level: 2, Root: morpion.New(morpion.Var4D),
			Seed: 42, Memorize: true, FirstMoveOnly: true}
		res, err := RunVirtual(cluster.Homogeneous(8), cfg, fastVirtual(16))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Score != b.Score || a.Elapsed != b.Elapsed || a.FirstMove != b.FirstMove || a.Jobs != b.Jobs {
		t.Fatalf("virtual runs differ:\n%+v\n%+v", a, b)
	}
}

func TestFirstMoveMode(t *testing.T) {
	cfg := Config{Algo: RoundRobin, Level: 2, Root: morpion.New(morpion.Var4D),
		Seed: 5, Memorize: true, FirstMoveOnly: true}
	res, err := RunVirtual(cluster.Homogeneous(4), cfg, fastVirtual(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sequence) != 1 {
		t.Fatalf("first-move mode played %d moves", len(res.Sequence))
	}
	if res.FirstMove != res.Sequence[0] {
		t.Fatal("FirstMove does not match sequence head")
	}
	if res.Score <= 0 {
		t.Fatalf("first-move evaluation score %v", res.Score)
	}
}

func TestSpeedupWithMoreClients(t *testing.T) {
	// The defining property of the paper: more clients, less elapsed
	// (virtual) time for the same experiment. 4D level 2, first move.
	elapsed := map[int]time.Duration{}
	for _, n := range []int{1, 4, 16} {
		cfg := Config{Algo: RoundRobin, Level: 2, Root: morpion.New(morpion.Var4D),
			Seed: 7, Memorize: true, FirstMoveOnly: true, JobScale: testJobScale}
		res, err := RunVirtual(cluster.Homogeneous(n), cfg, fastVirtual(48))
		if err != nil {
			t.Fatal(err)
		}
		elapsed[n] = res.Elapsed
	}
	t.Logf("first-move times: 1=%v 4=%v 16=%v", elapsed[1], elapsed[4], elapsed[16])
	if !(elapsed[4] < elapsed[1]) || !(elapsed[16] < elapsed[4]) {
		t.Fatalf("no speedup: %v", elapsed)
	}
	speedup16 := float64(elapsed[1]) / float64(elapsed[16])
	if speedup16 < 3 {
		t.Fatalf("16-client speedup only %.2f", speedup16)
	}
}

func TestLastMinuteBeatsRoundRobinOnHeterogeneous(t *testing.T) {
	// Table VI's headline: on a heterogeneous cluster the Last-Minute
	// dispatcher outperforms Round-Robin, which blindly queues jobs on
	// oversubscribed half-speed clients.
	spec := cluster.Hetero8x4p8x2()
	times := map[Algorithm]time.Duration{}
	for _, algo := range []Algorithm{RoundRobin, LastMinute} {
		cfg := Config{Algo: algo, Level: 2, Root: morpion.New(morpion.Var4D),
			Seed: 11, Memorize: true, FirstMoveOnly: true, JobScale: testJobScale}
		res, err := RunVirtual(spec, cfg, fastVirtual(48))
		if err != nil {
			t.Fatal(err)
		}
		times[algo] = res.Elapsed
	}
	t.Logf("heterogeneous first move: RR=%v LM=%v", times[RoundRobin], times[LastMinute])
	if times[LastMinute] >= times[RoundRobin] {
		t.Fatalf("LM (%v) not faster than RR (%v) on heterogeneous cluster",
			times[LastMinute], times[RoundRobin])
	}
}

// noGoroutineLeak fails the test if, once it is over, the process does not
// get back to the goroutine count it had when the test began: every rank,
// timer and helper a run, a stop or a shutdown started must have exited.
// The count is polled because a goroutine that has been told to stop may
// still be on its way out.
func noGoroutineLeak(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines before the test, %d after:\n%s",
					before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(time.Millisecond)
		}
	})
}

func TestWallTransportSmoke(t *testing.T) {
	// The same protocol runs natively on goroutines.
	noGoroutineLeak(t)
	tree := game.NewArmTree(3, 2, 5)
	cfg := Config{Algo: LastMinute, Level: 2, Root: tree, Seed: 2, Memorize: true}
	res, err := RunWall(4, 6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := tree.Optimum(); res.Score != want {
		t.Fatalf("wall run found %v, optimum %v", res.Score, want)
	}
	if res.Elapsed <= 0 {
		t.Fatal("no wall time elapsed")
	}
}

func TestClientBusyAccounting(t *testing.T) {
	cfg := Config{Algo: RoundRobin, Level: 2, Root: morpion.New(morpion.Var4D),
		Seed: 13, Memorize: true, FirstMoveOnly: true}
	res, err := RunVirtual(cluster.Homogeneous(4), cfg, fastVirtual(8))
	if err != nil {
		t.Fatal(err)
	}
	var total time.Duration
	for i, b := range res.ClientBusy {
		if b < 0 {
			t.Fatalf("client %d negative busy time", i)
		}
		if b > res.Elapsed {
			t.Fatalf("client %d busy %v exceeds makespan %v", i, b, res.Elapsed)
		}
		total += b
	}
	if total == 0 {
		t.Fatal("no client was ever busy")
	}
	if limit := res.Elapsed * time.Duration(len(res.ClientBusy)); total > limit {
		t.Fatalf("total busy %v exceeds capacity %v", total, limit)
	}
}

func TestMoreMoviesThanMediansWraps(t *testing.T) {
	// With only 2 medians the root's ~40 first moves wrap around the
	// median pool; scores must still pair up correctly (FIFO per median).
	tree := game.NewArmTree(5, 2, 21)
	cfg := Config{Algo: RoundRobin, Level: 2, Root: tree, Seed: 9, Memorize: true}
	res, err := RunVirtual(cluster.Homogeneous(3), cfg, fastVirtual(2))
	if err != nil {
		t.Fatal(err)
	}
	if want := tree.Optimum(); res.Score != want {
		t.Fatalf("wrapped medians broke pairing: got %v, want %v", res.Score, want)
	}
}

func TestExecuteValidation(t *testing.T) {
	spec := cluster.Homogeneous(2)
	good := Config{Algo: RoundRobin, Level: 2, Root: game.NewArmTree(2, 2, 1), Memorize: true}

	bad := good
	bad.Level = 1
	if _, err := RunVirtual(spec, bad, fastVirtual(2)); err == nil {
		t.Error("level 1 accepted")
	}

	bad = good
	bad.Root = nil
	if _, err := RunVirtual(spec, bad, fastVirtual(2)); err == nil {
		t.Error("nil root accepted")
	}

	// An unknown algorithm used to reach a panic inside the dispatcher's
	// goroutine (static) or silently run arrival-order dispatch (pull).
	for _, static := range []bool{false, true} {
		bad = good
		bad.Algo, bad.Static = 7, static
		if _, err := RunVirtual(spec, bad, fastVirtual(2)); err == nil {
			t.Errorf("static=%v: algorithm 7 accepted", static)
		}
	}

	lay := spec.Layout(2)
	wrong := mpi.NewVirtualCluster(mpi.VirtualConfig{Speeds: []float64{1, 1}})
	if _, err := Execute(wrong, lay, good); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestLevel3SmokeTest(t *testing.T) {
	// Level 3 (clients run level-1 rollouts) on the cheap arm tree:
	// depth-3 tree solved exactly.
	if testing.Short() {
		t.Skip("level 3 in short mode")
	}
	tree := game.NewArmTree(3, 3, 33)
	cfg := Config{Algo: LastMinute, Level: 3, Root: tree, Seed: 17, Memorize: true}
	res, err := RunVirtual(cluster.Homogeneous(8), cfg, fastVirtual(16))
	if err != nil {
		t.Fatal(err)
	}
	if want := tree.Optimum(); res.Score != want {
		t.Fatalf("level 3 found %v, optimum %v", res.Score, want)
	}
}

func TestAlgorithmString(t *testing.T) {
	if RoundRobin.String() != "RR" || LastMinute.String() != "LM" {
		t.Fatal("algorithm names changed")
	}
}
