package parallel

// Tests for the demand-driven (pull / work-stealing) root scheduler: the
// static-vs-pull equivalence the job-key random streams guarantee, the
// pathological layouts the dispatcher must survive, mid-game cancellation
// draining in-flight grants, and the straggler experiment behind the
// scheduler's existence: with a slow median, demand-driven assignment
// beats the paper's static cyclic order by a wide margin.

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/game"
	"repro/internal/morpion"
	"repro/internal/mpi"
)

// stragglerVirtual are the virtual options of the straggler experiments:
// a large unit cost makes the medians' own cloning work dominate the
// round-trip latencies, the regime where median speed matters (the paper's
// medians all share one server; ours may straggle).
func stragglerVirtual(medians int) VirtualOptions {
	return VirtualOptions{UnitCost: time.Millisecond, Medians: medians}
}

func run(t *testing.T, spec cluster.Spec, cfg Config, opts VirtualOptions) Result {
	t.Helper()
	res, err := RunVirtual(spec, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sameGame(t *testing.T, a, b Result, what string) {
	t.Helper()
	if a.Score != b.Score {
		t.Fatalf("%s: scores differ: %v vs %v", what, a.Score, b.Score)
	}
	if a.FirstMove != b.FirstMove {
		t.Fatalf("%s: first moves differ: %v vs %v", what, a.FirstMove, b.FirstMove)
	}
	if len(a.Sequence) != len(b.Sequence) {
		t.Fatalf("%s: sequence lengths differ: %d vs %d", what, len(a.Sequence), len(b.Sequence))
	}
	for i := range a.Sequence {
		if a.Sequence[i] != b.Sequence[i] {
			t.Fatalf("%s: sequences diverge at move %d: %v vs %v", what, i, a.Sequence[i], b.Sequence[i])
		}
	}
}

func TestPullStaticEquivalence(t *testing.T) {
	// The acceptance property of the scheduler rewrite: with equal node
	// speeds, the pull and static schedulers play bit-identical games —
	// client scores are keyed by logical job coordinates, not by executing
	// rank, so only timing may differ between the schedulers.
	for _, algo := range []Algorithm{RoundRobin, LastMinute} {
		cfg := Config{Algo: algo, Level: 2, Root: morpion.New(morpion.Var4D),
			Seed: 42, Memorize: true}
		static, pull := cfg, cfg
		static.Static = true
		a := run(t, cluster.Homogeneous(8), static, fastVirtual(8))
		b := run(t, cluster.Homogeneous(8), pull, fastVirtual(8))
		sameGame(t, a, b, algo.String()+" static-vs-pull")
	}
}

func TestPullSchedulingInvariance(t *testing.T) {
	// Stronger than equal-speed equivalence: the played game does not
	// depend on the median pool size, the client count, the prefetch
	// window or node speeds at all — scheduling decisions only move work
	// between ranks, never change what is computed.
	base := Config{Algo: LastMinute, Level: 2, Root: morpion.New(morpion.Var4D),
		Seed: 9, Memorize: true, FirstMoveOnly: true}
	ref := run(t, cluster.Homogeneous(8), base, fastVirtual(8))

	variants := []struct {
		name string
		spec cluster.Spec
		opts VirtualOptions
		mod  func(*Config)
	}{
		{"fewer medians", cluster.Homogeneous(8), fastVirtual(2), nil},
		{"more medians than moves", cluster.Homogeneous(8), fastVirtual(64), nil},
		{"fewer clients", cluster.Homogeneous(2), fastVirtual(8), nil},
		{"no prefetch", cluster.Homogeneous(8), fastVirtual(8), func(c *Config) { c.Prefetch = -1 }},
		{"deep prefetch", cluster.Homogeneous(8), fastVirtual(8), func(c *Config) { c.Prefetch = 3 }},
		{"slow median", cluster.Homogeneous(8).WithSlowMedian(0, 0.1), fastVirtual(8), nil},
		{"round-robin ordering", cluster.Homogeneous(8), fastVirtual(8), func(c *Config) { c.Algo = RoundRobin }},
	}
	for _, v := range variants {
		cfg := base
		if v.mod != nil {
			v.mod(&cfg)
		}
		got := run(t, v.spec, cfg, v.opts)
		sameGame(t, ref, got, v.name)
	}
}

func TestPullSingleMedian(t *testing.T) {
	// One median serializes the root's candidates entirely; the pull
	// protocol must still pair every grant with its score.
	tree := game.NewArmTree(3, 2, 77)
	cfg := Config{Algo: RoundRobin, Level: 2, Root: tree, Seed: 1, Memorize: true}
	res := run(t, cluster.Homogeneous(4), cfg, fastVirtual(1))
	if want := tree.Optimum(); res.Score != want {
		t.Fatalf("single median found %v, optimum %v", res.Score, want)
	}
}

func TestPullMoreMediansThanMoves(t *testing.T) {
	// More medians than legal moves: the surplus medians' work requests
	// queue at the root across steps and must be answered (or shut down)
	// without deadlock.
	tree := game.NewArmTree(2, 3, 5)
	cfg := Config{Algo: LastMinute, Level: 2, Root: tree, Seed: 3, Memorize: true}
	res := run(t, cluster.Homogeneous(4), cfg, fastVirtual(32))
	if want := tree.Optimum(); res.Score != want {
		t.Fatalf("found %v, optimum %v", res.Score, want)
	}
}

func TestStaticWrapKeepsPairing(t *testing.T) {
	// The static fallback's per-median FIFO pairing (the hoisted queue
	// map) survives medians answering several positions per step.
	tree := game.NewArmTree(5, 2, 21)
	cfg := Config{Algo: RoundRobin, Level: 2, Root: tree, Seed: 9, Memorize: true, Static: true}
	res := run(t, cluster.Homogeneous(3), cfg, fastVirtual(2))
	if want := tree.Optimum(); res.Score != want {
		t.Fatalf("wrapped medians broke static pairing: got %v, want %v", res.Score, want)
	}
}

func TestPullStragglerRanks(t *testing.T) {
	// A 10×-slower rank — median or client — must only cost time, never
	// correctness: the game is identical to the homogeneous run.
	cfg := Config{Algo: LastMinute, Level: 2, Root: morpion.New(morpion.Var4D),
		Seed: 5, Memorize: true, FirstMoveOnly: true, JobScale: 100}
	ref := run(t, cluster.Homogeneous(8), cfg, fastVirtual(4))

	slowMedian := run(t, cluster.Homogeneous(8).WithSlowMedian(0, 0.1), cfg, fastVirtual(4))
	sameGame(t, ref, slowMedian, "10x-slow median")

	slowClient := cluster.Homogeneous(7)
	slowClient.Nodes = append(slowClient.Nodes, cluster.Node{GHz: cluster.ReferenceGHz / 10, Cores: 2, Clients: 1})
	slowClient.Name = "straggler-client"
	got := run(t, slowClient, cfg, fastVirtual(4))
	sameGame(t, ref, got, "10x-slow client")
	if got.Elapsed <= ref.Elapsed {
		t.Fatalf("straggler client run not slower: %v vs %v", got.Elapsed, ref.Elapsed)
	}
}

func TestStopAfterDrainsInFlightGrants(t *testing.T) {
	// Mid-game cancellation: the root stops granting, drains the scores of
	// the already-granted candidates, and tears the world down with no
	// process left parked mid-protocol.
	noGoroutineLeak(t)
	full := Config{Algo: LastMinute, Level: 2, Root: morpion.New(morpion.Var4D),
		Seed: 7, Memorize: true}
	ref := run(t, cluster.Homogeneous(4), full, fastVirtual(4))
	if len(ref.Sequence) < 10 {
		t.Fatalf("reference game too short to cut: %d moves", len(ref.Sequence))
	}

	for _, static := range []bool{false, true} {
		cfg := full
		cfg.Static = static
		cfg.StopAfter = ref.Elapsed / 3

		spec := cluster.Homogeneous(4)
		lay := spec.Layout(4)
		vc := mpi.NewVirtualCluster(mpi.VirtualConfig{
			Speeds: lay.Speeds, UnitCost: time.Microsecond,
			Network: mpi.DefaultNetwork(), // match fastVirtual's timing
		})
		res, err := Execute(vc, lay, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stopped {
			t.Fatalf("static=%v: StopAfter %v did not stop a %v game", static, cfg.StopAfter, ref.Elapsed)
		}
		if len(res.Sequence) == 0 || len(res.Sequence) >= len(ref.Sequence) {
			t.Fatalf("static=%v: stopped game played %d of %d moves", static, len(res.Sequence), len(ref.Sequence))
		}
		if res.Elapsed >= ref.Elapsed {
			t.Fatalf("static=%v: stopping did not save time: %v vs %v", static, res.Elapsed, ref.Elapsed)
		}
		if parked := vc.Parked(); len(parked) != 0 {
			t.Fatalf("static=%v: ranks still parked after stop: %v", static, parked)
		}
		// The partial game must replay: on Morpion the score is the number
		// of moves played, so the reported score pins the drained state.
		if res.Score != float64(len(res.Sequence)) {
			t.Fatalf("static=%v: stopped score %v != moves played %d", static, res.Score, len(res.Sequence))
		}
		// The prefix played before the stop matches the uncancelled game.
		for i, m := range res.Sequence {
			if m != ref.Sequence[i] {
				t.Fatalf("static=%v: stopped game diverged at move %d", static, i)
			}
		}
	}
}

func TestWorkStealingBeatsStaticWithStraggler(t *testing.T) {
	// The acceptance experiment: one 2×-slow median on an otherwise
	// homogeneous cluster. Static cyclic assignment funnels ~1/M of every
	// step's candidates through the straggler, so the whole step waits for
	// it; demand-driven grants give it proportionally fewer candidates.
	// Required margin: step latency at least 25% lower. First-move mode
	// makes the run a single root step, so Elapsed is the step latency.
	// 64 clients keep the client pool out of the bottleneck, so the step
	// latency is governed by the medians — the resource being scheduled.
	spec := cluster.Homogeneous(64).WithSlowMedian(0, 0.5)
	cfg := Config{Algo: LastMinute, Level: 2, Root: morpion.New(morpion.Var4D),
		Seed: 3, Memorize: true, FirstMoveOnly: true}

	static := cfg
	static.Static = true
	a := run(t, spec, static, stragglerVirtual(6))
	b := run(t, spec, cfg, stragglerVirtual(6))
	sameGame(t, a, b, "straggler static-vs-pull")

	t.Logf("straggler step latency: static=%v pull=%v (%.1f%% lower)",
		a.Elapsed, b.Elapsed, 100*(1-float64(b.Elapsed)/float64(a.Elapsed)))
	if float64(b.Elapsed) > 0.75*float64(a.Elapsed) {
		t.Fatalf("work stealing step latency %v not >=25%% below static %v", b.Elapsed, a.Elapsed)
	}
}

func TestPullIdleAndQueueAccounting(t *testing.T) {
	cfg := Config{Algo: LastMinute, Level: 2, Root: morpion.New(morpion.Var4D),
		Seed: 13, Memorize: true, FirstMoveOnly: true}
	res := run(t, cluster.Homogeneous(4), cfg, fastVirtual(4))

	if len(res.MedianIdle) != 4 || len(res.ClientIdle) != 4 {
		t.Fatalf("idle slices sized %d/%d, want 4/4", len(res.MedianIdle), len(res.ClientIdle))
	}
	var medianIdle time.Duration
	for i, d := range res.MedianIdle {
		if d < 0 || d > res.Elapsed {
			t.Fatalf("median %d idle %v out of [0, %v]", i, d, res.Elapsed)
		}
		medianIdle += d
	}
	if medianIdle == 0 {
		t.Fatal("no median idle time recorded")
	}
	for i, d := range res.ClientIdle {
		if d < 0 || d > res.Elapsed {
			t.Fatalf("client %d idle %v out of [0, %v]", i, d, res.Elapsed)
		}
		if d+res.ClientBusy[i] > res.Elapsed {
			t.Fatalf("client %d idle %v + busy %v exceeds makespan %v", i, d, res.ClientBusy[i], res.Elapsed)
		}
	}
	if res.QueueDepthMax == 0 || res.QueueDepthMean <= 0 {
		t.Fatalf("queue depth not sampled: max=%d mean=%v", res.QueueDepthMax, res.QueueDepthMean)
	}
	if res.Steps != 1 {
		t.Fatalf("first-move run recorded %d steps", res.Steps)
	}
}

func TestPrefetchHidesGrantLatency(t *testing.T) {
	// With the default window of one prefetched request, the next grant
	// travels while the median plays the current game; without it every
	// game pays the full request leg of the round trip. A single median
	// pins the assignment order (no balance effects), so the saved latency
	// must show up directly in the makespan. Same game either way.
	tree := game.NewArmTree(6, 2, 13)
	cfg := Config{Algo: LastMinute, Level: 2, Root: tree, Seed: 11, Memorize: true}
	noPrefetch := cfg
	noPrefetch.Prefetch = -1
	a := run(t, cluster.Homogeneous(4), cfg, fastVirtual(1))
	b := run(t, cluster.Homogeneous(4), noPrefetch, fastVirtual(1))
	sameGame(t, a, b, "prefetch-vs-none")
	t.Logf("makespan: prefetch=%v none=%v", a.Elapsed, b.Elapsed)
	if a.Elapsed >= b.Elapsed {
		t.Fatalf("prefetching did not hide the request latency: %v vs %v", a.Elapsed, b.Elapsed)
	}
}

func TestPullWallTransport(t *testing.T) {
	// The pull protocol runs natively on goroutines, and because scores
	// are keyed by job coordinates the played game is reproducible even
	// under real concurrency.
	tree := game.NewArmTree(3, 2, 5)
	cfg := Config{Algo: LastMinute, Level: 2, Root: tree, Seed: 2, Memorize: true}
	a, err := RunWall(4, 6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := tree.Optimum(); a.Score != want {
		t.Fatalf("wall pull run found %v, optimum %v", a.Score, want)
	}
	b, err := Reference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameGame(t, a, b, "wall determinism")
}
