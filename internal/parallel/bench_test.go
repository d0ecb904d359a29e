package parallel

// Microbenchmarks of the parallel layer on the virtual transport. Real
// time here is dominated by the discrete-event simulation, so ns/op tracks
// the scheduling and protocol overhead per run; the custom metrics carry
// the quantities the schedulers compete on:
//
//	vsec          virtual makespan of the run, in seconds
//	midle_pct     mean median idle percentage (load imbalance signal)
//	cidle_pct     mean client idle percentage
//	qdepth        mean ready-queue depth at the root (pull only)
//
// These flow into the CI benchmark artifact (cmd/benchreg), which fails on
// ns/op regressions against the committed baseline.

import (
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/game"
	"repro/internal/morpion"
	"repro/internal/mpi"
	"repro/internal/stats"
	"repro/internal/sudoku"
)

// benchRun executes one first-move run and reports the custom metrics.
func benchRun(b *testing.B, spec cluster.Spec, static bool, medians int, unitCost time.Duration) {
	b.Helper()
	cfg := Config{
		Algo: LastMinute, Level: 2, Root: morpion.New(morpion.Var4D),
		Seed: 3, Memorize: true, FirstMoveOnly: true, Static: static,
	}
	opts := VirtualOptions{UnitCost: unitCost, Medians: medians}
	var last Result
	for i := 0; i < b.N; i++ {
		res, err := RunVirtual(spec, cfg, opts)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	reportIdle(b, last)
}

func reportIdle(b *testing.B, res Result) {
	b.Helper()
	b.ReportMetric(res.Elapsed.Seconds(), "vsec")
	b.ReportMetric(100*stats.MeanFraction(res.MedianIdle, res.Elapsed), "midle_pct")
	b.ReportMetric(100*stats.MeanFraction(res.ClientIdle, res.Elapsed), "cidle_pct")
	b.ReportMetric(res.QueueDepthMean, "qdepth")
}

// BenchmarkStaticFirstMove is the paper's scheduler: candidates pushed to
// medians in cyclic order.
func BenchmarkStaticFirstMove(b *testing.B) {
	benchRun(b, cluster.Homogeneous(16), true, 8, time.Microsecond)
}

// BenchmarkPullFirstMove is the demand-driven scheduler on the identical
// homogeneous cluster: same game, pull protocol overhead on top.
func BenchmarkPullFirstMove(b *testing.B) {
	benchRun(b, cluster.Homogeneous(16), false, 8, time.Microsecond)
}

// BenchmarkPullStraggler is the heterogeneous case the pull scheduler
// exists for: one 2×-slow median. vsec (virtual makespan) is the metric
// that must beat BenchmarkStaticStraggler's; ns/op only tracks simulation
// overhead.
func BenchmarkPullStraggler(b *testing.B) {
	benchRun(b, cluster.Homogeneous(64).WithSlowMedian(0, 0.5), false, 6, time.Millisecond)
}

// BenchmarkStaticStraggler is the static baseline on the straggler
// cluster.
func BenchmarkStaticStraggler(b *testing.B) {
	benchRun(b, cluster.Homogeneous(64).WithSlowMedian(0, 0.5), true, 6, time.Millisecond)
}

// BenchmarkAsyncRoot measures the pipelined root (Config.Speculate) on
// the straggler cluster over a whole multi-step game — necessarily
// multi-step, because speculation cannot shorten a single step: it
// overlaps the straggler's step tail with the next step's head, so its
// win only exists at step boundaries. steplat_ms (mean per-step latency,
// Result.StepLatency) is the metric that must beat the synchronous pull
// root's on this cluster (the k=0 row of the harness straggler
// ablation); waste_pct is the price paid for it, the fraction of jobs
// charged to losing speculative branches.
func BenchmarkAsyncRoot(b *testing.B) {
	cfg := Config{
		Algo: LastMinute, Level: 2, Root: morpion.New(morpion.Var4D),
		Seed: 3, Memorize: true, JobScale: 1, Speculate: 2,
	}
	spec := cluster.Homogeneous(64).WithSlowMedian(0, 0.5)
	opts := VirtualOptions{UnitCost: time.Millisecond, Medians: 6}
	var last Result
	for i := 0; i < b.N; i++ {
		res, err := RunVirtual(spec, cfg, opts)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	reportIdle(b, last)
	var sum time.Duration
	for _, d := range last.StepLatency {
		sum += d
	}
	if n := len(last.StepLatency); n > 0 {
		b.ReportMetric(1e3*(sum/time.Duration(n)).Seconds(), "steplat_ms")
	}
	if last.Jobs > 0 {
		b.ReportMetric(100*float64(last.SpecWasted)/float64(last.Jobs), "waste_pct")
	}
}

// BenchmarkWallPull measures the pull protocol natively on goroutines.
func BenchmarkWallPull(b *testing.B) {
	cfg := Config{
		Algo: LastMinute, Level: 2, Root: morpion.New(morpion.Var4D),
		Seed: 3, Memorize: true, FirstMoveOnly: true,
	}
	for i := 0; i < b.N; i++ {
		if _, err := RunWall(4, 8, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoolFineJob measures the serving pool at its finest grain: one
// slot and one median, jobs whose rollouts are single level-0 playouts.
// With one client the slot plays the job itself (no messages); the
// chunked/ cases give it two clients, so two helpers share the median's
// steps through the executor. allocs/op is the figure the gate watches
// (the pool's own garbage per job on top of the domain's); rollouts/chunk
// is the mean rollouts per step a helper joined, reported where helpers
// join.
func BenchmarkPoolFineJob(b *testing.B) {
	cfgs := map[string]Config{
		"sudoku3":   {Level: 2, Root: sudoku.New(3), Seed: 3},
		"morpion4D": {Level: 2, Root: morpion.New(morpion.Var4D), Seed: 3, Memorize: true, FirstMoveOnly: true},
	}
	for _, clients := range []int{1, 2} {
		for name, cfg := range cfgs {
			if clients > 1 {
				name = "chunked/" + name
			}
			b.Run(name, func(b *testing.B) {
				pool, err := NewPool(PoolConfig{Slots: 1, Medians: 1, Clients: clients})
				if err != nil {
					b.Fatal(err)
				}
				defer pool.Shutdown()
				if _, err := pool.RunJob(0, cfg, nil); err != nil { // warm the workers' buffers
					b.Fatal(err)
				}
				warm := pool.Metrics()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := pool.RunJob(0, cfg, nil); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if m := pool.Metrics(); m.Chunks > warm.Chunks {
					b.ReportMetric(float64(m.Jobs-warm.Jobs)/float64(m.Chunks-warm.Chunks), "rollouts/chunk")
				}
			})
		}
	}
}

// BenchmarkNetPoolFineJob measures a fine job on net_loopback's pool shape
// — 2 slots, 2 medians, 2 clients — hosted by two ServeWorker goroutines
// dialed in over TCP loopback: the first move of a level-2 sudoku box 3.
// frames/rollout counts the coordinator's frames sent and received per
// rollout, relayed/rollout the share of them the hub forwarded from one
// worker to another. Each worker hosts a median and a client, so it starts
// no helper and its median plays its steps' rollouts itself: what the
// coordinator sees is grants, work requests and step scores, and allocs/op
// does not depend on loopback timing, so the gate watches it.
func BenchmarkNetPoolFineJob(b *testing.B) {
	cfg := Config{Level: 2, Root: sudoku.New(3), Seed: 3, FirstMoveOnly: true}
	pool, err := NewNetPool(PoolConfig{Slots: 2, Medians: 2, Clients: 2}, NetPoolConfig{Listen: "127.0.0.1:0", Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	var workers sync.WaitGroup
	for range 2 {
		w, err := mpi.DialWorker(pool.WorkerAddr(), "")
		if err != nil {
			b.Fatal(err)
		}
		workers.Add(1)
		go func() {
			defer workers.Done()
			if _, err := ServeWorker(w); err != nil {
				b.Error(err)
			}
		}()
	}
	defer func() {
		pool.Shutdown()
		workers.Wait()
	}()
	if _, err := pool.RunJob(0, cfg, nil); err != nil { // warm the workers' buffers
		b.Fatal(err)
	}
	warm, warmNet := pool.Metrics(), pool.net.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pool.RunJob(0, cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	n := pool.net.Stats()
	rollouts := float64(pool.Metrics().Jobs - warm.Jobs)
	b.ReportMetric(float64(n.FramesSent+n.FramesRecv-warmNet.FramesSent-warmNet.FramesRecv)/rollouts, "frames/rollout")
	b.ReportMetric(float64(n.Relayed-warmNet.Relayed)/rollouts, "relayed/rollout")
}

// BenchmarkPoolGuidedJob measures a guided job on the default pool shape
// (4 slots × 4 medians × 8 clients, so eight helpers): the first move of
// a level-2 sudoku box 3 with the heuristic evaluator, so every rollout
// calls the evaluator once per playout step. allocs/op is the figure the gate
// watches.
func BenchmarkPoolGuidedJob(b *testing.B) {
	cfg := Config{
		Level: 2, Root: sudoku.New(3), Seed: 3, FirstMoveOnly: true,
		Evaluator: game.HeuristicEvaluatorName,
	}
	pool, err := NewPool(PoolConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Shutdown()
	if _, err := pool.RunJob(0, cfg, nil); err != nil { // warm the workers' buffers
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pool.RunJob(0, cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}
