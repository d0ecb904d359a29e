package parallel

// Evaluator acceptance tests — the contract of the pluggable rollout
// backend:
//
//   - nil evaluator is bit-identical to the pre-evaluator code (golden
//     results pinned below, captured before the Evaluator field existed);
//   - a guided job returns the same result solo (direct, unbatched
//     evaluation), on a wall pool and on a net pool (both batched): batching
//     and transport never change results;
//   - a worker killed with evaluation batches in flight does not change the
//     result either (re-issued rollouts replay the same rng keys and the
//     pure evaluator re-scores identically);
//   - unregistered names are rejected at submission, on every entry point.

import (
	"strings"
	"testing"
	"time"

	"repro/internal/morpion"
	"repro/internal/samegame"
	"repro/internal/sudoku"
)

// goldenNil pins the nil-evaluator results for the three reference
// configs. The values were recorded before the Evaluator option existed;
// the uniform path must keep drawing the same rng stream forever.
var goldenNil = []struct {
	name      string
	cfg       func() Config
	score     float64
	steps     int
	jobs      int64
	workUnits int64
}{
	{
		name: "morpion",
		cfg: func() Config {
			return Config{Level: 2, Root: morpion.New(morpion.Var4D), Seed: 11, Memorize: true, FirstMoveOnly: true}
		},
		score: 33, steps: 1, jobs: 16446, workUnits: 254341,
	},
	{
		name: "samegame",
		cfg: func() Config {
			return Config{Level: 2, Root: samegame.NewRandom(5, 5, 3, 3), Seed: 5, Memorize: true}
		},
		score: 1023, steps: 8, jobs: 185, workUnits: 508,
	},
	{
		name: "sudoku",
		cfg: func() Config {
			return Config{Level: 2, Root: sudoku.New(2), Seed: 7}
		},
		score: 16, steps: 16, jobs: 311, workUnits: 1723,
	},
}

// TestNilEvaluatorGolden is the backwards-compatibility pin: a config with
// no evaluator must reproduce the recorded pre-evaluator results exactly —
// score, step count and the full rollout accounting. Reference is held to
// the same constants as RunWall, which anchors the oracle independently of
// every engine it judges. A 1×1 wall pool plays its jobs with Reference's
// own loop, so it is held to the constants too, never to Reference.
func TestNilEvaluatorGolden(t *testing.T) {
	noGoroutineLeak(t)
	inline, err := NewPool(PoolConfig{Slots: 1, Medians: 1, Clients: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer inline.Shutdown()
	runs := map[string]func(Config) (Result, error){
		"wall":          func(cfg Config) (Result, error) { return RunWall(4, 3, cfg) },
		"reference":     Reference,
		"1x1 wall pool": func(cfg Config) (Result, error) { return inline.RunJob(0, cfg, nil) },
	}
	for _, g := range goldenNil {
		t.Run(g.name, func(t *testing.T) {
			for run, fn := range runs {
				res, err := fn(g.cfg())
				if err != nil {
					t.Fatal(err)
				}
				if res.Score != g.score || res.Steps != g.steps ||
					res.Jobs != g.jobs || res.WorkUnits != g.workUnits {
					t.Fatalf("%s: nil-evaluator run diverged from pre-evaluator golden:\n got %+v\nwant score=%v steps=%d jobs=%d units=%d",
						run, res, g.score, g.steps, g.jobs, g.workUnits)
				}
			}
		})
	}
}

// TestEvaluatorEquivalence runs every domain with the heuristic evaluator
// solo (direct evaluation in the client), on an in-process pool and on a
// distributed pool (both batched): all three must agree bit-for-bit. The
// pool batch shape is deliberately smaller than the rollout concurrency so
// size flushes actually happen; the short deadline keeps straggler batches
// from serializing the test.
func TestEvaluatorEquivalence(t *testing.T) {
	poolShape := PoolConfig{
		Slots: 2, Medians: 2, Clients: 3,
		EvalBatch: 2, EvalFlush: 100 * time.Microsecond,
	}
	pool, err := NewNetPool(poolShape, NetPoolConfig{Listen: "127.0.0.1:0", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	wait := startNetWorkers(t, pool.WorkerAddr(), 2)

	wallPool, err := NewPool(poolShape)
	if err != nil {
		t.Fatal(err)
	}

	for _, g := range goldenNil {
		t.Run(g.name, func(t *testing.T) {
			cfg := g.cfg()
			cfg.Evaluator = "heuristic"
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
			assertSameResult(t, "wall pool (batched) vs solo (direct)", walled, solo)
			assertSameResult(t, "net pool (batched) vs solo (direct)", netted, solo)
		})
	}

	// The wall pool hosts every client in this process, so its batcher must
	// have seen the evaluations — and with batch size 2 under 3 concurrent
	// rollouts, at least one flush must have filled.
	m := wallPool.Metrics()
	if m.EvalRequests == 0 || m.EvalBatches == 0 {
		t.Fatalf("wall pool batcher saw no evaluations: %+v", m)
	}
	if m.EvalFlushSize == 0 {
		t.Fatalf("no size-triggered flush despite batch 2 under 3 clients: %+v", m)
	}
	if m.EvalBatchMax < 2 {
		t.Fatalf("batch never filled: %+v", m)
	}
	if m.EvalFlushSize+m.EvalFlushDeadline != m.EvalBatches {
		t.Fatalf("flush triggers do not add up: %+v", m)
	}

	wallPool.Shutdown()
	pool.Shutdown()
	wait()
}

// TestChaosKillEvaluatorBatch kills a worker while evaluation batches are
// in flight on its client ranks. The re-issued rollouts replay the same
// coordinate-keyed rng streams through a fresh batcher on the replacement
// worker, so the result must still match the undisturbed solo run.
func TestChaosKillEvaluatorBatch(t *testing.T) {
	cfg := Config{
		Level: 2, Root: samegame.NewRandom(6, 6, 3, 3), Seed: 5,
		Memorize: true, Evaluator: "heuristic",
	}
	solo, err := Reference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Worker 0 hosts medians and a client: the kill loses granted
	// candidates and in-flight evaluation batches at once.
	res, m := chaosRun(t, cfg, 0)
	assertSameResult(t, "chaos kill mid-batch vs solo", res, solo)
	if m.WorkersLost < 1 || m.WorkersRejoined < 1 {
		t.Fatalf("churn not recorded: %+v", m)
	}
}

// TestEvalBatchClampedToClients pins the concurrency cap: a batch size
// beyond the client ranks a process hosts could never fill (each client
// submits one position at a time), so every evaluation would serialize on
// the flush deadline. The pool must clamp, and after a guided job the
// batcher must show size-triggered flushes — impossible at the requested
// size of 64 under 2 clients.
func TestEvalBatchClampedToClients(t *testing.T) {
	pool, err := NewPool(PoolConfig{
		Slots: 1, Medians: 1, Clients: 2,
		EvalBatch: 64, EvalFlush: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown()
	if got := pool.batch.size; got != 2 {
		t.Fatalf("batch size not clamped to hosted clients: got %d, want 2", got)
	}

	cfg := Config{
		Level: 2, Root: samegame.NewRandom(5, 5, 3, 3), Seed: 5,
		Memorize: true, Evaluator: "heuristic",
	}
	solo, err := Reference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pool.RunJob(0, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "clamped pool vs solo", res, solo)

	m := pool.Metrics()
	if m.EvalFlushSize == 0 {
		t.Fatalf("no size-triggered flush: clamp not effective, batcher ran deadline-only: %+v", m)
	}
	if m.EvalBatchMax > 2 {
		t.Fatalf("batch exceeded hosted client count: %+v", m)
	}
}

// TestUnknownEvaluatorRejected pins submission-time validation on both
// entry points: a job naming an unregistered evaluator must fail fast, not
// run with silently uniform playouts.
func TestUnknownEvaluatorRejected(t *testing.T) {
	cfg := Config{Level: 2, Root: sudoku.New(2), Seed: 7, Evaluator: "no-such-evaluator"}
	if _, err := RunWall(4, 3, cfg); err == nil || !strings.Contains(err.Error(), "no-such-evaluator") {
		t.Fatalf("RunWall accepted unknown evaluator: %v", err)
	}
	pool, err := NewPool(PoolConfig{Slots: 1, Medians: 1, Clients: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown()
	if _, err := pool.StartJob(0, cfg, nil); err == nil || !strings.Contains(err.Error(), "no-such-evaluator") {
		t.Fatalf("pool accepted unknown evaluator: %v", err)
	}
}
