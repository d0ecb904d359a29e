// Evaluator walkthrough: guide the level-0 playouts of a search with the
// bundled per-domain heuristic, register a custom evaluator, and show the
// "uniform" opt-out on a service configured with a default evaluator.
//
// The paper's playouts are uniform random; an Evaluator (DESIGN.md §10)
// re-weights each playout step's move draw. Evaluators are pure — weights
// depend only on (position, legal moves) — which is why one-shot, pooled
// and distributed runs all return bit-identical results for the same name
// and seed: every client calls the evaluator directly, in its own rollout.
package main

import (
	"context"
	"fmt"
	"log"

	pnmcs "repro"
)

// edgeBias is a deliberately simple custom evaluator: it prefers moves
// with a high encoded value. Weights must be non-negative and depend only
// on the request; returning no weights (or all zeros) tells the searcher
// to fall back to a uniform draw for that position.
type edgeBias struct{}

func (edgeBias) Evaluate(req pnmcs.EvalRequest, w []float64) []float64 {
	for i := range req.Moves {
		w = append(w, float64(i+1))
	}
	return w
}

func main() {
	// Custom evaluators are registered once, by name, before any search
	// uses them. Distributed workers resolve the same name against their
	// own registry, so register in code shared by every process.
	pnmcs.RegisterEvaluator("edge-bias", func() pnmcs.Evaluator { return edgeBias{} })
	fmt.Printf("registered evaluators: %v\n", pnmcs.EvaluatorNames())

	// One-shot parallel runs take the evaluator by name in the config.
	// Same seed, three policies — uniform (paper), bundled heuristic,
	// custom — typically three different games.
	board := func() *pnmcs.SameGame { return pnmcs.NewSameGameSized(8, 8, 4, 7) }
	for _, name := range []string{"", pnmcs.HeuristicEvaluatorName, "edge-bias"} {
		res, err := pnmcs.RunWall(4, 3, pnmcs.ParallelConfig{
			Level: 2, Root: board(), Seed: 11, Memorize: true,
			Evaluator: name,
		})
		if err != nil {
			log.Fatal(err)
		}
		label := name
		if label == "" {
			label = "uniform (paper)"
		}
		fmt.Printf("%-16s score %5.0f in %d moves\n", label, res.Score, len(res.Sequence))
	}

	// A service applies a default evaluator to every job that does not
	// name one.
	svc, err := pnmcs.New(
		pnmcs.WithSlots(2),
		pnmcs.WithPool(2, 4),
		pnmcs.WithEvaluator(pnmcs.HeuristicEvaluatorName),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Shutdown(context.Background())

	run := func(spec pnmcs.JobSpec) pnmcs.JobStatus {
		id, err := svc.Submit(context.Background(), spec)
		if err != nil {
			log.Fatal(err)
		}
		st, err := svc.Wait(context.Background(), id)
		if err != nil {
			log.Fatal(err)
		}
		return st
	}

	spec := pnmcs.JobSpec{Domain: "samegame", Width: 8, Height: 8, Colors: 4,
		BoardSeed: 7, Level: 2, Seed: 11, Memorize: true}
	guided := run(spec) // inherits the service's heuristic default

	uniform := spec
	uniform.Evaluator = pnmcs.EvaluatorUniform // opt this one job back out
	paper := run(uniform)

	fmt.Printf("service: guided (default) score %.0f in %d rollouts, uniform (opt-out) score %.0f in %d rollouts\n",
		guided.Score, guided.Rollouts, paper.Score, paper.Rollouts)
}
