package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/game"
	"repro/internal/morpion"
	"repro/internal/rng"
	"repro/internal/samegame"
	"repro/internal/sudoku"
)

// soloOp is one core.Searcher.Nested call.
type soloOp struct {
	name  string
	root  func() game.State
	level int
	seed  uint64
}

// soloNested runs sequential nested searches on one goroutine: the
// domains, core and rng do all the work and mpi, parallel and service
// none. It is the single-thread baseline every parallel number is read
// against, and the workload on which a hot-path change must show.
type soloNested struct {
	tiny     bool
	ops      []soloOp
	searcher *core.Searcher
}

// soloCounters are the searcher's own counts for one round.
type soloCounters struct{ playouts, steps int64 }

// The counts are chosen so that the percentiles of a round's 93 latencies
// fall inside a group of like operations and not on the edge between two:
// sorted by cost the round is 50 sudoku-4 L1, 20 morpion-5D L1, 16
// sudoku-3 L2, 6 samegame L2 and the morpion-4D L2 search, so the median is
// a sudoku-4 L1 search and the 90th percentile a sudoku-3 L2 search, the
// two kinds whose cost depends least on the search seed.
func (w *soloNested) setup(g *gen) error {
	add := func(n int, name string, level int, root func(i int) game.State) {
		for i := 0; i < n; i++ {
			i := i
			w.ops = append(w.ops, soloOp{name: name, level: level, seed: g.jobSeed(), root: func() game.State { return root(i) }})
		}
	}
	scale := func(n int) int {
		if w.tiny {
			return 1
		}
		return n
	}
	if !w.tiny {
		add(1, "morpion4D/L2", 2, func(int) game.State { return morpion.New(morpion.Var4D) })
	}
	add(scale(16), "sudoku3/L2", 2, func(int) game.State { return sudoku.New(3) })
	add(scale(6), "samegame8x8x4/L2", 2, func(i int) game.State { return samegame.NewRandom(8, 8, 4, boardCatalog[i]) })
	add(scale(20), "morpion5D/L1", 1, func(int) game.State { return morpion.New(morpion.Var5D) })
	add(scale(50), "sudoku4/L1", 1, func(int) game.State { return sudoku.New(4) })
	g.shuffle(len(w.ops), func(i, k int) { w.ops[i], w.ops[k] = w.ops[k], w.ops[i] })
	w.searcher = core.NewSearcher(rng.New(1), core.DefaultOptions())
	return nil
}

func (w *soloNested) round(n int, tr *tracer, parent int) (roundResult, error) {
	var res roundResult
	var count soloCounters
	for _, op := range w.ops {
		st := op.root()
		w.searcher.Reseed(op.seed, 0)
		before := w.searcher.Stats()
		t0 := time.Now()
		r := w.searcher.Nested(st, op.level)
		t1 := time.Now()
		after := w.searcher.Stats()
		tr.add(parent, "core.nested", t0, t1, map[string]any{"op": op.name})
		out := opResult{
			name: op.name, latency: t1.Sub(t0), pinned: true,
			dig: digest{
				Score: r.Score, Steps: len(r.Sequence), SeqHash: hashSequence(r.Sequence),
				Rollouts: after.Playouts - before.Playouts, WorkUnits: after.Steps - before.Steps,
			},
		}
		if len(r.Sequence) == 0 {
			out.failed = fmt.Sprintf("%s returned an empty sequence", op.name)
		}
		res.ops = append(res.ops, out)
		count.playouts += out.dig.Rollouts
		count.steps += out.dig.WorkUnits
	}
	if tr != nil {
		res.layer = count
	}
	return res, nil
}

func (w *soloNested) layers(m metricSet, _ *probeResults, traced []measuredRound) {
	if len(traced) == 0 {
		return
	}
	// Rounds are identical, so any traced round's counts are the counts.
	c := traced[0].res.layer.(soloCounters)
	m.set("core.playouts", float64(c.playouts))
	m.set("core.steps", float64(c.steps))
}

func (w *soloNested) close() error { return nil }
