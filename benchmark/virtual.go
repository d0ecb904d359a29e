package main

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/game"
	"repro/internal/parallel"
	"repro/internal/samegame"
	"repro/internal/stats"
	"repro/internal/sudoku"
)

// virtualConfig is one row of the paper's tables: a simulated testbed and
// a scheduling policy.
type virtualConfig struct {
	name   string
	spec   cluster.Spec
	algo   parallel.Algorithm
	static bool
}

// slowMedian plants one median at half speed in the 64-client testbed,
// the straggler the pull scheduler exists to absorb.
func slowMedian() cluster.Spec { return cluster.Homogeneous(64).WithSlowMedian(0, 0.5) }

// virtualConfigs are permanent: their names are metric names.
var virtualConfigs = []virtualConfig{
	{name: "c1_lm", spec: cluster.Homogeneous(1), algo: parallel.LastMinute},
	{name: "c16_lm", spec: cluster.Homogeneous(16), algo: parallel.LastMinute},
	{name: "c64_rr", spec: cluster.Homogeneous(64), algo: parallel.RoundRobin},
	{name: "c64_lm", spec: cluster.Homogeneous(64), algo: parallel.LastMinute},
	{name: "c64_slow_static", spec: slowMedian(), algo: parallel.LastMinute, static: true},
	{name: "c64_slow_pull", spec: slowMedian(), algo: parallel.LastMinute},
}

type virtualJob struct {
	name      string
	level     int
	firstMove bool
	root      func() game.State
	seed      uint64
}

// virtualPaper runs the paper's experiments through the per-run engine on
// the simulated cluster. Every config searches the same two positions, so
// all six execute exactly the same rollouts and differ only in how the
// work was scheduled; simulated makespans are exact, so a scheduling
// change shows without 64 cores, and a round's wall time is the rollouts
// plus what the simulator and the per-run engine cost.
//
// The two jobs are the two ends of the engine. The level-3 first move of
// 9×9 Sudoku is the paper's first-move experiment (tables II, IV, VI): 1700
// coarse level-1 rollouts, a speedup of 25 on 64 clients, and the work that
// depends least on the search seed of any position tried (0.5%, against 3%
// for a SameGame board and 11% for any full level-3 game). The level-2 full
// game of the same puzzle is the rollout experiment (tables III, V) at the
// finest grain: 16 000 single playouts over 81 root steps, where the
// per-step barrier makes the static root lose to the pull root behind a
// slow median and the simulator, not the rollouts, is most of the wall
// time. A first move alone never has more than one root step, and leaves
// static and pull, and round-robin and last-minute, indistinguishable.
type virtualPaper struct {
	tiny bool
	jobs []virtualJob
}

// virtualCounters are one round's simulated figures: makespans summed per
// config over the jobs, and the idle fractions, rollouts and work units of
// the c64_lm runs.
type virtualCounters struct {
	vsec                   map[string]float64
	clientIdle, medianIdle float64
	rollouts, units        int64
}

func (w *virtualPaper) setup(g *gen) error {
	sudoku9 := func() game.State { return sudoku.New(3) }
	w.jobs = []virtualJob{
		{name: "sudoku3/L3/first", level: 3, firstMove: true, seed: g.jobSeed(), root: sudoku9},
		{name: "sudoku3/L2", level: 2, seed: g.jobSeed(), root: sudoku9},
	}
	if w.tiny {
		w.jobs = []virtualJob{{name: "samegame6x6x3/L3", level: 3, seed: g.jobSeed(), root: func() game.State { return samegame.NewRandom(6, 6, 3, boardCatalog[0]) }}}
	}
	return nil
}

func (w *virtualPaper) round(n int, tr *tracer, parent int) (roundResult, error) {
	var res roundResult
	vc64 := virtualCounters{vsec: make(map[string]float64)}
	first := make([]digest, len(w.jobs))
	for ci, vc := range virtualConfigs {
		for ji, job := range w.jobs {
			cfg := parallel.Config{
				Algo: vc.algo, Level: job.level, Root: job.root(), Seed: job.seed,
				Memorize: true, FirstMoveOnly: job.firstMove, Static: vc.static,
			}
			t0 := time.Now()
			r, err := parallel.RunVirtual(vc.spec, cfg, parallel.VirtualOptions{})
			t1 := time.Now()
			if err != nil {
				return res, fmt.Errorf("%s on %s: %w", job.name, vc.name, err)
			}
			tr.add(parent, "parallel.run_virtual", t0, t1, map[string]any{"config": vc.name, "job": job.name, "vsec": r.Elapsed.Seconds()})
			op := opResult{
				name: vc.name + "/" + job.name, latency: t1.Sub(t0), pinned: true,
				dig: digest{
					Score: r.Score, Steps: r.Steps, Rollouts: r.Jobs, WorkUnits: r.WorkUnits,
					SeqHash: hashSequence(r.Sequence), Virtual: r.Elapsed.Nanoseconds(),
				},
			}
			// Scheduling is placement, never semantics: all six configs
			// must return the same search.
			same := op.dig
			same.Virtual = 0
			if ci == 0 {
				first[ji] = same
			} else if same != first[ji] {
				op.failed = fmt.Sprintf("%s differs from %s on %s", vc.name, virtualConfigs[0].name, job.name)
			}
			res.ops = append(res.ops, op)
			vc64.vsec[vc.name] += r.Elapsed.Seconds()
			if vc.name == "c64_lm" {
				vc64.clientIdle += stats.MeanFraction(r.ClientIdle, r.Elapsed) / float64(len(w.jobs))
				vc64.medianIdle += stats.MeanFraction(r.MedianIdle, r.Elapsed) / float64(len(w.jobs))
				vc64.rollouts += r.Jobs
				vc64.units += r.WorkUnits
			}
		}
	}
	if tr != nil {
		res.layer = vc64
	}
	return res, nil
}

func (w *virtualPaper) layers(m metricSet, _ *probeResults, traced []measuredRound) {
	if len(traced) == 0 {
		return
	}
	// Simulated figures are exact: any traced round's values are the values.
	c := traced[0].res.layer.(virtualCounters)
	for name, v := range c.vsec {
		m.set("parallel.virtual.vsec_"+name, v)
	}
	m.set("parallel.virtual.vspeedup", c.vsec["c1_lm"]/c.vsec["c64_lm"])
	m.set("parallel.virtual.vsec_pull_over_static", c.vsec["c64_slow_pull"]/c.vsec["c64_slow_static"])
	m.set("parallel.virtual.client_idle_frac_c64", c.clientIdle)
	m.set("parallel.virtual.median_idle_frac_c64", c.medianIdle)
	m.set("parallel.rollouts", float64(c.rollouts))
	m.set("parallel.work_units", float64(c.units))
}

func (w *virtualPaper) close() error { return nil }
