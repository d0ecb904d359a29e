// Package harness defines the paper's experiments (§V, tables I–VI and the
// figures) and regenerates them at configurable scale.
//
// The paper's absolute numbers come from weeks of 2009-era cluster time
// (sequential level 4 alone is 9d18h). The harness therefore runs the same
// experiment *structure* on scaled-down presets and reports the same
// table rows; the quantities that transfer are the shapes — speedup curves,
// the level-to-level cost blowup, and the Last-Minute vs Round-Robin
// comparison on heterogeneous clusters — not the absolute durations.
// See benchmark/README.md (workload virtual_paper) for the measured record.
//
// Scaling knobs (see Preset): the Morpion variant (4D stands in for 5D),
// the nesting levels (2/3 stand in for 3/4), and Config.JobScale, which
// restores the paper's computation-to-communication granularity for the
// cheaper stand-in jobs.
package harness

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/morpion"
	"repro/internal/mpi"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Scale selects an experiment preset.
type Scale string

// The three scales: CI runs in a couple of minutes, Lab in under an hour,
// Paper documents the full-size experiment (days of CPU; never run
// implicitly).
const (
	ScaleCI    Scale = "ci"
	ScaleLab   Scale = "lab"
	ScalePaper Scale = "paper"
)

// Preset fixes every knob of an experiment campaign.
type Preset struct {
	Scale   Scale
	Variant morpion.Variant
	// LevelLo/LevelHi stand in for the paper's levels 3 and 4.
	LevelLo, LevelHi int
	// CountsLo are the client counts swept at LevelLo (the paper uses
	// 1..64); CountsHiFM / CountsHiRoll the counts measured at LevelHi for
	// first-move and rollout experiments (empty = skip, like the paper's
	// missing entries).
	CountsLo     []int
	CountsHiFM   []int
	CountsHiRoll []int
	// SeedsLo is the number of repetitions for LevelLo rows; LevelHi rows
	// run once (the paper parenthesizes single-run results).
	SeedsLo int
	// JobScale and UnitCost calibrate the virtual clock (see
	// parallel.Config.JobScale and mpi.VirtualConfig).
	JobScale int64
	UnitCost time.Duration
	Medians  int
	// Fig1Level is the sequential search level used for the figure-1
	// record grid.
	Fig1Level int
}

// PresetFor returns the canonical preset of a scale.
func PresetFor(scale Scale) Preset {
	switch scale {
	case ScaleCI:
		return Preset{
			Scale: ScaleCI, Variant: morpion.Var4D,
			LevelLo: 2, LevelHi: 3,
			CountsLo: []int{1, 2, 4, 8, 16, 32, 64},
			// Hi-level rows are lab-scale; CI leaves them "—" like the
			// paper's own missing cells.
			CountsHiFM: nil, CountsHiRoll: nil,
			SeedsLo:  2,
			JobScale: 8000, UnitCost: mpi.DefaultUnitCost,
			Medians: parallel.PaperMedians, Fig1Level: 1,
		}
	case ScaleLab:
		return Preset{
			Scale: ScaleLab, Variant: morpion.Var4D,
			LevelLo: 2, LevelHi: 3,
			CountsLo:   []int{1, 2, 4, 8, 16, 32, 64},
			CountsHiFM: []int{64, 32, 16}, CountsHiRoll: []int{64},
			SeedsLo:  3,
			JobScale: 8000, UnitCost: mpi.DefaultUnitCost,
			Medians: parallel.PaperMedians, Fig1Level: 2,
		}
	case ScalePaper:
		return Preset{
			Scale: ScalePaper, Variant: morpion.Var5D,
			LevelLo: 3, LevelHi: 4,
			CountsLo:   []int{1, 4, 8, 16, 32, 64},
			CountsHiFM: []int{64, 32, 16, 1}, CountsHiRoll: []int{64, 32},
			SeedsLo:  3,
			JobScale: 1, UnitCost: mpi.DefaultUnitCost,
			Medians: parallel.PaperMedians, Fig1Level: 3,
		}
	default:
		panic(fmt.Sprintf("harness: unknown scale %q", scale))
	}
}

// Measurement is one experimental cell: a (level, clients, algorithm,
// mode) combination with its timing accumulator.
type Measurement struct {
	Table     string
	Level     int
	Clients   int
	Spec      string
	Algo      parallel.Algorithm
	FirstMove bool
	Times     stats.Acc
	Scores    stats.Acc
	Jobs      int64
}

// TableResult is a regenerated paper table.
type TableResult struct {
	ID           string
	Title        string
	Rendered     string
	Measurements []*Measurement
}

// runOnce executes one virtual parallel run and returns its makespan. The
// paper's tables use the static cyclic scheduler — the reproduction
// baseline; the scheduler comparison lives in SchedulerSweep and
// StragglerAblation.
func runOnce(p Preset, spec cluster.Spec, algo parallel.Algorithm, level int, firstMove bool, seed uint64) (parallel.Result, error) {
	cfg := parallel.Config{
		Algo: algo, Level: level, Root: morpion.New(p.Variant),
		Seed: seed, Memorize: true, FirstMoveOnly: firstMove,
		JobScale: p.JobScale, Static: true,
	}
	return parallel.RunVirtual(spec, cfg, parallel.VirtualOptions{
		UnitCost: p.UnitCost, Medians: p.Medians,
	})
}

// measure runs `seeds` repetitions of one cell.
func measure(p Preset, spec cluster.Spec, algo parallel.Algorithm, level int, firstMove bool, seeds int) (*Measurement, error) {
	m := &Measurement{
		Level: level, Clients: spec.NumClients(), Spec: spec.Name,
		Algo: algo, FirstMove: firstMove,
	}
	for s := 0; s < seeds; s++ {
		res, err := runOnce(p, spec, algo, level, firstMove, uint64(s)+1)
		if err != nil {
			return nil, err
		}
		m.Times.AddDuration(res.Elapsed)
		m.Scores.Add(res.Score)
		m.Jobs += res.Jobs
	}
	return m, nil
}

// SequentialTimes regenerates Table I: times for the sequential algorithm
// at both levels, for the first move and for one full rollout. Sequential
// virtual time is metered work converted with the same JobScale as the
// parallel tables, so the numbers are directly comparable.
func SequentialTimes(p Preset, seeds int) (TableResult, error) {
	if seeds < 1 {
		seeds = 1
	}
	type cell struct{ fm, roll stats.Acc }
	cells := map[int]*cell{p.LevelLo: {}, p.LevelHi: {}}

	run := func(level int, seed uint64) (fm, roll time.Duration) {
		meter := &unitMeter{}
		s := core.NewSearcher(rng.New(seed), core.Options{Meter: meter, Memorize: true})
		st := morpion.New(p.Variant)

		// First move: evaluate every initial move with a level-1 search,
		// as the root of nested() does on its first step.
		moves := st.LegalMoves(nil)
		for _, m := range moves {
			child := st.Clone()
			child.Play(m)
			meter.units += core.CloneCost + 1
			s.Nested(child, level-1)
		}
		fm = p.virtual(meter.units)

		// Full rollout: a complete nested game (the first-move work above
		// is the first step of it; the paper times them separately, so we
		// do too, on a fresh meter).
		meter.units = 0
		s2 := core.NewSearcher(rng.New(seed+1000), core.Options{Meter: meter, Memorize: true})
		s2.Nested(morpion.New(p.Variant), level)
		roll = p.virtual(meter.units)
		return fm, roll
	}

	for level := range cells {
		// Hi level runs once (paper's parenthesized singles).
		n := seeds
		if level == p.LevelHi {
			n = 1
			if len(p.CountsHiFM) == 0 && p.Scale == ScaleCI {
				continue // CI skips hi-level sequential too
			}
		}
		for s := 0; s < n; s++ {
			fm, roll := run(level, uint64(s)+1)
			cells[level].fm.AddDuration(fm)
			cells[level].roll.AddDuration(roll)
		}
	}

	tbl := stats.Table{
		Title:  fmt.Sprintf("Table I: times for the sequential algorithm (%s, levels %d/%d)", p.Variant.Name, p.LevelLo, p.LevelHi),
		Header: []string{"level", "first move", "one rollout"},
	}
	for _, level := range []int{p.LevelLo, p.LevelHi} {
		c := cells[level]
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", level), c.fm.PaperStyle(), c.roll.PaperStyle(),
		})
	}
	return TableResult{ID: "I", Title: tbl.Title, Rendered: tbl.Render()}, nil
}

// virtual converts metered units to virtual time at reference speed,
// consistent with the parallel tables' client scaling.
func (p Preset) virtual(units int64) time.Duration {
	return time.Duration(float64(units*p.JobScale) * float64(p.UnitCost))
}

type unitMeter struct{ units int64 }

func (u *unitMeter) Add(n int64) { u.units += n }

// clientTable regenerates tables II–V: one row per client count, columns
// for the two levels.
func clientTable(p Preset, algo parallel.Algorithm, firstMove bool, id, what string) (TableResult, error) {
	countsHi := p.CountsHiRoll
	if firstMove {
		countsHi = p.CountsHiFM
	}
	hiSet := map[int]bool{}
	for _, c := range countsHi {
		hiSet[c] = true
	}

	var ms []*Measurement
	tbl := stats.Table{
		Title: fmt.Sprintf("Table %s: %s times for the %s algorithm (%s)",
			id, what, algoLong(algo), p.Variant.Name),
		Header: []string{"clients", fmt.Sprintf("level %d", p.LevelLo), fmt.Sprintf("level %d", p.LevelHi)},
	}
	for _, n := range p.CountsLo {
		spec := cluster.Homogeneous(n)
		lo, err := measure(p, spec, algo, p.LevelLo, firstMove, p.SeedsLo)
		if err != nil {
			return TableResult{}, err
		}
		lo.Table = id
		ms = append(ms, lo)
		hiCell := "—"
		if hiSet[n] {
			hi, err := measure(p, spec, algo, p.LevelHi, firstMove, 1)
			if err != nil {
				return TableResult{}, err
			}
			hi.Table = id
			ms = append(ms, hi)
			hiCell = hi.Times.PaperStyle()
		}
		tbl.Rows = append(tbl.Rows, []string{fmt.Sprintf("%d", n), lo.Times.PaperStyle(), hiCell})
	}
	return TableResult{ID: id, Title: tbl.Title, Rendered: tbl.Render(), Measurements: ms}, nil
}

func algoLong(a parallel.Algorithm) string {
	if a == parallel.RoundRobin {
		return "Round-Robin"
	}
	return "Last-Minute"
}

// FirstMoveRoundRobin regenerates Table II.
func FirstMoveRoundRobin(p Preset) (TableResult, error) {
	return clientTable(p, parallel.RoundRobin, true, "II", "first move")
}

// RolloutRoundRobin regenerates Table III.
func RolloutRoundRobin(p Preset) (TableResult, error) {
	return clientTable(p, parallel.RoundRobin, false, "III", "rollout")
}

// FirstMoveLastMinute regenerates Table IV.
func FirstMoveLastMinute(p Preset) (TableResult, error) {
	return clientTable(p, parallel.LastMinute, true, "IV", "first move")
}

// RolloutLastMinute regenerates Table V.
func RolloutLastMinute(p Preset) (TableResult, error) {
	return clientTable(p, parallel.LastMinute, false, "V", "rollout")
}

// Heterogeneous regenerates Table VI: first-move times on the two
// unbalanced client layouts, Last-Minute vs Round-Robin.
func Heterogeneous(p Preset) (TableResult, error) {
	specs := []cluster.Spec{cluster.Hetero16x4p16x2(), cluster.Hetero8x4p8x2()}
	algos := []parallel.Algorithm{parallel.LastMinute, parallel.RoundRobin}

	var ms []*Measurement
	tbl := stats.Table{
		Title: fmt.Sprintf("Table VI: first move times on an heterogeneous cluster (%s)", p.Variant.Name),
		Header: []string{"clients", "alg",
			fmt.Sprintf("level %d", p.LevelLo), fmt.Sprintf("level %d", p.LevelHi)},
	}
	runHi := len(p.CountsHiFM) > 0
	for _, spec := range specs {
		for _, algo := range algos {
			lo, err := measure(p, spec, algo, p.LevelLo, true, p.SeedsLo)
			if err != nil {
				return TableResult{}, err
			}
			lo.Table = "VI"
			ms = append(ms, lo)
			hiCell := "—"
			if runHi {
				hi, err := measure(p, spec, algo, p.LevelHi, true, 1)
				if err != nil {
					return TableResult{}, err
				}
				hi.Table = "VI"
				ms = append(ms, hi)
				hiCell = hi.Times.PaperStyle()
			}
			tbl.Rows = append(tbl.Rows, []string{
				spec.Name, algo.String(), lo.Times.PaperStyle(), hiCell,
			})
		}
	}
	return TableResult{ID: "VI", Title: tbl.Title, Rendered: tbl.Render(), Measurements: ms}, nil
}

// Figure1 hunts for a good sequence with a sequential nested search on the
// paper's 5D variant and renders the final grid, the analogue of the
// world-record figure. It reports the score against the known records.
func Figure1(p Preset, seed uint64) (string, error) {
	variant := morpion.Var5D
	s := core.NewSearcher(rng.New(seed), core.DefaultOptions())
	st := morpion.New(variant)
	res := s.Nested(st.Clone(), p.Fig1Level)

	grid, err := morpion.RenderSequence(variant, res.Sequence)
	if err != nil {
		return "", fmt.Errorf("harness: figure 1 sequence does not replay: %w", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1 analogue: best 5D grid found by sequential NMCS level %d\n", p.Fig1Level)
	fmt.Fprintf(&b, "score: %.0f (paper's level-4 cluster record: %d; previous best computer score: 79)\n\n",
		res.Score, morpion.BestKnown("5D"))
	b.WriteString(grid)
	return b.String(), nil
}

// ProtocolFigures regenerates figures 2–5: it runs both dispatchers with
// tracing, validates the streams against the paper's communication
// diagrams, and renders ASCII sequence diagrams with the observed
// parallelism.
func ProtocolFigures(p Preset) (string, error) {
	var b strings.Builder
	for _, algo := range []parallel.Algorithm{parallel.RoundRobin, parallel.LastMinute} {
		col := &trace.Collector{}
		spec := cluster.Homogeneous(8)
		lay := spec.Layout(8)
		cfg := parallel.Config{
			Algo: algo, Level: p.LevelLo, Root: morpion.New(p.Variant),
			Seed: 21, Memorize: true, FirstMoveOnly: true,
			JobScale: p.JobScale, Tracer: col, Static: true,
		}
		if _, err := parallel.RunVirtual(spec, cfg, parallel.VirtualOptions{
			UnitCost: p.UnitCost, Medians: 8,
		}); err != nil {
			return "", err
		}
		events := col.Events()
		if err := trace.Validate(events, algo, lay); err != nil {
			return "", fmt.Errorf("harness: %v protocol trace invalid: %w", algo, err)
		}
		figs := "2-3"
		if algo == parallel.LastMinute {
			figs = "4-5"
		}
		sum := trace.Summary(events)
		fmt.Fprintf(&b, "Figures %s: %s protocol (validated, %d events: a=%d b=%d c=%d c'=%d d=%d)\n",
			figs, algoLong(algo), len(events), sum["a"], sum["b"], sum["c"], sum["c'"], sum["d"])
		fmt.Fprintf(&b, "max jobs simultaneously in flight (fig %s parallelism): %d\n",
			figs[len(figs)-1:], trace.MaxOutstanding(events, lay))
		b.WriteString(trace.Diagram(events, lay, 25))
		b.WriteString("\n")
	}
	return b.String(), nil
}

// Speedup returns mean-time(base clients) / mean-time(n clients) across
// the measurements of a table, or 0 if either cell is missing.
func Speedup(ms []*Measurement, level, base, n int) float64 {
	var tBase, tN time.Duration
	for _, m := range ms {
		if m.Level != level {
			continue
		}
		if m.Clients == base && tBase == 0 {
			tBase = m.Times.MeanDuration()
		}
		if m.Clients == n && tN == 0 {
			tN = m.Times.MeanDuration()
		}
	}
	if tBase == 0 || tN == 0 {
		return 0
	}
	return float64(tBase) / float64(tN)
}

// SummaryText computes the paper's §V headline quantities from the
// regenerated tables: the speedup curve and the heterogeneous LM/RR ratio.
func SummaryText(p Preset, tII, tIV, tVI TableResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Summary (%s scale, %s, levels %d/%d)\n",
		p.Scale, p.Variant.Name, p.LevelLo, p.LevelHi)
	maxN := p.CountsLo[len(p.CountsLo)-1]
	fmt.Fprintf(&b, "Round-Robin level-%d first-move speedup %d clients vs 1: %.1f (paper: 56 on 64 at level 3)\n",
		p.LevelLo, maxN, Speedup(tII.Measurements, p.LevelLo, 1, maxN))
	fmt.Fprintf(&b, "Last-Minute level-%d first-move speedup %d clients vs 1: %.1f\n",
		p.LevelLo, maxN, Speedup(tIV.Measurements, p.LevelLo, 1, maxN))

	// Heterogeneous ratio RR/LM per spec (paper: LM clearly faster at
	// level 4: 28m37s vs 45m17s on 16x4+16x2).
	byKey := map[string]time.Duration{}
	for _, m := range tVI.Measurements {
		if m.Level == p.LevelLo {
			byKey[m.Spec+"/"+m.Algo.String()] = m.Times.MeanDuration()
		}
	}
	for _, spec := range []string{"16x4+16x2", "8x4+8x2"} {
		lm, rr := byKey[spec+"/LM"], byKey[spec+"/RR"]
		if lm > 0 && rr > 0 {
			fmt.Fprintf(&b, "heterogeneous %s: RR/LM time ratio %.2f (LM wins when > 1)\n",
				spec, float64(rr)/float64(lm))
		}
	}
	return b.String()
}
