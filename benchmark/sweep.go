package main

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/service"
)

// sweepRates are the offered loads of the rate sweep, in jobs per second.
var sweepRates = []float64{4, 8, 12, 16, 20, 24}

// sweepWindow is how long each rate is offered.
const sweepWindow = 5 * time.Second

// runSweep offers the fine mix to two planes of equal compute — one pool
// of two slots, two medians and two clients against two pools of one each
// behind the Router — at rising open-loop rates, and prints each plane's
// throughput-latency curve and the highest rate it meets the latency limit
// at without a growing backlog. It answers what the Router buys over the
// obvious alternative. A discrete knee does not repeat from run to run, so
// none of this is gated.
func runSweep(w io.Writer, seed uint64) error {
	planes := []struct {
		name  string
		build func() (*system, error)
	}{
		{"1 pool x 2 slots", func() (*system, error) {
			m, err := service.New(service.Config{Slots: 2, Medians: 2, Clients: 2})
			if err != nil {
				return nil, err
			}
			return &system{jobs: m, pools: []*service.Manager{m}, stop: func() error { return m.Shutdown(context.Background()) }}, nil
		}},
		{"2 pools x 1 slot", planOpen(false).build},
	}
	for _, pl := range planes {
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "plane\toffered 1/s\tfinished in limit 1/s\tp50 ms\tp90 ms\tshed, failed or late\tin flight at T/2, T\tmeets limit")
		best := 0.0
		for _, rate := range sweepRates {
			n := int(rate * sweepWindow.Seconds())
			p := planOpen(false)
			p.build = pl.build
			p.window = sweepWindow
			p.jobs = func(g *gen) []jobTemplate {
				out := make([]jobTemplate, n)
				for i := range out {
					switch i % 3 {
					case 0:
						out[i] = jobTemplate{name: "morpion4D/L2/first", spec: fineMorpion(g)}
					case 1:
						out[i] = jobTemplate{name: "samegame8x8x4/L2", spec: fineSameGame(g, boardCatalog[i%len(boardCatalog)])}
					default:
						out[i] = jobTemplate{name: "sudoku3/L2", spec: fineSudoku(g)}
					}
				}
				return out
			}
			sw := &serviceWorkload{plan: p}
			if err := sw.setup(newGen(seed)); err != nil {
				return err
			}
			began := time.Now()
			res, err := sw.round(1, nil, 0)
			if cerr := sw.close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			lat := latenciesMs(res.ops, 1) // raw: the limit is in wall-clock time
			ok := len(lat)
			half, end := inFlight(res.ops, began.Add(sweepWindow/2)), inFlight(res.ops, began.Add(sweepWindow))
			// The backlog grows when the second half of the window left
			// more work in flight than a tenth of what it sent.
			growing := float64(end-half) > max(2, 0.1*float64(n)/2)
			p90 := quantile(lat, 0.9)
			meets := ok == n && p90 <= ms(latencyLimit.Nanoseconds()) && !growing
			if meets {
				best = rate
			}
			fmt.Fprintf(tw, "%s\t%g\t%.2f\t%.1f\t%.1f\t%d\t%d, %d\t%v\n",
				pl.name, rate, float64(ok)/sweepWindow.Seconds(), quantile(lat, 0.5), p90, n-ok, half, end, meets)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: highest rate meeting the %v limit without backlog growth: %g 1/s\n\n", pl.name, latencyLimit, best)
	}
	return nil
}

// inFlight counts the jobs sent but not finished at time t.
func inFlight(ops []opResult, t time.Time) int {
	n := 0
	for _, op := range ops {
		if jt := op.job; jt != nil && !jt.t0.After(t) && (jt.tw.IsZero() || jt.tw.After(t)) {
			n++
		}
	}
	return n
}
