package main

import (
	"sort"
	"time"

	"repro/internal/rng"
	"repro/internal/service"
)

// gen turns the workload seed into inputs. The op lists — which domain,
// size, level and board each operation uses — are fixed in code, because a
// search's cost depends far more on its board than on its random stream
// (ten random 8×8 SameGame boards differ by 18% in total work, the same
// ten boards under different job seeds by 3%) and a benchmark whose work
// moved that much from seed to seed could not bound anything. The seed
// decides what is left: every job's search seed, the order of the
// operations, the tenants, the fresh boards of the W-class jobs and the
// arrival schedules. Arrivals are drawn from streams of their own, so
// changing a schedule never changes which jobs run.
type gen struct {
	seed  uint64
	specs *rng.Rand
}

func newGen(seed uint64) *gen {
	return &gen{seed: seed, specs: rng.NewStream(seed, 1)}
}

// jobSeed draws a search seed. Zero is the service's "unseeded" sentinel
// and would be replaced by a clock-derived one, so it is never handed out.
func (g *gen) jobSeed() uint64 {
	for {
		if s := g.specs.Uint64(); s != 0 {
			return s
		}
	}
}

// freshBoard is the board of the i-th W-class job of round n: new in every
// round and every run, so a cache can never have seen it.
func (g *gen) freshBoard(n, i int) uint64 {
	return rng.Fold(g.seed, 0x57636c617373, uint64(n), uint64(i)) | 1
}

func (g *gen) shuffle(n int, swap func(i, k int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, g.specs.Intn(i+1))
	}
}

// arrivalSchedule returns the due offsets of round n's arrivals: a Poisson
// process conditioned on its count and its span, which is the first
// arrival at 0, the last at window·(count−1)/count, and sorted uniform
// draws between them. Fixing the count keeps every round and every seed at
// the same offered load, and fixing the span keeps the round's length from
// depending on where the last draw fell. Every round draws its own
// schedule, so a run's latency percentiles average over several burst
// patterns and not over one.
func (g *gen) arrivalSchedule(n, count int, window time.Duration) []time.Duration {
	r := rng.NewStream(g.seed, 0x61727276<<8|uint64(n))
	span := window * time.Duration(count-1) / time.Duration(count)
	out := make([]time.Duration, count)
	for i := 1; i < count-1; i++ {
		out[i] = time.Duration(r.Float64() * float64(span))
	}
	out[count-1] = span
	sort.Slice(out, func(i, k int) bool { return out[i] < out[k] })
	return out
}

// boardCatalog are the SameGame boards the fixed op lists draw from.
var boardCatalog = []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}

// The fine mix: level-2 jobs whose clients run single level-0 playouts, so
// a job is thousands of tiny messages and the pool's messaging, not the
// rollouts, sets its latency.
func fineMorpion(g *gen) service.JobSpec {
	return service.JobSpec{Domain: "morpion", Variant: "4D", Level: 2, Seed: g.jobSeed(), Memorize: true, FirstMoveOnly: true}
}

func fineSameGame(g *gen, board uint64) service.JobSpec {
	return service.JobSpec{Domain: "samegame", Width: 8, Height: 8, Colors: 4, BoardSeed: board, Level: 2, Seed: g.jobSeed(), Memorize: true}
}

func fineSudoku(g *gen) service.JobSpec {
	return service.JobSpec{Domain: "sudoku", Box: 3, Level: 2, Seed: g.jobSeed(), Memorize: true}
}

// The coarse mix: level-3 first-move jobs whose clients run whole level-1
// searches, so rollout compute dominates and per-message cost disappears.
func coarseSameGame(g *gen, board uint64) service.JobSpec {
	return service.JobSpec{Domain: "samegame", Width: 7, Height: 7, Colors: 4, BoardSeed: board, Level: 3, Seed: g.jobSeed(), Memorize: true, FirstMoveOnly: true}
}

func coarseSudoku(g *gen) service.JobSpec {
	return service.JobSpec{Domain: "sudoku", Box: 3, Level: 3, Seed: g.jobSeed(), Memorize: true, FirstMoveOnly: true}
}
