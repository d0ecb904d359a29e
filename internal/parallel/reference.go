package parallel

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/game"
	"repro/internal/rng"
)

// Reference computes the answer of the parallel search as a pure function
// of cfg, with no ranks, no messages and no goroutines. At root step s,
// candidate c is worth the level-(ℓ−1) game a median plays from it: at that
// game's step t, child j is scored by a level-(ℓ−2) rollout reseeded from
// rng.Fold(s, c, t, j), and the game plays the argmax. The root plays the
// argmax over its candidates. Ties go to the first move at both levels.
//
// It is the executable form of the bit-identity invariant (DESIGN.md §5):
// Execute on any transport and a Pool on any transport must match it on
// Score, FirstMove, Sequence, Steps, Jobs and WorkUnits, the only fields it
// fills. The scheduling knobs (Algo, Static, Prefetch, Speculate, LMFifo,
// JobScale, Tracer) cannot change that answer and are ignored. StopAfter
// makes the answer depend on timing, so it is rejected.
//
// The loop is sequential on purpose: with the cache on and CacheVerify off,
// WorkUnits depend on which rollout reaches a cache entry first, and one
// fixed order keeps the reference a function of cfg.
func Reference(cfg Config) (Result, error) {
	if err := cfg.check(); err != nil {
		return Result{}, err
	}
	if cfg.StopAfter > 0 {
		return Result{}, fmt.Errorf("parallel: a StopAfter run has no reference answer")
	}
	return reference(cfg, refEnv{pool: new(core.StatePool), cache: cache.New(0), verify: cfg.CacheVerify,
		stopped: func() bool { return false }, stepped: func(*Result, float64) {}}), nil
}

// refEnv is what the reference loop runs on: Reference's pure defaults, or
// a width-one pool slot's StatePool, shared cache, stop poll and metering.
type refEnv struct {
	pool    *core.StatePool
	cache   *cache.Cache                     // consulted by cfg.Cache jobs
	verify  bool                             // recompute every cache hit
	stopped func() bool                      // polled once per median step; true stops the job
	stepped func(res *Result, score float64) // after every root step, res counted up to it
}

// reference is Reference's loop on env. A stop leaves Stopped set and the
// root's position scored, as a cancelled pool job does.
func reference(cfg Config, env refEnv) Result {
	eval, _ := game.NewEvaluator(cfg.Evaluator) // "" is never registered: nil keeps uniform playouts
	meter := &unitMeter{}
	client := core.NewSearcher(rng.New(0), core.Options{Meter: meter, Memorize: cfg.Memorize, Evaluator: eval})
	if cfg.Cache {
		client.SetCache(env.cache, cache.Scope(cfg.Evaluator, cfg.Memorize, 0), env.verify)
	}
	var res Result
	var moves, medMoves []game.Move
	var scores, medScores []float64

	// median plays the level-(ℓ−1) game from candidate cand of root step
	// step and returns its final score.
	median := func(step, cand int, st game.State) float64 {
		for t := 0; ; t++ {
			if res.Stopped = env.stopped(); res.Stopped {
				return 0
			}
			medMoves = st.LegalMoves(medMoves[:0])
			if len(medMoves) == 0 {
				return st.Score()
			}
			medScores = medScores[:0]
			for j, mv := range medMoves {
				child := env.pool.Get(st)
				child.Play(mv)
				client.Reseed(cfg.Seed, rng.Fold(uint64(step), uint64(cand), uint64(t), uint64(j)))
				medScores = append(medScores, client.Score(child, cfg.Level-2, cfg.Cache))
				env.pool.Put(child)
				res.Jobs++
			}
			st.Play(medMoves[argmax(medScores)])
		}
	}

	st := cfg.Root.Clone()
root:
	for {
		moves = st.LegalMoves(moves[:0])
		if len(moves) == 0 {
			break
		}
		scores = scores[:0]
		for c, mv := range moves {
			child := env.pool.Get(st)
			child.Play(mv)
			scores = append(scores, median(res.Steps, c, child))
			env.pool.Put(child)
			if res.Stopped {
				break root
			}
		}
		best := argmax(scores)
		st.Play(moves[best])
		res.Steps++
		res.Sequence = append(res.Sequence, moves[best])
		res.WorkUnits = meter.units
		env.stepped(&res, scores[best])
		if res.Steps == 1 {
			res.FirstMove = moves[best]
			if cfg.FirstMoveOnly {
				res.Score = scores[best]
				break
			}
		}
	}
	if !cfg.FirstMoveOnly || res.Steps == 0 {
		res.Score = st.Score()
	}
	res.WorkUnits = meter.units
	return res
}
