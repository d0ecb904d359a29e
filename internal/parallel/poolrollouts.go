package parallel

// The rollouts: the level-(ℓ−2) games a median step scores, and the
// process's executor that shares them between the median and the helpers.

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/game"
	"repro/internal/rng"
)

// poolRollouts plays a pool job's level-(ℓ−2) rollouts: the indices of
// the steps a median or helper claims. Each rollout is reseeded from (job
// seed, coordinate key), so its score is identical no matter which median
// or helper plays it, in which order, or what ran on that goroutine
// before — the property the equivalence tests pin against
// Reference on both the wall and net transports. The searchers (one per
// memorization mode, sharing nothing), their scratch StatePools and the
// pool the positions are copied into persist across jobs. tc is the
// process-shared transposition cache; jobs opt in per job (P.Cache), and
// because a cached job's sub-searches draw from position-derived rng
// streams the cache is shared across jobs and ranks without coupling their
// results to each other's hit patterns.
type poolRollouts struct {
	tc        *cache.Cache
	verify    bool // recompute every cache hit
	meter     unitMeter
	pool      core.StatePool
	searchers [2]*core.Searcher // by P.Memorize
	s         *core.Searcher    // wired for job p by use
	p         jobParams
}

// use wires the searcher of p's memorization mode for job p. Jobs of
// differing evaluator configurations interleave on one persistent
// searcher, so the evaluator is resolved and swapped per use, like the rng
// stream is reseeded per rollout. A name this process has not registered
// (a version-skewed worker) resolves to nil: uniform playouts. A job that
// asks for the cache gets it until done.
func (r *poolRollouts) use(p jobParams) {
	i := 0
	if p.Memorize {
		i = 1
	}
	if r.searchers[i] == nil {
		r.searchers[i] = core.NewSearcher(rng.New(0), core.Options{Meter: &r.meter, Memorize: p.Memorize})
	}
	r.s, r.p = r.searchers[i], p
	var eval game.Evaluator
	if p.Eval != "" {
		eval, _ = game.NewEvaluator(p.Eval)
	}
	r.s.SetEvaluator(eval)
	if p.Cache {
		r.s.SetCache(r.tc, cache.Scope(p.Eval, p.Memorize, 0), r.verify)
	}
}

// play scores base after mv with the rollout keyed key, and returns the
// score and the rollout's metered work units. base is left as it was.
func (r *poolRollouts) play(base game.State, mv game.Move, key uint64) (float64, int64) {
	r.meter.units = 0
	st := r.pool.Get(base)
	st.Play(mv)
	r.s.Reseed(r.p.Seed, key)
	score := r.s.Score(st, r.p.Level-2, r.p.Cache)
	r.pool.Put(st)
	return score, r.meter.units
}

// done detaches the cache use attached.
func (r *poolRollouts) done() { r.s.SetCache(nil, 0, false) }

// executor is a process's rollout executor: the paper's clients as
// work-sharing in shared memory (Mirsoleimani et al.'s pipeline/task
// decomposition) instead of a dispatcher and per-rollout messages. A
// median posts each step of its game (execStep) and claims the step's
// rollouts from one atomic counter; the process's helper goroutines, one
// per client, join posted steps and claim from the same counter. Rollouts
// are keyed by their coordinates, so who plays which index changes timing
// only, never a score. A process with no more clients than medians starts
// no helper, and its medians claim every index themselves, posting
// nothing. A median never waits for a helper that has not joined, so
// helpers can stop at any time (close) without stranding a median.
type executor struct {
	tc      *cache.Cache
	verify  bool
	started int // helpers started; 0 means nothing is ever posted

	mu     sync.Mutex
	posted *sync.Cond  // signalled when a step is posted or the executor closes
	steps  []*execStep // posted steps, in posting order
	order  []lmJob     // steps' moves played, in the same order (nextPending)
	closed bool
	done   sync.WaitGroup
}

// execStep is one step of a median's game: index i is base after
// moves[i], rolled out under rng key keys[i], and scores into scores[i]
// at the cost of units[i]. Each median owns one and reuses it step after
// step: it is posted, claimed, withdrawn, and only then rewritten.
type execStep struct {
	base   game.State
	moves  []game.Move
	keys   []uint64
	p      jobParams
	scores []float64
	units  []int64
	next   atomic.Int64  // the next unclaimed index
	wake   chan struct{} // the last helper to leave a withdrawn step signals its median

	// Guarded by executor.mu.
	joined    int  // helpers on the step
	helped    bool // a helper claimed an index
	withdrawn bool // the median found no index left and waits for the helpers on it
}

// newExecutor builds the executor of a process whose rollouts consult tc.
func newExecutor(cfg PoolConfig, tc *cache.Cache) *executor {
	ex := &executor{tc: tc, verify: cfg.CacheVerify}
	ex.posted = sync.NewCond(&ex.mu)
	return ex
}

// start runs n helpers, reporting helper i's waits for a posted step to
// idle(i, d). Called once, before any median runs.
func (ex *executor) start(n int, idle func(i int, d time.Duration)) {
	ex.started = n
	for i := range n {
		ex.done.Add(1)
		go func() {
			defer ex.done.Done()
			ex.runHelper(func(d time.Duration) { idle(i, d) })
		}()
	}
}

// close stops the helpers and waits for them. A helper on a step finishes
// its claims first, so a median never loses a claimed rollout.
func (ex *executor) close() {
	ex.mu.Lock()
	ex.closed = true
	ex.mu.Unlock()
	ex.posted.Broadcast()
	ex.done.Wait()
}

// rollouts returns a rollout player for one median or helper of the
// process.
func (ex *executor) rollouts() *poolRollouts {
	return &poolRollouts{tc: ex.tc, verify: ex.verify}
}

// play scores every index of s with ro (wired for s.p) and returns the
// units the step cost and whether a helper played part of it. With
// helpers running, the median posts s and yields once — the broadcast
// readies the woken helpers behind the median on its own processor, and
// without the yield a step shorter than another processor takes to steal
// one is claimed by the median alone. Once the median's own claims find
// no index left, it withdraws s and waits for the helpers on it.
func (ex *executor) play(ro *poolRollouts, s *execStep) (units int64, helped bool) {
	n := len(s.moves)
	s.scores = slices.Grow(s.scores[:0], n)[:n]
	s.units = slices.Grow(s.units[:0], n)[:n]
	s.next.Store(0)
	if ex.started == 0 {
		s.claim(ro)
	} else {
		ex.mu.Lock()
		s.joined, s.helped, s.withdrawn = 0, false, false
		ex.steps = append(ex.steps, s)
		ex.order = append(ex.order, lmJob{moves: s.base.MovesPlayed()})
		ex.mu.Unlock()
		ex.posted.Broadcast()
		runtime.Gosched()

		s.claim(ro)

		ex.mu.Lock()
		if i := slices.Index(ex.steps, s); i >= 0 {
			ex.unpost(i)
		}
		s.withdrawn = true
		wait := s.joined > 0
		ex.mu.Unlock()
		if wait {
			<-s.wake
		}
		helped = s.helped
	}
	for _, u := range s.units {
		units += u
	}
	return units, helped
}

// claim plays the step's unclaimed indices one at a time until none is
// left, and reports whether it played any.
func (s *execStep) claim(ro *poolRollouts) (played bool) {
	for {
		i := int(s.next.Add(1) - 1)
		if i >= len(s.moves) {
			return played
		}
		s.scores[i], s.units[i] = ro.play(s.base, s.moves[i], s.keys[i])
		played = true
	}
}

// unpost removes the i-th posted step. Caller holds ex.mu.
func (ex *executor) unpost(i int) {
	ex.steps = slices.Delete(ex.steps, i, i+1)
	ex.order = slices.Delete(ex.order, i, i+1)
}

// pick returns the posted step a free helper joins next, in the paper's
// Last-Minute order — the step with the fewest moves played, the longest
// expected game — dropping steps with no index left on the way; nil when
// none is claimable. Caller holds ex.mu.
func (ex *executor) pick() *execStep {
	for len(ex.steps) > 0 {
		i := nextPending(ex.order, true)
		if s := ex.steps[i]; s.next.Load() < int64(len(s.moves)) {
			return s
		}
		ex.unpost(i)
	}
	return nil
}

// runHelper is one client of the process: it joins posted steps and
// claims their rollouts until the executor closes. idle receives each
// wait for a posted step.
func (ex *executor) runHelper(idle func(time.Duration)) {
	ro := ex.rollouts()
	ex.mu.Lock()
	defer ex.mu.Unlock()
	for {
		s := ex.pick()
		if s == nil {
			if ex.closed {
				return
			}
			t0 := time.Now()
			ex.posted.Wait()
			d := time.Since(t0)
			ex.mu.Unlock()
			idle(d)
			ex.mu.Lock()
			continue
		}
		s.joined++
		ex.mu.Unlock()

		ro.use(s.p)
		played := s.claim(ro)
		ro.done()

		ex.mu.Lock()
		s.joined--
		s.helped = s.helped || played
		if s.joined == 0 && s.withdrawn {
			s.wake <- struct{}{} // never blocks: one send per wait, into a buffer of one
		}
	}
}
